package desim

import (
	"testing"
)

func TestOrdering(t *testing.T) {
	var s Sim
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("now = %v, want 3", s.Now())
	}
}

func TestSimultaneousFIFO(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var s Sim
	ran := false
	e := s.Schedule(1, func() { ran = true })
	s.Cancel(e)
	for s.Step() {
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel is a no-op.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelDuringRun(t *testing.T) {
	var s Sim
	ran := false
	var e2 *Event
	s.Schedule(1, func() { s.Cancel(e2) })
	e2 = s.Schedule(2, func() { ran = true })
	for s.Step() {
	}
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(1.5, func() {
			times = append(times, s.Now())
		})
	})
	for s.Step() {
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2.5 {
		t.Fatalf("times = %v", times)
	}
}

// TestScheduleStepZeroAllocs pins the event pool: a warmed simulator runs
// schedule/cancel/step cycles without allocating.
func TestScheduleStepZeroAllocs(t *testing.T) {
	var s Sim
	action := func() {}
	// Warm the heap, the free list and the clock.
	for i := 0; i < 16; i++ {
		s.Schedule(float64(i), action)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(100, func() {
		e1 := s.After(1, action)
		e2 := s.After(2, action)
		s.Cancel(e1)
		if !s.Step() {
			t.Fatal("no event to step")
		}
		_ = e2
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Cancel/Step allocates %v per run, want 0", allocs)
	}
}

// TestEventRecycling checks pooled events are actually reused and that the
// heap stays consistent across a cancel-heavy workload.
func TestEventRecycling(t *testing.T) {
	var s Sim
	var got []int
	evs := make([]*Event, 0, 64)
	for i := 0; i < 64; i++ {
		i := i
		evs = append(evs, s.Schedule(float64(i%8), func() { got = append(got, i) }))
	}
	for i := 0; i < 64; i += 3 {
		s.Cancel(evs[i])
	}
	for s.Step() {
	}
	want := 0
	for i := 0; i < 64; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("ran %d events, want %d", len(got), want)
	}
	// Time ordering must survive removeAt-driven heap surgery.
	lastTime := -1
	for _, i := range got {
		if i%8 < lastTime {
			t.Fatalf("events ran out of time order: %v", got)
		}
		lastTime = i % 8
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var s Sim
	s.Schedule(5, func() {})
	for s.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Schedule(1, func() {})
}

// TestStepEmptyAndCancelledQueue checks that Step reports false on an empty
// queue and on one holding only cancelled events, and that neither the
// clock nor the processed-event count moves for a cancelled event.
func TestStepEmptyAndCancelledQueue(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
	s.Schedule(1, func() {})
	s.Cancel(s.Schedule(4, func() {}))
	s.Cancel(s.Schedule(2, func() {}))
	if !s.Step() {
		t.Fatal("Step skipped the live event")
	}
	if s.Step() {
		t.Fatal("Step ran a cancelled event")
	}
	if s.Now() != 1 || s.Processed() != 1 {
		t.Fatalf("now=%v processed=%d, want 1 and 1", s.Now(), s.Processed())
	}
}
