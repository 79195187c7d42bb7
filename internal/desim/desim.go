// Package desim is a minimal discrete-event simulation kernel: a virtual
// clock and a priority queue of cancellable events. Nothing in the module
// imports it: the stream engine keeps one completion time per job in its
// own table instead of an event queue.
//
// The simulator recycles Event objects through an internal free list, so
// steady-state Schedule/Cancel/Step cycles perform zero allocations. The
// price of pooling is a lifetime rule: once an event has run or been
// cancelled, its *Event may be handed out again by a later Schedule, so
// callers must drop their reference at that point (cancelling an event
// twice, or after it has run, is only safe while no new events have been
// scheduled since).
package desim

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel it; see the package comment for the pooling lifetime rule.
type Event struct {
	Time   float64
	Action func()

	seq       int64
	index     int // heap position, -1 when popped/cancelled
	cancelled bool
}

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    float64
	seq    int64
	queue  []*Event // binary min-heap on (Time, seq)
	free   []*Event // recycled events
	events int64    // processed events, for introspection and runaway guards
}

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() int64 { return s.events }

// Schedule runs action at absolute virtual time t (>= Now). Events at the
// same instant run in scheduling order.
func (s *Sim) Schedule(t float64, action func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("desim: scheduling in the past: %v < %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("desim: scheduling at NaN")
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	*e = Event{Time: t, Action: action, seq: s.seq}
	s.push(e)
	return e
}

// After schedules action d time units from now.
func (s *Sim) After(d float64, action func()) *Event {
	return s.Schedule(s.now+d, action)
}

// Cancel revokes a scheduled event; cancelling nil is a no-op, as is
// re-cancelling an event the simulator still remembers as retired (see the
// package comment for when that reference becomes invalid).
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.cancelled || e.index < 0 {
		e.markCancelled()
		return
	}
	e.cancelled = true
	s.removeAt(e.index)
	s.release(e)
}

func (e *Event) markCancelled() {
	if e != nil {
		e.cancelled = true
	}
}

// release returns a retired event to the free list.
func (s *Sim) release(e *Event) {
	e.Action = nil
	e.index = -1
	s.free = append(s.free, e)
}

// Step executes the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if e.cancelled {
			s.release(e)
			continue
		}
		s.now = e.Time
		s.events++
		action := e.Action
		s.release(e)
		action()
		return true
	}
	return false
}

// The priority queue is a hand-rolled binary min-heap on (Time, seq) —
// simultaneous events run FIFO — with per-event index tracking so Cancel
// removes in O(log n) without the container/heap interface indirection.

func (s *Sim) less(i, j int) bool {
	a, b := s.queue[i], s.queue[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (s *Sim) swap(i, j int) {
	q := s.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (s *Sim) push(e *Event) {
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.siftUp(e.index)
}

func (s *Sim) pop() *Event {
	n := len(s.queue) - 1
	s.swap(0, n)
	e := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// removeAt deletes the event at heap position i.
func (s *Sim) removeAt(i int) {
	n := len(s.queue) - 1
	if i != n {
		s.swap(i, n)
	}
	e := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if i < n {
		s.siftDown(i)
		s.siftUp(i)
	}
	e.index = -1
}

func (s *Sim) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	n := len(s.queue)
	for {
		smallest := i
		if l := 2*i + 1; l < n && s.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.swap(i, smallest)
		i = smallest
	}
}
