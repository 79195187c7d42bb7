package main

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.9, 10}, {99, 0.9, 9}, {60, 0.75, 15}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := quantile(lat, 0.99); got != 99 {
		t.Errorf("nearest-rank p99 of 1..100 = %v, want 99", got)
	}

	w := newReport("x")
	w.latencyMetrics([][]float64{lat}, 0.9)
	if len(w.Invalid) != 0 || w.Metrics["tail_ms"].Value != 90 || w.Metrics["p50_ms"].Value != 50 {
		t.Errorf("100 samples at p90: invalid=%v metrics=%v", w.Invalid, w.Metrics)
	}
	w = newReport("x")
	w.latencyMetrics([][]float64{lat}, 0.99)
	if len(w.Invalid) != 1 {
		t.Errorf("100 samples at p99 leave 1 beyond; want the run flagged, got %v", w.Invalid)
	}
}

// TestFastestQuarter slows five of eight slices (a host that gives the
// system half its CPU for most of the window) and checks that latency
// and throughput are taken over the two fastest slices, the fastest
// quarter.
func TestFastestQuarter(t *testing.T) {
	start := time.Unix(1000, 0)
	rec := newRecorder(start, time.Second)
	for k, slow := range []bool{false, true, false, true, true, false, true, true} {
		n, lat := 120+k, 2*time.Millisecond+time.Duration(k)*100*time.Microsecond
		if slow {
			n, lat = 100, 9*time.Millisecond
		}
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond)
			rec.done(due, due, due.Add(lat), outOK)
		}
	}
	// Due at the end of the window: beyond the slices counted.
	rec.done(start.Add(8*time.Second), start.Add(8*time.Second), start.Add(8*time.Second+time.Millisecond), outOK)
	groups := rec.slices(8)
	w := newReport("x")
	w.throughputMetric(groups, every(time.Second))
	w.latencyMetrics(groups, 0.9)
	// The highest rates are slices 5 (125/s) and 2 (122/s).
	if got := w.Metrics["throughput_ops_s"].Value; got != 123.5 {
		t.Errorf("throughput %v/s, want 123.5/s over the two fastest slices", got)
	}
	// The lowest medians are slices 0 (120 at 2.0 ms) and 2 (122 at
	// 2.2 ms); the 121st of their 242 samples is 2.2 ms.
	if got := w.Metrics["p50_ms"].Value; math.Abs(got-2.2) > 1e-9 {
		t.Errorf("p50 %v ms, want 2.2 ms over the two fastest slices", got)
	}
	if w.Samples != 242 || w.Slices != 8 || len(w.Invalid) != 0 {
		t.Errorf("samples=%d slices=%d invalid=%v", w.Samples, w.Slices, w.Invalid)
	}
	for _, c := range []struct {
		vs     []float64
		higher bool
		want   []int
	}{{[]float64{3, 1, 2}, false, []int{1}}, {[]float64{3, 1, 2}, true, []int{0}}, {[]float64{5, 4, 3, 2, 1}, false, []int{4, 3}}, {[]float64{5, 4, 3, 2, 1}, true, []int{0, 1}}, {nil, true, []int{}}} {
		if got := fastestQuarter(c.vs, c.higher); !reflect.DeepEqual(got, c.want) {
			t.Errorf("fastestQuarter(%v, higher=%v) = %v, want %v", c.vs, c.higher, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}}, // extrapolates, as Python does
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// fakeClock advances only when the load loop sleeps or an operation
// takes simulated time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) bool {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
	return true
}

// TestOpenLoopDueTimeLatency stalls the first of an open loop's
// requests and checks that the requests queued behind it are charged
// from their due times, not from when they were finally sent.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var rec recorder
	start := clk.Now()
	// A synchronous spawn models a single connection: the generator
	// cannot send until the previous answer is back.
	n := runOpen(context.Background(), clk, start, 10*time.Millisecond, 50*time.Millisecond,
		func(f func()) { f() },
		func(i int, due time.Time) {
			sent := clk.Now()
			if i == 0 {
				clk.advance(45 * time.Millisecond) // the stall
			} else {
				clk.advance(time.Millisecond)
			}
			rec.done(due, sent, clk.Now(), outOK)
		})
	if n != 5 {
		t.Fatalf("issued %d operations in 50ms at 10ms spacing, want 5", n)
	}
	// Due at 0,10,20,30,40; the stall ends at 45, then 1ms each.
	want := []float64{45, 36, 27, 18, 9}
	got := rec.lat[0]
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("latencies from due time = %v, want %v", got, want)
		}
	}
	if late := rec.lateness(); late[len(late)-1] != 35 {
		t.Errorf("worst lateness %v ms, want 35", late[len(late)-1])
	}
}

func TestFailureAccounting(t *testing.T) {
	for _, c := range []struct {
		status int
		err    error
		want   outcome
	}{
		{http.StatusOK, nil, outOK},
		{http.StatusTooManyRequests, nil, outRejected},
		{http.StatusGatewayTimeout, nil, outTimeout},
		{http.StatusInternalServerError, nil, outServerErr},
		{http.StatusServiceUnavailable, nil, outServerErr},
		{http.StatusBadRequest, nil, outClientErr},
		{0, errors.New("connection refused"), outTransport},
		{0, context.DeadlineExceeded, outTimeout},
	} {
		if got := classify(c.status, c.err); got != c.want {
			t.Errorf("classify(%d, %v) = %s, want %s", c.status, c.err, outcomeNames[got], outcomeNames[c.want])
		}
	}

	var rec recorder
	now := time.Now()
	for _, oc := range []outcome{outOK, outOK, outRejected, outTimeout, outServerErr, outTransport, outWrong} {
		rec.done(now, now, now, oc)
	}
	w := newReport("x")
	w.count(&rec)
	w.OracleChecked = 2
	w.mismatch("one sampled answer disagreed")
	w.finish()
	if w.Attempted != 7 || w.Failed != 6 || w.Correct {
		t.Errorf("attempted=%d failed=%d correct=%v, want 7, 6 (5 + 1 oracle mismatch), false", w.Attempted, w.Failed, w.Correct)
	}
	if w.Failures["wrong_answer"] != 2 || w.Failures["rejected_429"] != 1 || len(rec.lat[0]) != 2 {
		t.Errorf("failures %v with %d latency samples", w.Failures, len(rec.lat[0]))
	}
}

func TestCompareRules(t *testing.T) {
	base := func(seed int64) *Report {
		return &Report{Schema: Schema, Env: Env{NumCPU: 2, GOMAXPROCS: map[string]int{"generator": 2}, Conns: 2, Seed: seed, Seconds: 15}}
	}
	as := []*Report{base(1), base(2)}
	bs := []*Report{base(1), base(2)}
	if err := comparable(as, bs); err != nil {
		t.Fatalf("identical setups refused: %v", err)
	}
	for name, mutate := range map[string]func(*Report){
		"nproc":       func(r *Report) { r.Env.NumCPU = 4 },
		"gomaxprocs":  func(r *Report) { r.Env.GOMAXPROCS = map[string]int{"generator": 1} },
		"seed":        func(r *Report) { r.Env.Seed = 9 },
		"run lengths": func(r *Report) { r.Env.Seconds = 30 },
	} {
		b := *base(2)
		mutate(&b)
		if err := comparable(as, []*Report{base(1), &b}); err == nil {
			t.Errorf("differing %s not refused", name)
		}
	}

	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if c := judge("w", "p50_ms", false, 0.1, a, faster); c.verdict != "improved" {
		t.Errorf("10/10 pairs won by far more than the spread: %s", c.verdict)
	}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if c := judge("w", "p50_ms", false, 0.1, a, slower); c.verdict != "regressed" {
		t.Errorf("20%% slower against a 10%% bound: %s", c.verdict)
	}
	noisy := []float64{60, 140, 80, 130, 70, 150, 90, 120, 75, 135}
	if c := judge("w", "p50_ms", false, 0.1, a, noisy); c.verdict != "unresolved" {
		t.Errorf("spread far beyond the bound: %s", c.verdict)
	}
	if c := judge("w", "throughput_ops_s", true, 0.1, a, a); c.verdict != "within bound" {
		t.Errorf("identical samples: %s", c.verdict)
	}

	// Failures: a failed operation leaves no latency sample, so a change
	// that fails everything reads 0 ms. Its failed_frac row must regress
	// and its timings must not count as a gain.
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "p50_ms", "better": "lower", "bound": 0.1}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	runs := func(mutate func(i int, w *WorkloadReport)) []*Report {
		var rs []*Report
		for i := range a {
			w := &WorkloadReport{Workload: "w", Correct: true, Attempted: 1000, Metrics: map[string]Metric{"p50_ms": {Value: a[i], Unit: "ms"}}}
			mutate(i, w)
			r := base(int64(i))
			r.Workloads = []*WorkloadReport{w}
			rs = append(rs, r)
		}
		return rs
	}
	healthy := runs(func(int, *WorkloadReport) {})
	for name, c := range map[string]struct {
		mutate  func(i int, w *WorkloadReport)
		verdict string
	}{
		"same": {func(int, *WorkloadReport) {}, "within bound"},
		"all failed": {func(_ int, w *WorkloadReport) {
			w.Failed, w.Correct, w.Metrics["p50_ms"] = w.Attempted, false, Metric{Unit: "ms"}
		}, "regressed"},
		"one more": {func(i int, w *WorkloadReport) { w.Failed = i / 9 }, "regressed"},
		"wrong":    {func(i int, w *WorkloadReport) { w.Correct = i != 3 }, "regressed"},
		"invalid":  {func(i int, w *WorkloadReport) { w.Invalid = []string{"generator fell behind"} }, "regressed"},
	} {
		rows, err := compareReports(healthy, runs(c.mutate), bf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows[0].metric != "failed_frac" || rows[0].verdict != c.verdict {
			t.Errorf("%s: %s %s, want failed_frac %s", name, rows[0].metric, rows[0].verdict, c.verdict)
		}
		if rows[1].verdict == "improved" && c.verdict == "regressed" {
			t.Errorf("%s: p50_ms counted as improved", name)
		}
	}
	if _, err := compareReports(runs(func(i int, w *WorkloadReport) { w.Invalid = []string{"x"} }), healthy, bf); err == nil {
		t.Error("an invalid parent run was compared")
	}
}

// TestSolveMixCellsFollowFigures checks solve-mix's request cells
// against the x-axes of the figures they are taken from.
func TestSolveMixCellsFollowFigures(t *testing.T) {
	cfg := experiments.Config{Seeds: 1, Workers: 1}
	var want []solveCell
	for _, f := range []struct {
		fig  *experiments.Figure
		cell func(x float64) solveCell
	}{
		{experiments.Fig2a(cfg), func(x float64) solveCell { return solveCell{int(x), 0.9} }},
		{experiments.Fig2b(cfg), func(x float64) solveCell { return solveCell{int(x), 1.7} }},
		{experiments.Fig3(cfg), func(x float64) solveCell { return solveCell{60, x} }},
	} {
		for _, p := range f.fig.Series[0].Points {
			want = append(want, f.cell(p.X))
		}
	}
	if got := solveMixCells(); !reflect.DeepEqual(got, want) {
		t.Errorf("solve-mix cells %v, figures %v", got, want)
	}
}

// TestBenchmarkJSON checks the root BENCHMARK.json against the schema
// the benchmark runner enforces and against this package's catalogue.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(keys)); !reflect.DeepEqual(got, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Fatalf("top-level keys %v", got)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if !reflect.DeepEqual(b.Paths, []string{"cmd/e2ebench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q, harness has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		e := endToEnd[i]
		if m.Name != e.name || m.Unit != e.unit || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, harness %+v", i, m, e)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	e2e := map[string]bool{"failed": true}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	wls := map[string]bool{}
	for _, w := range workloads {
		wls[w.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		l := perLayer[i]
		if m.Name != l.name || m.Unit != l.unit || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %d: %+v, harness %+v", i, m, l)
		}
		// Every per-layer metric names the end-to-end metric(s) and the
		// workload(s) it should move: "metric[,metric]@workload[,workload]".
		metrics, ws, ok := strings.Cut(l.moves, "@")
		if !ok {
			t.Errorf("%s: prediction %q lacks metric@workload", l.name, l.moves)
			continue
		}
		for _, m := range strings.Split(metrics, ",") {
			if !e2e[m] {
				t.Errorf("%s moves unknown end-to-end metric %q", l.name, m)
			}
		}
		for _, w := range strings.Split(ws, ",") {
			if !wls[w] {
				t.Errorf("%s moves unknown workload %q", l.name, w)
			}
		}
	}
}

// TestSmoke runs all four workloads for a fraction of a second each
// against in-process daemons, traced, and requires every oracle and
// every replay to agree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	dir := t.TempDir()
	r := &runner{
		l:                inprocLauncher{},
		client:           newClient(2),
		clk:              wallClock{},
		seed:             3, // not 7, the held-out seed
		measure:          300 * time.Millisecond,
		warmup:           50 * time.Millisecond,
		conns:            2,
		setups:           2,
		trace:            true,
		spanPath:         func(wl string) string { return filepath.Join(dir, wl+".json") },
		tmp:              dir,
		sweepJobsPerBoot: 2,
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w, err := wl.run(r, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w.finish()
			if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d checked=%d mismatches=%v invalid=%v",
					w.Correct, w.Attempted, w.Failed, w.OracleChecked, w.Mismatches, w.Invalid)
			}
			res := summarize([]*WorkloadReport{w}, false)
			for _, m := range endToEnd {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("no end-to-end metric %s", m.name)
				}
			}
			// Every layer metric predicted to move this workload is measured.
			for _, l := range perLayer {
				_, ws, _ := strings.Cut(l.moves, "@")
				if _, ok := w.Layers[l.name]; !ok && slices.Contains(strings.Split(ws, ","), wl.name) {
					t.Errorf("no per-layer metric %s", l.name)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, wl.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
