// Command bench is the repository's perf harness: it times the solve,
// validate, sweep, simulate and serve (allocation-daemon request) hot paths over
// a canonical pinned-seed instance corpus (corpusCell: N in {20, 60, 140, 300, 600} x alpha in
// {0.9, 1.7}) and emits a machine-readable JSON report — the artifact CI compares
// against the committed BENCH_baseline.json to gate perf regressions.
//
// Usage:
//
//	bench [-o BENCH_results.json] [-seeds 3] [-iters-scale 1] [-cpuprofile FILE] [-memprofile FILE]
//	bench -compare BENCH_baseline.json BENCH_results.json [-ns-threshold 0.20]
//
// Run mode measures every benchmark entry (warm-up run excluded, then a
// fixed iteration count split into samples, benchstat-style) and records
// ns/op (mean, min and median across samples), allocs/op, B/op and
// ops/s. Allocation counts of serial entries are machine-independent, so
// they gate strictly; wall-clock is not, so every report carries a
// calibration entry (a fixed pure-CPU spin) and compare judges the
// calibration-normalized median-ns/op ratio — the median shrugs off a
// descheduled sample without the min's blind spot (samples rotate over
// corpus seeds, so a min only times the cheapest seed), which is what
// lets the gate sit at -ns-threshold 20%. Entries under 10us on both
// sides are reported but not ns-gated: they time dispatch overhead,
// and jitter dominates. Refresh baselines with the same -iters-scale
// CI uses (make bench-baseline) so sample shapes stay comparable.
// Parallel entries are timed for trend visibility but never alloc-gated
// (goroutine bookkeeping varies with GOMAXPROCS). Compare also reports
// unmatched entries on
// both sides and fails when the baseline misses an entry or lacks a
// newly added alloc-gated one — growing the corpus requires a
// deliberate baseline refresh.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run (the
// heap profile is taken at its end and carries the run's allocation
// totals), for attaching evidence to a perf change; inspect them with
// `go tool pprof`. Profiling perturbs timings, so a profiled report is
// no baseline.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	streamalloc "repro"
	"repro/internal/churn"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/multiapp"
	"repro/internal/platform"
	"repro/internal/refine"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Schema identifies the report layout; bump on incompatible changes.
// v2 added the per-entry sample statistics (samples, ns_min, ns_median).
const Schema = "streamalloc-bench/v2"

// Entry is one measured benchmark.
type Entry struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	Samples    int     `json:"samples"`
	NsPerOp    float64 `json:"ns_per_op"`
	NsMin      float64 `json:"ns_min"`
	NsMedian   float64 `json:"ns_median"`
	AllocsPerO float64 `json:"allocs_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// AllocGated entries have machine-independent allocation counts
	// (single-goroutine, deterministic workloads); compare fails on any
	// allocs/op growth for them.
	AllocGated bool `json:"alloc_gated"`
}

// Report is the full JSON artifact.
type Report struct {
	Schema    string    `json:"schema"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	Seeds     int       `json:"corpus_seeds"`
	CorpusNs  []int     `json:"corpus_n"`
	CorpusAs  []float64 `json:"corpus_alpha"`
	Entries   []Entry   `json:"benchmarks"`
}

func main() {
	var (
		out         = flag.String("o", "", "write the JSON report to this file (default stdout)")
		seeds       = flag.Int("seeds", 3, "pinned seeds per corpus cell")
		itersScale  = flag.Int("iters-scale", 1, "multiply every entry's iteration count (longer, steadier runs)")
		compareMode = flag.Bool("compare", false, "compare two reports: bench -compare BASELINE RESULTS")
		nsThreshold = flag.Float64("ns-threshold", 0.20, "max allowed calibration-normalized median-ns/op growth")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare BASELINE.json RESULTS.json")
			os.Exit(2)
		}
		if err := compare(flag.Arg(0), flag.Arg(1), *nsThreshold); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := profiled(*cpuProfile, *memProfile, func() (*Report, error) { return run(*seeds, *itersScale) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d entries to %s\n", len(rep.Entries), *out)
}

// profiled runs f under a CPU profile written to cpuPath and writes a
// heap profile to memPath once f returns; an empty path skips that
// profile.
func profiled(cpuPath, memPath string, f func() (*Report, error)) (*Report, error) {
	if cpuPath != "" {
		out, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, err
		}
		rep, err := profiled("", memPath, f)
		pprof.StopCPUProfile()
		return rep, errors.Join(err, out.Close())
	}
	rep, err := f()
	if err != nil || memPath == "" {
		return rep, err
	}
	out, err := os.Create(memPath)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the heap profile reports live data as of the last GC
	return rep, errors.Join(pprof.WriteHeapProfile(out), out.Close())
}

// benchSamples is how many timing samples each entry's iteration budget
// is split into; compare gates on the median (benchstat-style), so a
// single descheduled sample cannot fail the build.
const benchSamples = 5

// measure times iters runs of f (after one untimed warm-up), split into
// benchSamples timing samples, and reads the allocator's global counters
// around the whole loop — the testing.AllocsPerRun technique, plus
// per-sample wall-clock.
func measure(name string, iters int, allocGated bool, f func()) Entry {
	f() // warm every lazily-grown buffer so steady state is measured
	runtime.GC()
	perSample := iters / benchSamples
	if perSample < 1 {
		perSample = 1
	}
	// Preallocated before the MemStats window so the harness's own sample
	// bookkeeping is never charged to the entry's allocs/op.
	sampleNs := make([]float64, 0, benchSamples+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for done := 0; done < iters; {
		n := perSample
		if iters-done < n {
			n = iters - done
		}
		s0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		sampleNs = append(sampleNs, float64(time.Since(s0).Nanoseconds())/float64(n))
		done += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(iters)
	ops := 0.0
	if elapsed > 0 {
		ops = float64(iters) / elapsed.Seconds()
	}
	sort.Float64s(sampleNs)
	return Entry{
		Name:       name,
		Iterations: iters,
		Samples:    len(sampleNs),
		NsPerOp:    ns,
		NsMin:      sampleNs[0],
		NsMedian:   sampleNs[len(sampleNs)/2],
		AllocsPerO: math.Floor(float64(after.Mallocs-before.Mallocs) / float64(iters)),
		BytesPerOp: math.Floor(float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)),
		OpsPerSec:  ops,
		AllocGated: allocGated,
	}
}

// calibrationName is the pure-CPU spin every report carries so ns/op can
// be compared across machines as a ratio to it.
const calibrationName = "calibrate/spin"

// spin is a fixed floating-point workload (~1e7 FLOPs) with a data
// dependency so the compiler cannot elide or vectorize it away.
var spinSink float64

func spin() {
	x := 1.0
	for i := 0; i < 5_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
}

func run(seeds, itersScale int) (*Report, error) {
	if itersScale < 1 {
		itersScale = 1
	}
	if seeds < 1 {
		seeds = 1
	}
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seeds:     seeds,
		CorpusNs:  corpusNs,
		CorpusAs:  corpusAlphas,
	}
	add := func(e Entry) {
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(os.Stderr, "bench: %-40s %12.0f ns/op %10.0f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerO)
	}

	add(measure(calibrationName, 12*itersScale, false, spin))

	// Solve: the best heuristic on every corpus cell, rotating seeds so
	// one op is one full solve. Large cells get fewer iterations — one
	// N=600 solve runs ~70ms, and the sample split keeps the gate robust.
	// From N=140 up, every alpha=1.7 instance fails Precheck in about a
	// microsecond; the N=140 cell times that fast-reject path as
	// solve/precheck-reject, and the N=300/600 ones are not timed.
	for _, n := range corpusNs {
		for _, alpha := range corpusAlphas {
			name := fmt.Sprintf("solve/subtree/N=%d,alpha=%g", n, alpha)
			switch {
			case n == 140 && alpha == 1.7:
				name = "solve/precheck-reject"
			case n > 140 && alpha == 1.7:
				continue
			}
			cell := corpusCell(n, alpha, seeds)
			i := 0
			add(measure(name, solveIters(n)*itersScale, true, func() {
				it := cell[i%len(cell)]
				i++
				// Infeasibility is a legitimate corpus outcome (the paper's
				// large trees stress exactly that); the attempt is what is
				// timed. Anything else is a harness bug.
				if _, err := heuristics.Solve(it.Inst, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: it.Seed}); err != nil && !streamalloc.IsInfeasible(err) {
					panic(fmt.Sprintf("%s: %v", name, err))
				}
			}))
		}
	}

	// Validate: the constraint (1)-(5) and incremental-invariant check
	// every production solve ends with, alone, on the finished
	// Subtree-bottom-up mappings of the largest feasible cell (rotating
	// seeds). Each mapping is validated once beforehand so its scratch is
	// sized and allocs/op is the steady state.
	{
		var maps []*mapping.Mapping
		for _, it := range corpusCell(600, 0.9, seeds) {
			if res, err := heuristics.Solve(it.Inst, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: it.Seed}); err == nil {
				maps = append(maps, res.Mapping)
			}
		}
		name := "validate/subtree/N=600,alpha=0.9"
		for _, m := range maps {
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
		}
		if len(maps) > 0 {
			i := 0
			add(measure(name, 100*itersScale, true, func() {
				m := maps[i%len(maps)]
				i++
				if err := m.Validate(); err != nil {
					panic(fmt.Sprintf("%s: %v", name, err))
				}
			}))
		}
	}

	// Portfolio: all six heuristics, serial, on the medium and the
	// largest feasible alpha=0.9 cell.
	for _, n := range []int{60, 140} {
		cell := corpusCell(n, 0.9, seeds)
		s := streamalloc.Solver{Workers: 1}
		i := 0
		add(measure(fmt.Sprintf("solve/portfolio/N=%d,alpha=0.9", n), 10*itersScale, true, func() {
			it := cell[i%len(cell)]
			i++
			s.Options.Seed = it.Seed
			s.SolveAll(it.Inst)
		}))
	}

	// Instance generation on a reusable Generator (the serve arenas'
	// and sweep environments' path), rotating seeds; steady state is
	// allocation-free.
	{
		var g instance.Generator
		seed := int64(0)
		add(measure("instance/generate/N=140", 200*itersScale, true, func() {
			seed = seed%int64(seeds) + 1
			g.Generate(instance.Config{NumOps: 140, Alpha: 0.9}, seed)
		}))
	}

	// Exact: branch-and-bound on a pinned multi-processor CONSTR-HOM
	// instance (slow CPU, 176 search nodes). The DFS backtracks through
	// the move journal and no longer clones per leaf, so the entry
	// alloc-gates the whole search.
	{
		p := platform.DefaultPlatform()
		p.Catalog = platform.Homogeneous(0, 4)
		in := instance.Generate(instance.Config{NumOps: 14, Alpha: 2.0, Platform: p}, 2)
		name := "solve/exact/N=14,alpha=2"
		add(measure(name, 30*itersScale, true, func() {
			if _, err := exact.Solve(in, exact.Limits{}); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	// Refine: the SA+LNS refinement layer (journaled moves, rollback on
	// rejection) over corpus cells, rotating seeds. Deterministic and
	// single-goroutine, so alloc-gated.
	for _, n := range []int{20, 60} {
		cell := corpusCell(n, 0.9, seeds)
		i := 0
		name := fmt.Sprintf("refine/solve/N=%d,alpha=0.9", n)
		add(measure(name, 5*itersScale, true, func() {
			it := cell[i%len(cell)]
			i++
			if _, err := refine.Refine(it.Inst, refine.Options{Seed: it.Seed}); err != nil && !streamalloc.IsInfeasible(err) {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	// Simulate: the stream engine on pre-solved small-cell mappings,
	// through a reusable Runner (the steady-state zero-alloc path).
	for _, alpha := range corpusAlphas {
		var maps []*heuristics.Result
		for _, it := range corpusCell(20, alpha, seeds) {
			res, err := heuristics.Solve(it.Inst, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: it.Seed})
			if err != nil {
				continue // infeasible cells are skipped, not timed
			}
			maps = append(maps, res)
		}
		if len(maps) == 0 {
			continue
		}
		r := stream.NewRunner()
		i := 0
		name := fmt.Sprintf("simulate/subtree/N=20,alpha=%g", alpha)
		add(measure(name, 50*itersScale, true, func() {
			res := maps[i%len(maps)]
			i++
			if _, err := r.Simulate(res.Mapping, stream.Options{Results: 60}); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	// Simulate on a transfer-heavy cell: Object-Availability at N=60
	// spreads every corpus seed over 13-16 processors with 37-41
	// operator outputs crossing a link, so the max-min bandwidth path
	// runs on most events (the subtree entries above collapse onto one
	// processor and never transfer).
	{
		var maps []*heuristics.Result
		for _, it := range corpusCell(60, 0.9, seeds) {
			res, err := heuristics.Solve(it.Inst, heuristics.ObjectAvailability{}, heuristics.Options{Seed: it.Seed})
			if err != nil {
				continue
			}
			maps = append(maps, res)
		}
		if len(maps) > 0 {
			r := stream.NewRunner()
			for _, res := range maps { // grow the engine to the largest mapping
				if _, err := r.Simulate(res.Mapping, stream.Options{Results: 60}); err != nil {
					return nil, err
				}
			}
			i := 0
			name := "simulate/object-availability/N=60,alpha=0.9"
			add(measure(name, 10*itersScale, true, func() {
				res := maps[i%len(maps)]
				i++
				if _, err := r.Simulate(res.Mapping, stream.Options{Results: 60}); err != nil {
					panic(fmt.Sprintf("%s: %v", name, err))
				}
			}))
		}
	}

	// Sweep: one figure-sized experiment, serial (alloc-gated now that
	// the Grid engine's caller-owned mapping arena keeps the path
	// allocation-light) and at four workers (throughput trend; goroutine
	// bookkeeping makes its allocation count scheduler-dependent, so it
	// is not alloc-gated).
	add(measure("sweep/fig2a/workers=1", 2*itersScale, true, func() {
		experiments.Fig2a(experiments.Config{Seeds: 1, BaseSeed: 1, Workers: 1})
	}))
	add(measure("sweep/fig2a/workers=4", 2*itersScale, false, func() {
		experiments.Fig2a(experiments.Config{Seeds: 1, BaseSeed: 1, Workers: 4})
	}))

	// Serve: the allocation daemon's solve endpoint through the real
	// handler stack — parse, admission, borrowed arena, render — serial
	// (alloc-gated: one warmed arena, deterministic request rotation)
	// and with four concurrent clients against four arenas (throughput
	// trend; scheduler-dependent, so not alloc-gated).
	{
		bodies := make([][]byte, 0, seeds)
		for s := 1; s <= seeds; s++ {
			bodies = append(bodies, []byte(fmt.Sprintf(`{"ref":{"n":60,"alpha":0.9,"seed":%d}}`, s)))
		}
		srv := serve.New(serve.Config{Workers: 1, QueueDepth: 8})
		i := 0
		name := "serve/solve/workers=1"
		add(measure(name, 10*itersScale, true, func() {
			req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(bodies[i%len(bodies)]))
			i++
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				panic(fmt.Sprintf("%s: status %d: %s", name, rec.Code, rec.Body.String()))
			}
		}))
		srv.Close()

		srv4 := serve.New(serve.Config{Workers: 4, QueueDepth: 16})
		name4 := "serve/solve/workers=4"
		add(measure(name4, 10*itersScale, false, func() {
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(bodies[c%len(bodies)]))
					rec := httptest.NewRecorder()
					srv4.ServeHTTP(rec, req)
					if rec.Code != 200 {
						panic(fmt.Sprintf("%s: status %d: %s", name4, rec.Code, rec.Body.String()))
					}
				}(c)
			}
			wg.Wait()
		}))
		srv4.Close()
	}

	// Verify: one /v1/verify request with an inline N=40 instance — the
	// shape of e2ebench's solve-verify workload — through the real
	// handler stack: the body and its instance decoded in one pass, the
	// mapping rebuilt and a 60-result stream simulation on the arena's
	// runner. Serial on one warmed arena, so alloc-gated.
	{
		srv := serve.New(serve.Config{Workers: 1, QueueDepth: 8})
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			return rec
		}
		name := "serve/verify-inline/N=40"
		inst, err := json.Marshal(instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, 1))
		if err != nil {
			return nil, err
		}
		solved := post("/v1/solve", []byte(`{"instance":`+string(inst)+`,"heuristic":"Subtree-bottom-up"}`))
		var sr serve.SolveResponse
		if err := json.Unmarshal(solved.Body.Bytes(), &sr); err != nil || sr.Best == nil {
			return nil, fmt.Errorf("%s: solve answered %d: %s", name, solved.Code, solved.Body.String())
		}
		body, err := json.Marshal(struct {
			Instance json.RawMessage   `json:"instance"`
			Mapping  serve.MappingSpec `json:"mapping"`
			Results  int               `json:"results"`
		}{inst, sr.Best.Mapping, 60})
		if err != nil {
			return nil, err
		}
		add(measure(name, 30*itersScale, true, func() {
			if rec := post("/v1/verify", body); rec.Code != 200 {
				panic(fmt.Sprintf("%s: status %d: %s", name, rec.Code, rec.Body.String()))
			}
		}))
		srv.Close()
	}

	// Multi-tenant sweep: the Grid engine over multiapp.Combine
	// workloads — two tenants per cell, one shared platform — serial and
	// deterministic, so it alloc-gates the combine+solve path of the
	// first multi-tenant harness.
	{
		g := multiTenantGrid()
		name := "sweep/multiapp/workers=1"
		add(measure(name, 6*itersScale, true, func() {
			if _, err := g.Cells(context.Background()); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	// Churn: a pinned dynamic scenario (arrivals, departures, rate
	// drift) answered by journaled local repair, and the same scenario
	// re-solved from scratch per event for comparison. Engine arenas
	// are reused across Run calls, so the steady-state event-answering
	// path alloc-gates; N counts the operators live at t=0.
	for _, c := range []struct {
		apps, ops, iters int
		seed             int64
		policy           churn.Policy
	}{
		{3, 20, 5, 3, churn.PolicyRepair},
		{4, 35, 3, 1, churn.PolicyRepair},
		{4, 35, 3, 1, churn.PolicyResolve},
	} {
		sc, e := churnScenario(c.apps, c.ops, c.seed, c.policy)
		name := fmt.Sprintf("churn/%s/N=%d", c.policy, c.apps*c.ops)
		// The engine's arenas (builder pool, solve context and its
		// winner arena, refiner buffers) take many full scenario replays
		// to reach their high-water marks; warm past them so allocs/op is
		// the true steady state regardless of the iteration count.
		for i := 0; i < 20; i++ {
			if _, err := e.Run(context.Background(), sc); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}
		add(measure(name, c.iters*itersScale, true, func() {
			if _, err := e.Run(context.Background(), sc); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	// Churn session: the end-to-end benchmark's churn-sessions workload
	// (4 applications of 25 operators, alpha 1.5, drift both ways up to
	// 1.6x, RhoMax 8, the default platform), one pinned 120-event
	// scenario replayed in process. Unlike the slow-CPU scenarios
	// above, its repairs run thousands of annealing steps per event.
	{
		sc, e := sessionScenario(rng.SeedFor(5, "e2ebench:churn:0:0"))
		name := "churn/session/N=100"
		for i := 0; i < 5; i++ {
			if _, err := e.Run(context.Background(), sc); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}
		add(measure(name, 2*itersScale, true, func() {
			if _, err := e.Run(context.Background(), sc); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		}))
	}

	return rep, nil
}

// sessionScenario is the scenario, and the repair engine answering it,
// that a churn-sessions session of cmd/e2ebench replays for the given
// scenario seed.
func sessionScenario(seed int64) (*churn.Scenario, *churn.Engine) {
	cfg := churn.ScenarioConfig{
		InitialApps: 4, Events: 120,
		MinOps: 25, MaxOps: 25,
		Drift: churn.DriftBoth, DriftMax: 1.6, RhoMax: 8,
	}
	cfg.Base.Alpha = 1.5
	sc := churn.NewScenario(cfg, seed)
	return sc, churn.NewEngine(churn.Options{Policy: churn.PolicyRepair, Seed: seed})
}

// churnScenario is the pinned churn benchmark workload: apps
// equal-sized applications on the slow-CPU CONSTR-HOM platform of the
// churn figure, six drift-heavy events, plus the engine that answers
// them. Seeds are chosen so the incumbent spans several processors and
// events genuinely migrate operators (not one-processor no-ops).
func churnScenario(apps, ops int, seed int64, policy churn.Policy) (*churn.Scenario, *churn.Engine) {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(0, 4)
	cfg := churn.ScenarioConfig{
		InitialApps: apps, Events: 6,
		MinOps: ops, MaxOps: ops,
		Rho: 1, RhoMax: 8,
		Drift: churn.DriftUp, DriftMax: 1.6,
	}
	cfg.Base.Platform = p
	cfg.Base.Alpha = 1.5
	sc := churn.NewScenario(cfg, seed)
	return sc, churn.NewEngine(churn.Options{Policy: policy, Seed: seed})
}

// multiTenantGrid is the pinned multi-tenant benchmark workload: two
// tenants (8 and 10 operators) per cell, the second's throughput target
// swept over {1, 2, 4}, on the shared default platform.
func multiTenantGrid() *experiments.Grid {
	base := instance.Generate(instance.Config{NumOps: 5}, 11)
	w := multiapp.Workload{
		NumTypes: base.NumTypes, Sizes: base.Sizes, Freqs: base.Freqs,
		Holders: base.Holders, Platform: base.Platform, Alpha: 1.0,
	}
	return &experiments.Grid{
		Heuristics: []string{"Subtree-bottom-up", "Comp-Greedy"},
		Xs:         []float64{1, 2, 4},
		Seeds:      2,
		BaseSeed:   1,
		Workers:    1,
		Make: func(env *experiments.WorkerEnv, x float64, seed int64) (*instance.Instance, error) {
			// Trees and the combined instance come from the worker's
			// arenas (same streams, byte-identical cells), so the entry
			// gates the whole multi-tenant cell at ~0 steady-state allocs.
			apps := []multiapp.App{
				{Tree: env.RandomTree(rng.SeedFor(seed, "dashboard"), 8, w.NumTypes), Rho: 1},
				{Tree: env.RandomTree(rng.SeedFor(seed, "alerting"), 10, w.NumTypes), Rho: x},
			}
			return env.Combine(apps, w)
		},
	}
}

// solveIters scales a solve entry's iteration count to its tree size so
// the big cells don't dominate harness wall-clock.
func solveIters(n int) int {
	switch {
	case n <= 140:
		return 30
	case n <= 300:
		return 10
	default:
		return 5
	}
}

// corpusNs and corpusAlphas are the canonical benchmark grid: the paper's
// evaluation sweeps tree size and computation exponent, and these pinned
// points cover its small/medium/large and sub/super-linear regimes. The
// N=300/600 cells (beyond the paper's N<=140 sweeps) became affordable
// once solve stopped allocating; they exist to expose O(N^2) hotspots
// such as TryPlace's affected-processor scans. At alpha=1.7 they fail
// Precheck immediately — a legitimate corpus outcome that pins the
// fast-reject path.
var (
	corpusNs     = []int{20, 60, 140, 300, 600}
	corpusAlphas = []float64{0.9, 1.7}
)

// corpusItem is one pinned instance of the canonical corpus.
type corpusItem struct {
	Seed int64
	Inst *instance.Instance
}

// corpusCell generates the (n, alpha) cell of the canonical corpus with
// seeds 1..seeds. The corpus is a pure function of its grid point and
// seed count — same instances on every machine, every run — so timings
// and allocation counts recorded against it are comparable across
// commits.
func corpusCell(n int, alpha float64, seeds int) []corpusItem {
	items := make([]corpusItem, seeds)
	for i := range items {
		seed := int64(i + 1)
		items[i] = corpusItem{Seed: seed, Inst: instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed)}
	}
	return items
}

// gateNs returns the entry's timing statistic used for gating: the
// median across samples — robust to a descheduled sample, unlike the
// mean, without the min's blind spot (samples rotate over corpus seeds,
// so the min only times the cheapest seed). The mean fallback guards
// degenerate (hand-edited) reports with a missing median; load()'s
// schema check keeps genuinely old reports out.
func gateNs(e *Entry) float64 {
	if e.NsMedian > 0 {
		return e.NsMedian
	}
	return e.NsPerOp
}

// tinyNsFloor exempts entries from the ns gate only while BOTH sides
// are sub-10us: such entries measure fixed dispatch overhead (e.g. the
// corpus cells that fail Precheck immediately), where scheduler jitter
// dwarfs any real regression. An entry that grows past the floor is
// gated again, so a fast-reject path turning into real work cannot
// ship silently; allocation counts always gate strictly.
const tinyNsFloor = 10_000.0

// compare loads two reports and fails on regressions: allocs/op growth
// beyond the noise floor on an alloc-gated entry, or calibration-
// normalized median-ns/op growth beyond nsThreshold on any entry above
// the tiny-entry floor. Unmatched entries are reported on both sides and
// both directions can fail: an entry missing from the results means a
// benchmark was dropped, and an alloc-gated entry missing from the
// baseline means the corpus grew — either way the committed baseline
// must be refreshed deliberately, not slip through silently.
func compare(basePath, resultPath string, nsThreshold float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	result, err := load(resultPath)
	if err != nil {
		return err
	}
	baseCal := find(base, calibrationName)
	resCal := find(result, calibrationName)
	if baseCal == nil || resCal == nil {
		return fmt.Errorf("missing %q entry (baseline: %v, results: %v)", calibrationName, baseCal != nil, resCal != nil)
	}
	failures := 0
	for i := range base.Entries {
		b := &base.Entries[i]
		if b.Name == calibrationName {
			continue
		}
		r := find(result, b.Name)
		if r == nil {
			fmt.Printf("%-16s %-44s (in baseline, not in results)\n", "MISSING", b.Name)
			failures++
			continue
		}
		// median ns/op (gateNs), normalized by each side's calibration spin.
		bn := gateNs(b) / gateNs(baseCal)
		rn := gateNs(r) / gateNs(resCal)
		ratio := rn / bn
		status := "ok"
		switch {
		case gateNs(b) < tinyNsFloor && gateNs(r) < tinyNsFloor:
			status = "ok (tiny)"
		case ratio > 1+nsThreshold:
			status = "NS-REGRESSION"
			failures++
		}
		fmt.Printf("%-16s %-44s norm-ns x%.3f  allocs %v -> %v\n", status, b.Name, ratio, b.AllocsPerO, r.AllocsPerO)
		// Alloc gate: any growth beyond the runtime's noise floor fails.
		// GC-timing-dependent pool refills jitter counts by a few
		// allocations run-to-run, so a handful of allocs of slack is
		// needed; real regressions arrive in tens.
		if slack := math.Max(8, 0.01*b.AllocsPerO); b.AllocGated && r.AllocsPerO > b.AllocsPerO+slack {
			fmt.Printf("%-16s %-44s allocs/op grew %v -> %v\n", "ALLOC-REGRESSION", b.Name, b.AllocsPerO, r.AllocsPerO)
			failures++
		}
	}
	for i := range result.Entries {
		r := &result.Entries[i]
		if r.Name == calibrationName || find(base, r.Name) != nil {
			continue
		}
		if r.AllocGated {
			fmt.Printf("%-16s %-44s (alloc-gated entry not in baseline; refresh the baseline to gate it)\n", "UNGATED-NEW", r.Name)
			failures++
		} else {
			fmt.Printf("%-16s %-44s (not in baseline; refresh it to gate this entry)\n", "NEW", r.Name)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d perf regression(s) versus %s", failures, basePath)
	}
	fmt.Printf("no regressions versus %s (ns threshold %.0f%%)\n", basePath, nsThreshold*100)
	return nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}

func find(rep *Report, name string) *Entry {
	for i := range rep.Entries {
		if rep.Entries[i].Name == name {
			return &rep.Entries[i]
		}
	}
	return nil
}
