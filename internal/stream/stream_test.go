package stream

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/apptree"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
)

// paperInstance is the Figure 1(a) tree with sizes {10,20,30} MB, f=1/2,
// alpha=1, rho=1 (same fixture as the mapping tests).
func paperInstance() *instance.Instance {
	t := &apptree.Tree{}
	t.Ops = make([]apptree.Operator, 5)
	t.Root = 3
	t.Ops[3] = apptree.Operator{Parent: apptree.NoParent, ChildOps: []int{4, 2}}
	t.Ops[4] = apptree.Operator{Parent: 3, ChildOps: []int{1, 0}}
	t.Ops[2] = apptree.Operator{Parent: 3}
	t.Ops[1] = apptree.Operator{Parent: 4}
	t.Ops[0] = apptree.Operator{Parent: 4}
	addLeaf := func(op, obj int) {
		li := len(t.Leaves)
		t.Leaves = append(t.Leaves, apptree.Leaf{Object: obj, Parent: op})
		t.Ops[op].Leaves = append(t.Ops[op].Leaves, li)
	}
	addLeaf(1, 0)
	addLeaf(0, 0)
	addLeaf(0, 1)
	addLeaf(2, 1)
	addLeaf(2, 2)
	in := &instance.Instance{
		Tree:     t,
		NumTypes: 3,
		Sizes:    []float64{10, 20, 30},
		Freqs:    []float64{0.5, 0.5, 0.5},
		Holders:  [][]int{{0}, {0, 1}, {2}},
		Platform: platform.DefaultPlatform(),
		Rho:      1,
		Alpha:    1,
	}
	in.Refresh()
	return in
}

func onePlacement(in *instance.Instance) *mapping.Mapping {
	m := mapping.New(in)
	p := m.Buy(in.Platform.Catalog.MostExpensive())
	for op := range in.Tree.Ops {
		m.Place(op, p)
	}
	for _, k := range neededObjects(m, p) {
		m.SelectServer(p, k, in.Holders[k][0])
	}
	return m
}

func TestSingleProcessorThroughput(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	rep, err := Simulate(m, Options{Results: 200})
	if err != nil {
		t.Fatal(err)
	}
	// One processor, no transfers: steady state is work-conserving, so
	// throughput = speed / total work = 281280 / 220 = 1278.5 results/s.
	want := 281280.0 / 220.0
	if math.Abs(rep.Throughput-want)/want > 0.05 {
		t.Fatalf("throughput = %v, want ~%v", rep.Throughput, want)
	}
	if math.Abs(rep.Analytic-want)/want > 1e-9 {
		t.Fatalf("analytic = %v, want %v", rep.Analytic, want)
	}
}

// twoProcPlacement puts n3 alone on a second processor, so operator 2's
// output crosses a link on every result.
func twoProcPlacement(in *instance.Instance) *mapping.Mapping {
	m := mapping.New(in)
	p := m.Buy(in.Platform.Catalog.MostExpensive())
	q := m.Buy(in.Platform.Catalog.MostExpensive())
	for _, op := range []int{0, 1, 3, 4} {
		m.Place(op, p)
	}
	m.Place(2, q)
	for _, pp := range []int{p, q} {
		for _, k := range neededObjects(m, pp) {
			m.SelectServer(pp, k, in.Holders[k][0])
		}
	}
	return m
}

func TestTransferBottleneck(t *testing.T) {
	// n3 alone on a second processor: the crossing edge carries delta=50 MB
	// per result over a 1000 MB/s link, one transfer at a time, capping
	// throughput at 20 results/s.
	m := twoProcPlacement(paperInstance())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(m, Options{Results: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Analytic-20) > 1e-6 {
		t.Fatalf("analytic = %v, want 20", rep.Analytic)
	}
	if math.Abs(rep.Throughput-20)/20 > 0.10 {
		t.Fatalf("throughput = %v, want ~20", rep.Throughput)
	}
}

func TestMeetsRhoOnHeuristicMappings(t *testing.T) {
	// The headline validation (experiment V1): every feasible mapping a
	// heuristic produces sustains the target throughput dynamically.
	for seed := int64(0); seed < 4; seed++ {
		in := instance.Generate(instance.Config{NumOps: 20, Alpha: 1.3}, seed)
		for _, h := range heuristics.All() {
			res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
			if err != nil {
				continue
			}
			rep, err := Simulate(res.Mapping, Options{Results: 90})
			if err != nil {
				t.Fatalf("%s seed %d: %v", h.Name(), seed, err)
			}
			if rep.Analytic < in.Rho-1e-6 {
				t.Fatalf("%s seed %d: analytic max %v below rho %v", h.Name(), seed, rep.Analytic, in.Rho)
			}
			if !MeetsTarget(rep.Throughput, in.Rho) {
				t.Fatalf("%s seed %d: measured throughput %v misses rho %v", h.Name(), seed, rep.Throughput, in.Rho)
			}
		}
	}
}

// TestSimulateBatchMatchesSerial asserts the fan-out returns the exact
// reports of one-at-a-time simulation, in input order, at several
// worker counts.
func TestSimulateBatchMatchesSerial(t *testing.T) {
	var ms []*mapping.Mapping
	for seed := int64(0); seed < 4; seed++ {
		in := instance.Generate(instance.Config{NumOps: 15, Alpha: 1.1}, seed)
		res, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: seed})
		if err != nil {
			continue
		}
		ms = append(ms, res.Mapping)
	}
	if len(ms) < 2 {
		t.Fatal("not enough feasible mappings")
	}
	opt := Options{Results: 50}
	want := make([]*Report, len(ms))
	for i, m := range ms {
		rep, err := Simulate(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	for _, workers := range []int{1, 4} {
		reps, errs := SimulateBatch(context.Background(), ms, opt, workers)
		for i := range ms {
			if errs[i] != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, errs[i])
			}
			if reps[i].Throughput != want[i].Throughput || reps[i].Events != want[i].Events {
				t.Fatalf("workers=%d item %d: batch %+v, serial %+v", workers, i, reps[i], want[i])
			}
		}
	}
}

func TestSimulateBatchCancelled(t *testing.T) {
	in := paperInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps, errs := SimulateBatch(ctx, []*mapping.Mapping{onePlacement(in), onePlacement(in)}, Options{}, 2)
	for i := range reps {
		if reps[i] != nil || errs[i] == nil {
			t.Fatalf("item %d ran under a cancelled context", i)
		}
	}
}

func TestAnalyticZeroOnServerOverload(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	in.Platform.Servers[0].NICMBps = 1 // downloads exceed the server NIC
	if got := AnalyticMaxThroughput(m); got != 0 {
		t.Fatalf("analytic = %v, want 0", got)
	}
}

func TestIncompleteMappingRejected(t *testing.T) {
	in := paperInstance()
	m := mapping.New(in)
	if _, err := Simulate(m, Options{}); err == nil {
		t.Fatal("incomplete mapping accepted")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	in := paperInstance()
	a, err := Simulate(onePlacement(in), Options{Results: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(onePlacement(in), Options{Results: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.SimTime != b.SimTime {
		t.Fatal("simulation is not deterministic")
	}
}

func TestCreditsLimitPipelineDepth(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	rep, err := Simulate(m, Options{Results: 60, Credits: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With depth-1 credits the pipeline still progresses (no deadlock)
	// and throughput is positive.
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput)
	}
}

// TestContradictoryWarmupRejected pins the options fix: an explicit
// Warmup that leaves no measured results is an error, not a silent guess.
func TestContradictoryWarmupRejected(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	for _, opt := range []Options{
		{Results: 50, Warmup: 50},
		{Results: 50, Warmup: 80},
		{Warmup: 120}, // default Results = 120
	} {
		if _, err := Simulate(m, opt); err == nil {
			t.Fatalf("Options %+v accepted; want contradictory-warmup error", opt)
		}
	}
	if _, err := Simulate(m, Options{Results: 50, Warmup: 49}); err != nil {
		t.Fatalf("Warmup just under Results rejected: %v", err)
	}
}

// TestResultsBeyondEventBudgetRejected pins that Options refuse a run
// that could never finish: every result costs an event, so Results
// above MaxEvents (default 2,000,000) is an error from Check and from
// Simulate, before any buffer is sized for it.
func TestResultsBeyondEventBudgetRejected(t *testing.T) {
	m := onePlacement(paperInstance())
	for _, opt := range []Options{
		{Results: 2_000_001},
		{Results: 1 << 40},
		{Results: 60, MaxEvents: 59},
	} {
		if err := opt.Check(); err == nil {
			t.Fatalf("Options %+v passed Check; want event-budget error", opt)
		}
		if _, err := Simulate(m, opt); err == nil {
			t.Fatalf("Options %+v simulated; want event-budget error", opt)
		}
	}
	for _, opt := range []Options{{}, {Results: 2_000_000}, {Results: 60, MaxEvents: 60}} {
		if err := opt.Check(); err != nil {
			t.Fatalf("Options %+v refused: %v", opt, err)
		}
	}
}

// TestMeetsTargetBoundary pins the QoS verdict's exact boundary: a
// measurement of exactly 0.9*rho passes and the next float below fails.
func TestMeetsTargetBoundary(t *testing.T) {
	for _, rho := range []float64{1, 0.3, 2.5, 17} {
		edge := 0.9 * rho
		if !MeetsTarget(edge, rho) {
			t.Errorf("rho %v: %v misses, want it to pass", rho, edge)
		}
		if below := math.Nextafter(edge, 0); MeetsTarget(below, rho) {
			t.Errorf("rho %v: %v passes, want it to miss", rho, below)
		}
		if !MeetsTarget(math.Inf(1), rho) {
			t.Errorf("rho %v: an unbounded measurement misses", rho)
		}
	}
}

// TestRunnerMatchesSimulate checks the reusable engine returns the exact
// report of the one-shot path, across mappings and repeated runs.
func TestRunnerMatchesSimulate(t *testing.T) {
	r := NewRunner()
	for seed := int64(0); seed < 4; seed++ {
		in := instance.Generate(instance.Config{NumOps: 18, Alpha: 1.2}, seed)
		res, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: seed})
		if err != nil {
			continue
		}
		want, err := Simulate(res.Mapping, Options{Results: 60})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := r.Simulate(res.Mapping, Options{Results: 60})
			if err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Fatalf("seed %d run %d: runner %+v, simulate %+v", seed, rep, got, *want)
			}
		}
	}
}

// TestCopiedRunnerReanchors checks a copied Runner, which shares the
// original's buffers, rebinds them on its next call and reproduces the
// original's report exactly.
func TestCopiedRunnerReanchors(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	r := NewRunner()
	want, err := r.Simulate(m, Options{Results: 50})
	if err != nil {
		t.Fatal(err)
	}
	cp := *r
	got, err := cp.Simulate(m, Options{Results: 50})
	if err != nil {
		t.Fatalf("copied runner: %v", err)
	}
	if got != want {
		t.Fatalf("copied runner report %+v, original %+v", got, want)
	}
}

// TestRunnerZeroAllocs pins the tentpole property: repeated simulations on
// a warmed Runner allocate nothing.
func TestRunnerZeroAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 1.1}, 1)
	res, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	opt := Options{Results: 60}
	if _, err := r.Simulate(res.Mapping, opt); err != nil { // warm every buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Simulate(res.Mapping, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Runner.Simulate allocates %v per run, want 0", allocs)
	}
}

func TestThroughputScalesWithSpeed(t *testing.T) {
	in := paperInstance()
	m := onePlacement(in)
	fast, err := Simulate(m, Options{Results: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Same mapping on the slowest CPU: throughput scales by 11.72/46.88.
	m.Procs[0].Config = platform.Config{CPU: 0, NIC: 4}
	slow, err := Simulate(m, Options{Results: 100})
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Throughput / fast.Throughput
	want := 11.72 / 46.88
	if math.Abs(ratio-want)/want > 0.05 {
		t.Fatalf("speed scaling ratio = %v, want ~%v", ratio, want)
	}
}

// TestNonFiniteWorkOrSize pins the engine's input contract: an infinite,
// NaN or negative operator work or output size, or a completion time
// that overflows, is an error from Simulate and from every
// SimulateBatch slot — never a panic, which inside the batch's
// goroutines would kill the process — while a huge finite value still
// simulates to its pinned report.
func TestNonFiniteWorkOrSize(t *testing.T) {
	cases := []struct {
		name   string
		place  func(*instance.Instance) *mapping.Mapping
		mutate func(*instance.Instance)
		want   *Report // nil: an error containing errSub is expected
		errSub string
	}{
		{"W=+Inf", onePlacement, func(in *instance.Instance) { in.W[1] = math.Inf(1) }, nil, "must be finite and non-negative"},
		{"W=NaN", onePlacement, func(in *instance.Instance) { in.W[1] = math.NaN() }, nil, "must be finite and non-negative"},
		{"W=-1", onePlacement, func(in *instance.Instance) { in.W[1] = -1 }, nil, "must be finite and non-negative"},
		{"Delta=+Inf", twoProcPlacement, func(in *instance.Instance) { in.Delta[2] = math.Inf(1) }, nil, "must be finite and non-negative"},
		{"Delta=NaN", twoProcPlacement, func(in *instance.Instance) { in.Delta[2] = math.NaN() }, nil, "must be finite and non-negative"},
		{"W=1e308 on a 1e-9 GHz CPU", onePlacement, func(in *instance.Instance) {
			in.W[1] = 1e308 // finite, but 1e308 work units at this speed overflow the clock
			cpus := in.Platform.Catalog.CPUs
			cpus[len(cpus)-1].SpeedGHz = 1e-9
		}, nil, "completion time overflows"},
		{"W=1e308", onePlacement, func(in *instance.Instance) { in.W[1] = 1e308 }, &Report{
			Throughput: math.Float64frombits(0x011edcdc7ff93404),
			Analytic:   math.Float64frombits(0x011edcdc7ff93404),
			Completed:  30,
			SimTime:    math.Float64frombits(0x7f0f1b000a58bdd1),
			Events:     165,
		}, ""},
		{"Delta=1e308", twoProcPlacement, func(in *instance.Instance) { in.Delta[2] = 1e308 }, &Report{
			Throughput: math.Float64frombits(0x009c16c5c5253570),
			Analytic:   math.Float64frombits(0x009c16c5c5253575),
			Completed:  30,
			SimTime:    math.Float64frombits(0x7f9116ac579aac20),
			Events:     224,
		}, ""},
	}
	opt := Options{Results: 30}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := paperInstance()
			m := c.place(in)
			c.mutate(in)
			rep, err := Simulate(m, opt)
			reps, errs := SimulateBatch(context.Background(), []*mapping.Mapping{m, m}, opt, 2)
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), c.errSub) {
					t.Fatalf("Simulate: %v, want an error containing %q", err, c.errSub)
				}
				for i := range errs {
					if errs[i] == nil || !strings.Contains(errs[i].Error(), c.errSub) {
						t.Fatalf("SimulateBatch slot %d: %v, want an error containing %q", i, errs[i], c.errSub)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if *rep != *c.want {
				t.Fatalf("report %+v, want %+v", *rep, *c.want)
			}
			for i := range errs {
				if errs[i] != nil || *reps[i] != *c.want {
					t.Fatalf("SimulateBatch slot %d: %v, %v", i, reps[i], errs[i])
				}
			}
		})
	}
}

// neededObjects is the sorted set of object types the operators on p
// download, recounted from the placement: a test-only stand-in for the
// query the mapping package no longer carries.
func neededObjects(m *mapping.Mapping, p int) []int {
	var out []int
	for _, op := range m.AppendOpsOn(nil, p) {
		for _, li := range m.Inst.Tree.Ops[op].Leaves {
			if k := m.Inst.Tree.Leaves[li].Object; !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	slices.Sort(out)
	return out
}
