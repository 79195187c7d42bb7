package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/instance"
	"repro/internal/platform"
)

// TestClassifyStrictAtBoundary pins the decision rule: a load exactly
// slack away from the limit is undecided on both sides, and NaN never
// decides.
func TestClassifyStrictAtBoundary(t *testing.T) {
	for _, c := range []struct {
		est, slack, limit float64
		want              estVerdict
	}{
		{1, 0.5, 1.5, undecided},
		{1, 0.5, math.Nextafter(1.5, 2), fits},
		{2, 0.5, 1.5, undecided},
		{math.Nextafter(2, 3), 0.5, 1.5, overflows},
		{1, 0, 1, undecided},
		{math.NaN(), 0, 1, undecided},
		{1, math.NaN(), 5, undecided},
		{math.Inf(1), math.Inf(1), 5, undecided},
	} {
		if got := classify(c.est, c.slack, c.limit); got != c.want {
			t.Errorf("classify(%v, %v, %v) = %v, want %v", c.est, c.slack, c.limit, got, c.want)
		}
	}
}

// TestEstimateDriftFallsBack drives a compute estimate through
// catastrophic cancellation: a 1e20-unit operator joins and leaves a
// processor hosting a small one, so the running sum loses the small
// load entirely. Only the error bound keeps the estimate from deciding
// the small load fits a capacity just below it; the probe must fall
// back to the exact walk and reject.
func TestEstimateDriftFallsBack(t *testing.T) {
	in := fixedInstance()
	in.W[0] = 1e20
	cat := in.Platform.Catalog
	cat.CPUs[0].SpeedGHz = in.Rho * in.W[1] * (1 - 1e-6) / platform.WorkUnitsPerGHz
	m := New(in)
	p := m.Buy(platform.Config{CPU: 0, NIC: len(cat.NICs) - 1})
	if !m.TryPlace(p) { // an empty probe makes the estimates live
		t.Fatal("empty probe must fit")
	}
	m.Place(0, p)
	m.Place(1, p)
	m.Unplace(0)
	m.Unplace(1)
	checks, fallbacks := WatchFallbacks(t)
	if m.TryPlace(p, 1) {
		t.Fatalf("TryPlace accepted compute load %v on capacity %v", in.Rho*in.W[1], cat.SpeedUnits(m.Procs[p].Config))
	}
	if checks[p] != 1 || fallbacks[p] != 1 {
		t.Fatalf("processor %d: %d checks, %d fallbacks; want the one check to fall back", p, checks[p], fallbacks[p])
	}
	if err := m.checkEstimates(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeTermVoidsEstimate pins the guard behind the error bound,
// which holds only for non-negative terms: a negative work value (which
// Instance.Validate excludes) voids its processor's estimate, so every
// later check of it falls back to the exact walk, even after the term
// has left the processor.
func TestNegativeTermVoidsEstimate(t *testing.T) {
	in := fixedInstance()
	in.W[0] = -1e6
	m := New(in)
	p := m.Buy(bestConfig(in))
	m.TryPlace(p)
	m.Place(0, p)
	m.Unplace(0)
	checks, fallbacks := WatchFallbacks(t)
	for op := 1; op < 3; op++ {
		if !m.TryPlace(p, op) {
			t.Fatalf("op %d must fit", op)
		}
	}
	if checks[p] == 0 || fallbacks[p] != checks[p] {
		t.Fatalf("processor %d: %d checks, %d fallbacks; want every check to fall back", p, checks[p], fallbacks[p])
	}
	if err := m.checkEstimates(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneProbesWithoutAllocating pins that a Clone carries no
// estimates (Clone's allocation count is unchanged) and rebuilds them
// on its first probe, after which probes stay allocation-free.
func TestCloneProbesWithoutAllocating(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 30, Alpha: 0.9}, 4)
	m := New(in)
	p := m.Buy(in.Platform.Catalog.MostExpensive())
	for op := 0; op < 20; op++ {
		if !m.TryPlace(p, op) {
			t.Fatalf("op %d must fit", op)
		}
	}
	c := m.Clone()
	if c.est != nil {
		t.Fatal("Clone copied the estimates")
	}
	q := c.Buy(in.Platform.Catalog.MostExpensive())
	c.TryPlace(q, 25)
	if !c.estLive() {
		t.Fatal("probe left the clone's estimates dead")
	}
	if err := c.checkEstimates(); err != nil {
		t.Fatal(err)
	}
	probe := func() {
		if c.TryPlace(q, 26) {
			c.Unplace(26)
		}
	}
	if n := testing.AllocsPerRun(50, probe); n != 0 {
		t.Fatalf("steady-state probe allocates %v/op", n)
	}
}

// probeFuzzInstance builds a random instance whose work values span up
// to 2^60 in magnitude (so running sums cancel catastrophically) on a
// two-by-two catalog whose capacities are exact partial sums of the
// instance's own loads (so probes land on capacity boundaries).
func probeFuzzInstance(seed int64, n int) *instance.Instance {
	in := instance.Generate(instance.Config{NumOps: n, NumTypes: 5, Alpha: 0.9}, seed)
	r := rand.New(rand.NewSource(seed))
	for op := range in.W {
		switch r.Intn(6) {
		case 0:
			in.W[op] *= 0x1p40
		case 1:
			in.W[op] *= 0x1p60
		}
	}
	subset := func(term func(i int) float64, count int) float64 {
		sum := 0.0
		for i := 0; i < count; i++ {
			if r.Intn(3) == 0 {
				sum += term(i)
			}
		}
		return sum
	}
	work := func(i int) float64 { return in.Rho * in.W[i] }
	traffic := func(i int) float64 { return in.EdgeTraffic(i) }
	rate := func(k int) float64 { return in.Rate(k) }
	cpu := []float64{subset(work, n), subset(work, n)}
	nic := []float64{subset(rate, in.NumTypes) + subset(traffic, n), subset(rate, in.NumTypes) + subset(traffic, n)}
	// Prices that are not dyadic, so that a cost summed in another order
	// than Cost's rounds differently.
	cat := &platform.Catalog{Base: 1.0 / 3}
	for i := 0; i < 2; i++ {
		cat.CPUs = append(cat.CPUs, platform.CPUOption{SpeedGHz: cpu[i] / platform.WorkUnitsPerGHz, Upcharge: 0.1 + 0.7*float64(i)})
		cat.NICs = append(cat.NICs, platform.NICOption{Gbps: nic[i] / platform.MBpsPerGbps, Upcharge: 0.2 + 0.3*float64(i)})
	}
	plat := *in.Platform
	plat.Catalog = cat
	plat.ProcLinkMBps = subset(traffic, n)
	in.Platform = &plat
	return in
}

// FuzzProbeEstimates runs random Buy, Place, Unplace, TryPlace,
// MoveAll, Sell, Checkpoint, Rollback and read-only move evaluation
// programs on probeFuzzInstance instances. Every probe's verdict must
// equal the reference TryPlace's on a clone, every evaluated move must
// pass checkEvalMove, and after every step CheckInvariants must pass
// and every alive processor's decided estimate must agree with the
// exact walk.
func FuzzProbeEstimates(f *testing.F) {
	f.Add(int64(1), uint8(12), []byte{0, 4, 4, 5, 4, 1, 3, 8, 4, 4, 0, 6, 9, 4, 7, 4, 2, 3, 4})
	f.Add(int64(9), uint8(30), []byte{0, 0, 4, 4, 4, 4, 4, 5, 5, 8, 3, 3, 4, 4, 6, 9, 9, 2, 4, 4, 1, 3, 4})
	f.Add(int64(-3), uint8(4), []byte{0, 8, 4, 4, 4, 8, 3, 4, 9, 4, 9, 4})
	f.Add(int64(5), uint8(25), []byte{0, 0, 4, 4, 4, 4, 4, 4, 10, 10, 10, 10, 0, 4, 4, 10, 10, 10, 5, 10, 10, 10, 10, 10})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		in := probeFuzzInstance(seed%1024, 1+int(n%40))
		N := in.Tree.NumOps()
		r := rand.New(rand.NewSource(seed))
		m := New(in)
		m.SetJournal(true)
		var marks []Mark
		for step, b := range prog {
			alive := AliveList(m)
			pick := func() int { return alive[r.Intn(len(alive))] }
			switch b % 11 {
			case 0:
				m.Buy(platform.Config{CPU: r.Intn(2), NIC: r.Intn(2)})
			case 1:
				if len(alive) > 0 {
					m.Place(r.Intn(N), pick())
				}
			case 2:
				m.Unplace(r.Intn(N))
			case 3, 4:
				if len(alive) > 0 {
					p, ops := pick(), []int{r.Intn(N)}
					for len(ops) < 3 && r.Intn(2) == 0 {
						if op := r.Intn(N); op != ops[len(ops)-1] {
							ops = append(ops, op)
						}
					}
					want := m.Clone().referenceTryPlace(p, ops)
					if got := m.TryPlace(p, ops...); got != want {
						t.Fatalf("step %d: TryPlace(%d, %v) = %v, reference %v", step, p, ops, got, want)
					}
				}
			case 5:
				if len(alive) >= 2 {
					from, to := pick(), pick()
					want := from != to && m.Clone().referenceTryPlace(to, m.AppendOpsOn(nil, from))
					if got := m.MoveAll(from, to); got != want {
						t.Fatalf("step %d: MoveAll(%d, %d) = %v, reference %v", step, from, to, got, want)
					}
				}
			case 6:
				for _, p := range alive {
					if m.NumOpsOn(p) == 0 {
						m.Sell(p)
						break
					}
				}
			case 7, 8:
				marks = append(marks, m.Checkpoint())
			case 9:
				if k := len(marks); k > 0 {
					m.Rollback(marks[k-1])
					marks = marks[:k-1]
				}
			case 10:
				if len(alive) > 0 {
					if err := checkEvalMove(m, r, alive); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := m.checkEstimates(); err != nil {
				t.Fatalf("step %d (action %d): %v", step, b%11, err)
			}
		}
	})
}

// checkEvalMove evaluates a random move read-only — a few operators onto
// an alive processor or a fresh buy, or a whole-processor merge, with a
// random configuration — and fails unless the mapping and its
// estimates are left unchanged, a decided verdict is the reference
// TryPlace's on a clone carrying the move's configuration swap or fresh
// buy, and a priced move's refit configurations and cost equal, bit for
// bit, those of the move applied to that clone, refit and priced by
// Cost.
func checkEvalMove(m *Mapping, r *rand.Rand, alive []int) error {
	N := m.Inst.Tree.NumOps()
	cfg := platform.Config{CPU: r.Intn(2), NIC: r.Intn(2)}
	before := fmt.Sprint(m.Assign, m.Procs, m.opsOn, m.objRef)
	live := m.estLive()
	est := fmt.Sprint(m.est)
	var p int
	var ops []int
	var ev MoveEval
	switch r.Intn(3) {
	case 0, 1: // a move onto an alive processor, or a split onto a fresh buy
		p = alive[r.Intn(len(alive))]
		if r.Intn(2) == 0 {
			p = len(m.Procs)
		}
		ops = []int{r.Intn(N)}
		for len(ops) < 3 && r.Intn(2) == 0 {
			ops = append(ops, r.Intn(N))
		}
		ev = m.EvalMove(p, cfg, ops)
	default:
		from := alive[r.Intn(len(alive))]
		p = alive[r.Intn(len(alive))]
		if from == p {
			return nil
		}
		ops = m.AppendOpsOn(nil, from)
		ev = m.EvalMerge(from, p, cfg)
	}
	if after := fmt.Sprint(m.Assign, m.Procs, m.opsOn, m.objRef); after != before {
		return fmt.Errorf("EvalMove(%d, %v, %v) changed the mapping:\n%s\n%s", p, cfg, ops, before, after)
	}
	if live && fmt.Sprint(m.est) != est {
		return fmt.Errorf("EvalMove(%d, %v, %v) changed the estimates", p, cfg, ops)
	}
	if s := m.scr; s != nil && (slices.ContainsFunc(s.dOps, func(d int) bool { return d != 0 }) ||
		slices.ContainsFunc(s.dRef, func(d int32) bool { return d != 0 })) {
		return fmt.Errorf("EvalMove(%d, %v, %v) left an operator-count or refcount change behind", p, cfg, ops)
	}
	if ev.Verdict == Undecided {
		return nil
	}
	var srcs []int
	for _, op := range ops {
		if q := m.Assign[op]; q != p && q != Unassigned && !slices.Contains(srcs, q) {
			srcs = append(srcs, q)
		}
	}
	c := moveClone(m, p, cfg)
	if ok := c.referenceTryPlace(p, ops); ok != (ev.Verdict == Feasible) {
		return fmt.Errorf("EvalMove(%d, %v, %v) = %v, reference TryPlace %v", p, cfg, ops, ev.Verdict, ok)
	}
	if !ev.Priced {
		return nil
	}
	for _, q := range srcs {
		if c.NumOpsOn(q) == 0 {
			c.Sell(q)
		} else {
			c.Refit(q)
		}
	}
	c.Refit(p)
	var want []Refit
	for _, q := range append(srcs, p) {
		if c.Procs[q].Alive {
			want = append(want, Refit{P: q, Cfg: c.Procs[q].Config})
		} else {
			want = append(want, Refit{P: q, Sold: true})
		}
	}
	if !slices.Equal(ev.Refits, want) {
		return fmt.Errorf("EvalMove(%d, %v, %v) refits %v, the applied move %v", p, cfg, ops, ev.Refits, want)
	}
	if got, want := math.Float64bits(ev.Cost), math.Float64bits(c.Cost()); got != want {
		return fmt.Errorf("EvalMove(%d, %v, %v) costs %v, the applied move %v", p, cfg, ops, ev.Cost, c.Cost())
	}
	return nil
}
