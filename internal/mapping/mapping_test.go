package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/platform"
)

// AliveList lists the processors not yet sold, ascending. It is test-only;
// the external test package reaches it too.
func AliveList(m *Mapping) []int {
	var out []int
	for p := range m.Procs {
		if m.Procs[p].Alive {
			out = append(out, p)
		}
	}
	return out
}

// fixedInstance builds a hand-checkable instance: the paper's Figure 1(a)
// tree with object sizes {10, 20, 30} MB, frequency 1/2 s, alpha = 1,
// rho = 1, objects held as o1->{S0}, o2->{S0,S1}, o3->{S2}.
func fixedInstance() *instance.Instance {
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
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

func bestConfig(in *instance.Instance) platform.Config {
	return in.Platform.Catalog.MostExpensive()
}

func TestBuySellPlace(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	if len(AliveList(m)) != 1 {
		t.Fatal("bought processor not alive")
	}
	m.Place(0, p)
	m.Place(1, p)
	if got := m.AppendOpsOn(nil, p); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AppendOpsOn = %v", got)
	}
	if m.Complete() {
		t.Fatal("mapping should not be complete")
	}
	m.Unplace(0)
	m.Unplace(1)
	m.Sell(p)
	if len(AliveList(m)) != 0 {
		t.Fatal("sold processor still alive")
	}
}

func TestSellNonEmptyPanics(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	m.Place(0, p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic selling non-empty processor")
		}
	}()
	m.Sell(p)
}

func TestComputeLoad(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	m.Place(0, p) // n1: w = 10+20 = 30 (alpha=1)
	m.Place(2, p) // n3: w = 20+30 = 50
	if got := m.ComputeLoad(p); math.Abs(got-80) > 1e-9 {
		t.Fatalf("ComputeLoad = %v, want 80", got)
	}
}

func TestNeededObjectsAndDownloadLoad(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	m.Place(0, p) // needs o1, o2
	m.Place(1, p) // needs o1 (shared with op 0: downloaded once)
	objs := m.NeededObjects(p)
	if len(objs) != 2 || objs[0] != 0 || objs[1] != 1 {
		t.Fatalf("NeededObjects = %v, want [0 1]", objs)
	}
	// rates: o1 = 10*0.5 = 5, o2 = 20*0.5 = 10.
	if got := m.DownloadLoad(p); math.Abs(got-15) > 1e-9 {
		t.Fatalf("DownloadLoad = %v, want 15", got)
	}
}

func TestCommLoadAndLinkTraffic(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	q := m.Buy(bestConfig(in))
	// n1 (delta=30) on p, its parent n5 (delta=40) on q, n2 (delta=10) on q.
	m.Place(0, p)
	m.Place(4, q)
	m.Place(1, q)
	// p: sends delta(n1)=30 to parent on q. No children of n1.
	if got := m.CommLoad(p); math.Abs(got-30) > 1e-9 {
		t.Fatalf("CommLoad(p) = %v, want 30", got)
	}
	// q: n5 receives from n1 (30); n2's parent n5 is local; n5's parent n4
	// is unassigned and does not count; n2 has no operator children.
	if got := m.CommLoad(q); math.Abs(got-30) > 1e-9 {
		t.Fatalf("CommLoad(q) = %v, want 30", got)
	}
	// Worst-case static requirement for {n5, n2, n1}: downloads of o1
	// (rate 5) and o2 (rate 10) plus boundary edge n5->n4 (delta 40).
	if got := m.StaticNICReq(4, 1, 0); math.Abs(got-55) > 1e-9 {
		t.Fatalf("StaticNICReq = %v, want 55", got)
	}
	if got, rev := m.LinkTraffic(p, q), m.LinkTraffic(q, p); math.Abs(got-30) > 1e-9 || math.Abs(got-rev) > 1e-9 {
		t.Fatalf("LinkTraffic = %v / %v, want symmetric 30", got, rev)
	}
	if m.LinkTraffic(p, p) != 0 {
		t.Fatal("self link traffic must be 0")
	}
	// Now place n4 (root) on p: n5 on q sends delta(n5)=40 up to p, and n4
	// receives from n3 (unassigned, not counted).
	m.Place(3, p)
	if got := m.LinkTraffic(p, q); math.Abs(got-70) > 1e-9 {
		t.Fatalf("LinkTraffic after root = %v, want 70", got)
	}
}

func TestTryPlaceRollback(t *testing.T) {
	in := fixedInstance()
	in.Alpha = 3 // root work = (40+50)^3 = 729000 units > fastest 468800
	in.Refresh()
	m := New(in)
	p := m.Buy(bestConfig(in))
	if m.TryPlace(p, 3) {
		t.Fatal("root should not fit any processor at alpha=3")
	}
	if m.OpProc(3) != Unassigned {
		t.Fatal("failed TryPlace did not roll back")
	}
	// n2 alone is tiny and fits.
	if !m.TryPlace(p, 1) {
		t.Fatal("n2 should fit")
	}
	if m.OpProc(1) != p {
		t.Fatal("successful TryPlace did not commit")
	}
}

func TestTryPlaceDetectsNeighbourOverload(t *testing.T) {
	// Build a platform with tiny proc-proc links so that placing a parent
	// elsewhere overloads the link, even though each processor is fine.
	in := fixedInstance()
	in.Platform = platform.DefaultPlatform()
	in.Platform.ProcLinkMBps = 10 // delta(n1)=30 > 10
	in.Refresh()
	m := New(in)
	p := m.Buy(bestConfig(in))
	q := m.Buy(bestConfig(in))
	if !m.TryPlace(p, 0) {
		t.Fatal("n1 alone must fit")
	}
	if m.TryPlace(q, 4) {
		t.Fatal("placing parent across a 10 MB/s link must fail (needs 30)")
	}
	if m.OpProc(4) != Unassigned {
		t.Fatal("rollback failed")
	}
}

func fullValidMapping(t *testing.T, in *instance.Instance) *Mapping {
	t.Helper()
	m := New(in)
	p := m.Buy(bestConfig(in))
	for op := range in.Tree.Ops {
		if !m.TryPlace(p, op) {
			t.Fatalf("op %d does not fit single processor", op)
		}
	}
	for _, k := range m.NeededObjects(p) {
		m.SelectServer(p, k, in.Holders[k][0])
	}
	return m
}

func TestValidateAcceptsGoodMapping(t *testing.T) {
	in := fixedInstance()
	m := fullValidMapping(t, in)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	if got := m.Cost(); got != 7548+5299+5999 {
		t.Fatalf("Cost = %v", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	in := fixedInstance()

	// Unassigned operator.
	m := New(in)
	if m.Validate() == nil {
		t.Fatal("unassigned operators not caught")
	}

	// Missing download.
	m = fullValidMapping(t, in)
	delete(m.DL[0], 0)
	if m.Validate() == nil {
		t.Fatal("missing download not caught")
	}

	// Download from a server that does not hold the object (o3 only on S2).
	m = fullValidMapping(t, in)
	m.SelectServer(0, 2, 0)
	if m.Validate() == nil {
		t.Fatal("wrong holder not caught")
	}

	// Spurious download.
	m = fullValidMapping(t, in)
	m.SelectServer(0, 2, 2) // already selected; add an unneeded one
	m.DL[0][99] = 0
	if m.Validate() == nil {
		t.Fatal("spurious download not caught")
	}

	// Compute overload: tiny CPU.
	m = fullValidMapping(t, in)
	m.Procs[0].Config = platform.Config{CPU: 0, NIC: 4}
	// total work = 30+10+50+40+90 = 220 units; still fits 117200 units/s,
	// so shrink the platform budget instead via rho.
	// total work = 220 units; rho=1000 gives a 220,000 units/s load that
	// fits the 46.88 GHz CPU (468,800) but not the 11.72 GHz one (117,200).
	in2 := fixedInstance()
	in2.Rho = 1000
	in2.Refresh()
	m2 := fullValidMapping(t, in2)
	m2.Procs[0].Config = platform.Config{CPU: 0, NIC: 4}
	if m2.Validate() == nil {
		t.Fatal("compute overload not caught")
	}

	// NIC overload: downloads exceed the 1 Gbps card.
	in3 := fixedInstance()
	in3.Freqs = []float64{10, 10, 10} // rates 100,200,300 MB/s; sum=600 > 125
	in3.Refresh()
	m3 := fullValidMapping(t, in3)
	m3.Procs[0].Config = platform.Config{CPU: 4, NIC: 0}
	if m3.Validate() == nil {
		t.Fatal("NIC overload not caught")
	}

	// Server NIC overload.
	in4 := fixedInstance()
	in4.Platform.Servers[0].NICMBps = 1
	m4 := fullValidMapping(t, in4)
	if m4.Validate() == nil {
		t.Fatal("server NIC overload not caught")
	}

	// Server link overload.
	in5 := fixedInstance()
	in5.Platform.ServerLinkMBps = 1
	m5 := fullValidMapping(t, in5)
	if m5.Validate() == nil {
		t.Fatal("server link overload not caught")
	}
}

func TestValidateCatchesProcLinkOverload(t *testing.T) {
	in := fixedInstance()
	in.Platform.ProcLinkMBps = 10
	m := New(in)
	p := m.Buy(bestConfig(in))
	q := m.Buy(bestConfig(in))
	for _, op := range []int{0, 1} {
		m.Place(op, p)
	}
	for _, op := range []int{2, 3, 4} {
		m.Place(op, q) // edge n1->n5 crosses with 30 MB/s > 10
	}
	for _, pp := range []int{p, q} {
		for _, k := range m.NeededObjects(pp) {
			m.SelectServer(pp, k, in.Holders[k][0])
		}
	}
	if m.Validate() == nil {
		t.Fatal("proc-proc link overload not caught")
	}
}

func TestCloneIndependence(t *testing.T) {
	in := fixedInstance()
	m := fullValidMapping(t, in)
	c := m.Clone()
	c.Unplace(0)
	c.DL[0][0] = 5
	if m.OpProc(0) == Unassigned {
		t.Fatal("clone mutation leaked into original assignment")
	}
	if m.DL[0][0] == 5 {
		t.Fatal("clone mutation leaked into original downloads")
	}
}

func TestServerLoadAccounting(t *testing.T) {
	in := fixedInstance()
	m := fullValidMapping(t, in)
	// All three objects downloaded: o1 from S0 (rate 5), o2 from S0 (10),
	// o3 from S2 (15).
	if got := m.ServerLoad(0); math.Abs(got-15) > 1e-9 {
		t.Fatalf("ServerLoad(0) = %v, want 15", got)
	}
	if got := m.ServerLoad(1); got != 0 {
		t.Fatalf("ServerLoad(1) = %v, want 0", got)
	}
	if got := m.ServerLoad(2); math.Abs(got-15) > 1e-9 {
		t.Fatalf("ServerLoad(2) = %v, want 15", got)
	}
	if got := m.ServerLinkLoad(0, 0); math.Abs(got-15) > 1e-9 {
		t.Fatalf("ServerLinkLoad(0,0) = %v, want 15", got)
	}
}

// TestServerLoadBitStable: with several downloads from one server whose
// sum rounds differently by order, ServerLoad and ServerLinkLoad give
// the same bits on every call, namely the object-order sum Validate
// adds. Summing in map order let the last bit vary from call to call.
func TestServerLoadBitStable(t *testing.T) {
	in := fixedInstance()
	in.Holders = [][]int{{0}, {0, 1}, {0, 2}}
	m := fullValidMapping(t, in)
	in.Sizes = []float64{0.1, 0.2, 0.3} // (0.1+0.2)+0.3 != 0.1+(0.2+0.3)
	in.Freqs = []float64{1, 1, 1}
	if len(m.DL[0]) != 3 {
		t.Fatalf("%d downloads, want 3", len(m.DL[0]))
	}
	want := 0.0
	for k := range in.NumTypes {
		want += in.Rate(k)
	}
	for i := 0; i < 200; i++ {
		if got := m.ServerLoad(0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: ServerLoad(0) = %v, want the object-order sum %v", i, got, want)
		}
		if got := m.ServerLinkLoad(0, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: ServerLinkLoad(0, 0) = %v, want the object-order sum %v", i, got, want)
		}
	}
}

func TestCompact(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	dead := m.Buy(bestConfig(in))
	m.Sell(dead)
	q := m.Buy(bestConfig(in))
	m.Place(0, p)
	m.Place(1, q)
	procs, ops, _ := m.Compact()
	if len(procs) != 2 {
		t.Fatalf("Compact returned %d processors, want 2", len(procs))
	}
	if len(ops[0]) != 1 || ops[0][0] != 0 || len(ops[1]) != 1 || ops[1][0] != 1 {
		t.Fatalf("Compact ops = %v", ops)
	}
}

func TestGeneratedInstanceSingleProcessor(t *testing.T) {
	// Integration: a small generated instance fits on one big processor
	// and passes full validation with first-holder server selection.
	in := instance.Generate(instance.Config{NumOps: 10, Alpha: 0.9}, 42)
	m := fullValidMapping(t, in)
	if err := m.Validate(); err != nil {
		t.Fatalf("generated instance mapping invalid: %v", err)
	}
}

// TestIncrementalMatchesFresh is the differential property test behind
// the incremental-load rebuild: after arbitrary random sequences of
// Buy/Sell/Place/Unplace/TryPlace/MoveAll, every cached per-processor
// load must equal a fresh full-walk re-summation bit-for-bit, the
// adjacency state must re-derive exactly from the Assign vector
// (CheckInvariants), and the public queries must agree with reference
// implementations computed from first principles.
func TestIncrementalMatchesFresh(t *testing.T) {
	for _, n := range []int{1, 4, 12, 40, 90} {
		for seed := int64(1); seed <= 4; seed++ {
			in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, seed)
			r := rand.New(rand.NewSource(seed*1000 + int64(n)))
			m := New(in)
			check := func(step string) {
				t.Helper()
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("N=%d seed=%d after %s: %v", n, seed, step, err)
				}
				for p := range m.Procs {
					if got, want := m.NumOpsOn(p), len(m.AppendOpsOn(nil, p)); got != want {
						t.Fatalf("N=%d seed=%d after %s: NumOpsOn(%d)=%d, AppendOpsOn len %d", n, seed, step, p, got, want)
					}
					// NeededObjects must match a fresh recount of the
					// leaf objects of the operators on p.
					fresh := map[int]bool{}
					for _, op := range m.AppendOpsOn(nil, p) {
						for _, k := range in.Tree.LeafObjects(op) {
							fresh[k] = true
						}
					}
					got := m.NeededObjects(p)
					if len(got) != len(fresh) {
						t.Fatalf("N=%d seed=%d after %s: NeededObjects(%d)=%v, fresh %v", n, seed, step, p, got, fresh)
					}
					for _, k := range got {
						if !fresh[k] {
							t.Fatalf("N=%d seed=%d after %s: NeededObjects(%d) lists %d not in fresh set", n, seed, step, p, k)
						}
					}
				}
			}
			for step := 0; step < 300; step++ {
				op := r.Intn(n)
				switch r.Intn(6) {
				case 0:
					m.Buy(in.Platform.Catalog.MostExpensive())
				case 1: // sell a random empty processor, if any
					for _, p := range AliveList(m) {
						if m.NumOpsOn(p) == 0 {
							m.Sell(p)
							break
						}
					}
				case 2:
					if alive := AliveList(m); len(alive) > 0 {
						m.Place(op, alive[r.Intn(len(alive))])
					}
				case 3:
					m.Unplace(op)
				case 4:
					if alive := AliveList(m); len(alive) > 0 {
						m.TryPlace(alive[r.Intn(len(alive))], op)
					}
				case 5:
					if alive := AliveList(m); len(alive) >= 2 {
						m.MoveAll(alive[r.Intn(len(alive))], alive[r.Intn(len(alive))])
					}
				}
				if step%23 == 0 || step == 299 {
					check(fmt.Sprintf("step %d", step))
				}
			}
			// Drive the mapping to completion and require full Validate
			// (which re-runs CheckInvariants) to pass.
			p := m.Buy(in.Platform.Catalog.MostExpensive())
			complete := true
			for op := 0; op < n; op++ {
				if m.OpProc(op) == Unassigned && !m.TryPlace(p, op) {
					complete = false
				}
			}
			check("completion")
			if complete {
				for _, q := range AliveList(m) {
					for _, k := range m.NeededObjects(q) {
						m.SelectServer(q, k, in.Holders[k][0])
					}
				}
				if err := m.Validate(); err != nil && m.Complete() {
					// Validation may legitimately fail on capacity (the
					// random construction is not a heuristic), but never
					// on bookkeeping: invariants were already checked.
					if ierr := m.CheckInvariants(); ierr != nil {
						t.Fatalf("N=%d seed=%d: invariants broken at validation: %v", n, seed, ierr)
					}
				}
			}
		}
	}
}

// TestTryPlaceRollbackRestoresCaches pins the rollback path: a failed
// TryPlace must leave the incremental state exactly as before, including
// after multi-operator moves that detach operators from other processors.
func TestTryPlaceRollbackRestoresCaches(t *testing.T) {
	in := fixedInstance()
	in.Platform.ProcLinkMBps = 10 // delta(n1)=30 > 10: crossing edges fail
	m := New(in)
	p := m.Buy(bestConfig(in))
	q := m.Buy(bestConfig(in))
	if !m.TryPlace(p, 0) || !m.TryPlace(p, 1) {
		t.Fatal("setup placements must fit")
	}
	before := []float64{m.ComputeLoad(p), m.CommLoad(p), m.DownloadLoad(p)}
	if m.TryPlace(q, 4) {
		t.Fatal("crossing placement must fail on the 10 MB/s link")
	}
	after := []float64{m.ComputeLoad(p), m.CommLoad(p), m.DownloadLoad(p)}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rollback changed cached load %d: %v -> %v", i, before[i], after[i])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rollback: %v", err)
	}
	if got := m.NumOpsOn(q); got != 0 {
		t.Fatalf("rolled-back processor hosts %d operators", got)
	}
}

// TestResetMatchesNew pins the arena contract: a Reset mapping is
// indistinguishable from a fresh New one — across instances of
// different sizes — and recycles its download tables instead of
// reallocating them.
func TestResetMatchesNew(t *testing.T) {
	arena := New(instance.Generate(instance.Config{NumOps: 9, Alpha: 0.9}, 7))
	p := arena.Buy(arena.Inst.Platform.Catalog.MostExpensive())
	arena.Place(0, p)
	arena.SelectServer(p, 0, arena.Inst.Holders[0][0])

	for _, n := range []int{4, 12, 4} {
		in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, int64(n))
		arena.Reset(in)
		fresh := New(in)
		if arena.Inst != in {
			t.Fatal("Reset did not rebind the instance")
		}
		if len(arena.Procs) != 0 || len(arena.DL) != 0 {
			t.Fatalf("Reset left %d procs, %d DL entries", len(arena.Procs), len(arena.DL))
		}
		if len(arena.Assign) != len(fresh.Assign) {
			t.Fatalf("Assign length %d, want %d", len(arena.Assign), len(fresh.Assign))
		}
		for op, q := range arena.Assign {
			if q != Unassigned {
				t.Fatalf("op %d not unassigned after Reset", op)
			}
		}
		// The recycled mapping must behave exactly like a fresh one.
		q := arena.Buy(in.Platform.Catalog.MostExpensive())
		arena.SelectServer(q, 0, in.Holders[0][0])
		if len(arena.DL[q]) != 1 || arena.DL[q][0] != in.Holders[0][0] {
			t.Fatalf("recycled DL table carries stale state: %v", arena.DL[q])
		}
	}
}

// TestResetSteadyStateAllocs pins the arena: after warm-up, a
// Reset/Buy/Place/SelectServer cycle allocates nothing.
func TestResetSteadyStateAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 0.9}, 1)
	m := New(in)
	cycle := func() {
		m.Reset(in)
		p := m.Buy(in.Platform.Catalog.MostExpensive())
		m.Place(0, p)
		m.PresizeDL(p, 2)
		m.SelectServer(p, 0, in.Holders[0][0])
		if !m.ProcFeasible(p) {
			t.Fatalf("processor %d infeasible", p)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state Reset cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestProcFeasibleOverloadAllocs pins the probe verdict as allocation
// free: on a warmed mapping, ProcFeasible walks a processor whose links
// all overload and answers false without allocating.
func TestProcFeasibleOverloadAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 0.9}, 1)
	pl := *in.Platform
	pl.ProcLinkMBps = 1e-6
	in.Platform = &pl
	m := New(in)
	cfg := in.Platform.Catalog.MostExpensive()
	procs := [...]int{m.Buy(cfg), m.Buy(cfg), m.Buy(cfg)}
	for op := range m.Assign {
		m.Place(op, procs[op%len(procs)])
	}
	p := procs[0]
	if m.ProcFeasible(p) {
		t.Fatal("processor with overloaded links judged feasible")
	}
	if allocs := testing.AllocsPerRun(50, func() { m.ProcFeasible(p) }); allocs > 0 {
		t.Fatalf("ProcFeasible on an overloaded processor allocates %.1f allocs/op, want 0", allocs)
	}
}
