package heuristics

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/rng"
)

// selInstance builds a controllable instance for server-selection tests:
// a left-deep tree over the given object types, with chosen holders and
// server NIC capacities.
func selInstance(objects []int, numTypes int, holders [][]int, serverNIC []float64, freq float64) *instance.Instance {
	p := platform.DefaultPlatform()
	p.Servers = make([]platform.Server, len(serverNIC))
	for i, b := range serverNIC {
		p.Servers[i] = platform.Server{NICMBps: b}
	}
	sizes := make([]float64, numTypes)
	freqs := make([]float64, numTypes)
	for k := range sizes {
		sizes[k] = 10
		freqs[k] = freq
	}
	in := &instance.Instance{
		Tree:     apptree.LeftDeep(objects),
		NumTypes: numTypes,
		Sizes:    sizes,
		Freqs:    freqs,
		Holders:  holders,
		Platform: p,
		Rho:      1,
		Alpha:    1,
	}
	in.Refresh()
	return in
}

// mapAllOnOne places every operator on one most-expensive processor.
func mapAllOnOne(in *instance.Instance) *mapping.Mapping {
	m := mapping.New(in)
	p := m.Buy(in.Platform.Catalog.MostExpensive())
	for op := range in.Tree.Ops {
		m.Place(op, p)
	}
	return m
}

func TestThreeLoopSingleHolderPinned(t *testing.T) {
	// Object 0 held only by server 1: loop 1 must pin it there.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{1}, {0, 1}}, []float64{10000, 10000}, 0.5)
	m := mapAllOnOne(in)
	if err := SelectServersThreeLoop(m); err != nil {
		t.Fatal(err)
	}
	if got := m.DL[0][0]; got != 1 {
		t.Fatalf("object 0 downloaded from server %d, want 1", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThreeLoopSingleHolderOverloadFails(t *testing.T) {
	// Object 0 (rate 5 MB/s) only on a server with a 1 MB/s NIC.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{1}, {0}}, []float64{10000, 1}, 0.5)
	m := mapAllOnOne(in)
	err := SelectServersThreeLoop(m)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestThreeLoopPrefersSingleTypeServer(t *testing.T) {
	// Server 1 holds only object 0; server 0 holds both types. Loop 2
	// should route object 0 to server 1, keeping server 0 free for 1.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0, 1}, {0}}, []float64{10000, 10000}, 0.5)
	m := mapAllOnOne(in)
	if err := SelectServersThreeLoop(m); err != nil {
		t.Fatal(err)
	}
	if got := m.DL[0][0]; got != 1 {
		t.Fatalf("object 0 downloaded from server %d, want single-type server 1", got)
	}
}

func TestThreeLoopBalancesLoadedServers(t *testing.T) {
	// Three downloads of 5 MB/s each (object 0 by two processors, object 1
	// by one) must spread across two servers with 10 MB/s NICs; loop 3's
	// max-min-residual rule balances them.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0, 1}, {0, 1}}, []float64{10, 10}, 0.5)
	// Two processors: split the operators.
	m := mapping.New(in)
	p1 := m.Buy(in.Platform.Catalog.MostExpensive())
	p2 := m.Buy(in.Platform.Catalog.MostExpensive())
	// Left-deep tree over objects [0 1 0 1]: op0 needs {0,1}, op1 needs
	// {0}, op2 needs {1}.
	m.Place(0, p1)
	m.Place(1, p2)
	m.Place(2, p1)
	if err := SelectServersThreeLoop(m); err != nil {
		t.Fatal(err)
	}
	// Both p1 and p2 download object 0; they must use different servers
	// (each server only has capacity for one 5 MB/s download... of obj 0;
	// object 1 at rate 5 must then fail -- so actually give servers 10).
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.DL[p1][0] == m.DL[p2][0] {
		srv := m.DL[p1][0]
		if m.ServerLoad(srv) > in.Platform.Servers[srv].NICMBps {
			t.Fatal("both downloads on one server exceeded its NIC")
		}
	}
}

func TestThreeLoopNoCapacityFails(t *testing.T) {
	// Total demanded rate exceeds all server NICs combined.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0}, {0}}, []float64{7}, 0.5)
	m := mapAllOnOne(in)
	err := SelectServersThreeLoop(m)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestRandomSelectionRespectsCapacity(t *testing.T) {
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0, 1}, {0, 1}}, []float64{5, 10}, 0.5)
	m := mapAllOnOne(in)
	if err := SelectServersRandom(m, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSelectionFailsWhenImpossible(t *testing.T) {
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0}, {0}}, []float64{7}, 0.5)
	m := mapAllOnOne(in)
	if err := SelectServersRandom(m, rng.New(3)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSelectionCoversExactlyNeededObjects(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 25, Alpha: 0.9}, 8)
	res, err := Solve(in, CompGreedy{}, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		needed := neededObjects(m, p)
		if len(needed) != len(m.DL[p]) {
			t.Fatalf("proc %d: %d needed objects, %d downloads", p, len(needed), len(m.DL[p]))
		}
	}
}

func TestLinkCapacityForcesSplit(t *testing.T) {
	// One processor needs objects 0 and 1 (5 MB/s each), both held only by
	// server 0, and the server->proc link is 8 MB/s: total 10 > 8 must
	// fail even though the server NIC (10 GB/s) is fine.
	in := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0}, {0}}, []float64{10000}, 0.5)
	in.Platform.ServerLinkMBps = 8
	m := mapAllOnOne(in)
	if err := SelectServersThreeLoop(m); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible from link capacity, got %v", err)
	}
	// With two holders the loads can split across two links.
	in2 := selInstance([]int{0, 1, 0, 1}, 2, [][]int{{0}, {1}}, []float64{10000, 10000}, 0.5)
	in2.Platform.ServerLinkMBps = 8
	m2 := mapAllOnOne(in2)
	if err := SelectServersThreeLoop(m2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// placedMapping runs the placement half of the Solve pipeline, returning
// nil when the instance is infeasible for the heuristic.
func placedMapping(in *instance.Instance, h Heuristic, seed int64) *mapping.Mapping {
	if Precheck(in) != nil {
		return nil
	}
	m := mapping.New(in)
	if err := h.Place(&PlaceContext{}, m, rng.Derive(seed, "heuristic:"+h.Name())); err != nil || !m.Complete() {
		return nil
	}
	m.SellEmpty()
	return m
}

// checkServerCapacities asserts property (a) of the selector: committed
// downloads never exceed a server NIC or a server-processor link beyond
// the verification tolerance.
func checkServerCapacities(t *testing.T, m *mapping.Mapping) {
	t.Helper()
	in := m.Inst
	for l := range in.Platform.Servers {
		if load, cap := m.ServerLoad(l), in.Platform.Servers[l].NICMBps; load > cap+mapping.Eps {
			t.Fatalf("server %d NIC overshoot: %.12f > %.12f", l, load, cap)
		}
		for p := range m.Procs {
			if !m.Procs[p].Alive {
				continue
			}
			if load := m.ServerLinkLoad(l, p); load > in.Platform.ServerLinkMBps+mapping.Eps {
				t.Fatalf("link %d->%d overshoot: %.12f", l, p, load)
			}
		}
	}
}

// TestThreeLoopMatchesReference proves the flat-scratch selector (b)
// chooses byte-identical servers to the historical map-based
// implementation across the canonical corpus grid, for every placement
// heuristic, while (a) respecting all server-side capacities.
func TestThreeLoopMatchesReference(t *testing.T) {
	sel := &Selector{}
	for _, n := range []int{20, 60, 140} {
		for _, alpha := range []float64{0.9, 1.7} {
			for seed := int64(1); seed <= 3; seed++ {
				in := instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed)
				for _, h := range All() {
					m := placedMapping(in, h, seed)
					if m == nil {
						continue
					}
					ref := m.Clone()
					errNew := sel.ThreeLoop(m)
					errRef := refSelectServersThreeLoop(ref)
					if (errNew == nil) != (errRef == nil) {
						t.Fatalf("N=%d alpha=%g seed=%d %s: selector err=%v, reference err=%v",
							n, alpha, seed, h.Name(), errNew, errRef)
					}
					if errNew != nil {
						continue
					}
					if !reflect.DeepEqual(m.DL, ref.DL) {
						t.Fatalf("N=%d alpha=%g seed=%d %s: server choices diverge:\n%v\nvs reference\n%v",
							n, alpha, seed, h.Name(), m.DL, ref.DL)
					}
					checkServerCapacities(t, m)
				}
			}
		}
	}
}

// TestRandomSelectionMatchesReference is the same equivalence for the
// random selection: the selector gathers its work list in the exact
// (proc, object) order the reference sorted into, so both consume the
// same random stream and pick the same servers.
func TestRandomSelectionMatchesReference(t *testing.T) {
	sel := &Selector{}
	for seed := int64(1); seed <= 5; seed++ {
		in := instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, seed)
		m := placedMapping(in, Random{}, seed)
		if m == nil {
			continue
		}
		ref := m.Clone()
		errNew := sel.Random(m, rng.Derive(seed, "selection:Random"))
		errRef := refSelectServersRandom(ref, rng.Derive(seed, "selection:Random"))
		if (errNew == nil) != (errRef == nil) {
			t.Fatalf("seed %d: selector err=%v, reference err=%v", seed, errNew, errRef)
		}
		if errNew == nil && !reflect.DeepEqual(m.DL, ref.DL) {
			t.Fatalf("seed %d: server choices diverge", seed)
		}
	}
}

// boundaryInstance builds one processor needing objects with the given
// download rates, all held by a single server with NIC capacity cap.
func boundaryInstance(rates []float64, cap float64) *mapping.Mapping {
	objects := make([]int, len(rates))
	holders := make([][]int, len(rates))
	for k := range rates {
		objects[k] = k
		holders[k] = []int{0}
	}
	p := platform.DefaultPlatform()
	p.Servers = []platform.Server{{NICMBps: cap}}
	p.ServerLinkMBps = 1e12 // keep links out of the picture
	in := &instance.Instance{
		Tree:     apptree.LeftDeep(objects),
		NumTypes: len(rates),
		Sizes:    append([]float64(nil), rates...),
		Freqs:    make([]float64, len(rates)),
		Holders:  holders,
		Platform: p,
		Rho:      1,
		Alpha:    1,
	}
	for k := range in.Freqs {
		in.Freqs[k] = 1 // rate_k == Sizes[k]
	}
	in.Refresh()
	return mapAllOnOne(in)
}

// TestCapacityEpsBoundary is the regression test for the capacity-
// tolerance unification: at rates exactly on the capacity boundary the
// selector must never commit a download set that mapping's verification
// rejects. The historical 1e-9-tolerant admission did exactly that —
// with the server NIC one Eps short of the total rate it admitted every
// download (overshooting the NIC), and Validate's fresh re-summation
// could reject the mapping depending on map iteration order. The
// selector's zero-tolerance admission refuses instead, and still admits
// exact fits.
func TestCapacityEpsBoundary(t *testing.T) {
	// A rate triple (found by scanning the float lattice) whose
	// sequential admission chain stays within the historical 1e-9
	// tolerance while the total overshoots the capacity.
	rates := []float64{0.003655, 1.1006850000000001, 2.7015000000000002}
	sum := rates[0] + rates[1] + rates[2]

	// The historical implementation admits the whole set even though the
	// server NIC is Eps short of it: an overshoot verification is
	// entitled to reject.
	ref := boundaryInstance(rates, sum-mapping.Eps)
	if err := refSelectServersThreeLoop(ref); err != nil {
		t.Fatalf("reference no longer admits the boundary overshoot: %v", err)
	}
	if load, cap := ref.ServerLoad(0), ref.Inst.Platform.Servers[0].NICMBps; load <= cap {
		t.Fatalf("reference was expected to overshoot the NIC: load %.12f <= cap %.12f", load, cap)
	}

	// The selector must keep the selection/verification agreement at
	// every capacity in the boundary's neighbourhood: either refuse with
	// ErrInfeasible, or produce a mapping Validate accepts.
	caps := []float64{
		sum - mapping.Eps,
		math.Nextafter(sum, 0),
		sum,
		math.Nextafter(sum, math.Inf(1)),
		sum + mapping.Eps,
		rates[2], // single-download boundaries, via the other objects failing
	}
	for _, cap := range caps {
		m := boundaryInstance(rates, cap)
		err := SelectServersThreeLoop(m)
		switch {
		case err == nil:
			if verr := m.Validate(); verr != nil {
				t.Fatalf("cap=%v: selection committed a mapping verification rejects: %v", cap, verr)
			}
			checkServerCapacities(t, m)
		case !errors.Is(err, ErrInfeasible):
			t.Fatalf("cap=%v: unexpected error %v", cap, err)
		}
	}

	// Exact fit: a capacity of exactly the total rate must stay feasible.
	m := boundaryInstance(rates, sum)
	if err := SelectServersThreeLoop(m); err != nil {
		t.Fatalf("exact-fit capacity must be admitted: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	// One Eps short of the total must now be refused up front (the
	// admission has zero tolerance), never committed-then-invalid.
	m = boundaryInstance(rates, sum-mapping.Eps)
	if err := SelectServersThreeLoop(m); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("under-capacity boundary must be ErrInfeasible, got %v", err)
	}

	// Same agreement for the random selection.
	for _, cap := range caps {
		m := boundaryInstance(rates, cap)
		err := SelectServersRandom(m, rng.New(7))
		switch {
		case err == nil:
			if verr := m.Validate(); verr != nil {
				t.Fatalf("random cap=%v: selection committed a mapping verification rejects: %v", cap, verr)
			}
		case !errors.Is(err, ErrInfeasible):
			t.Fatalf("random cap=%v: unexpected error %v", cap, err)
		}
	}
}

// TestSelectorAllocsPinned pins the tentpole: a reused selector runs the
// three-loop selection without allocating.
func TestSelectorAllocsPinned(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	m := placedMapping(in, SubtreeBottomUp{}, 1)
	if m == nil {
		t.Fatal("placement failed")
	}
	sel := &Selector{}
	if err := sel.ThreeLoop(m); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := sel.ThreeLoop(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("reused selector allocates %.1f allocs/op, want 0", allocs)
	}
}
