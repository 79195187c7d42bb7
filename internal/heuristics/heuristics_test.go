package heuristics

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
)

func solveOK(t *testing.T, in *instance.Instance, h Heuristic) *Result {
	t.Helper()
	res, err := Solve(in, h, Options{Seed: 1})
	if err != nil {
		t.Fatalf("%s failed: %v", h.Name(), err)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("%s produced invalid mapping: %v", h.Name(), err)
	}
	return res
}

func TestAllHeuristicsProduceValidMappings(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 60} {
		in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, int64(n))
		for _, h := range All() {
			res, err := Solve(in, h, Options{Seed: 1})
			if err != nil {
				// The object-sensitive heuristics legitimately fail on
				// some larger instances (the paper reports the same);
				// the others must always succeed at alpha = 0.9.
				_, og := h.(ObjectGrouping)
				_, oa := h.(ObjectAvailability)
				if (og || oa) && n >= 20 && errors.Is(err, ErrInfeasible) {
					continue
				}
				t.Fatalf("%s on N=%d: %v", h.Name(), n, err)
			}
			if verr := res.Mapping.Validate(); verr != nil {
				t.Fatalf("%s on N=%d: invalid mapping: %v", h.Name(), n, verr)
			}
			if res.Cost <= 0 || res.Procs < 1 {
				t.Fatalf("%s on N=%d: cost=%v procs=%d", h.Name(), n, res.Cost, res.Procs)
			}
		}
	}
}

func TestManySeedsAllHeuristics(t *testing.T) {
	// The central soundness property: whatever a heuristic returns passes
	// the independent full validator. Failures must wrap ErrInfeasible.
	for seed := int64(0); seed < 15; seed++ {
		for _, alpha := range []float64{0.9, 1.4, 1.7} {
			in := instance.Generate(instance.Config{NumOps: 30, Alpha: alpha}, seed)
			for _, h := range All() {
				res, err := Solve(in, h, Options{Seed: seed})
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("%s seed=%d alpha=%v: non-infeasibility error: %v", h.Name(), seed, alpha, err)
					}
					continue
				}
				if err := res.Mapping.Validate(); err != nil {
					t.Fatalf("%s seed=%d alpha=%v: invalid mapping: %v", h.Name(), seed, alpha, err)
				}
			}
		}
	}
}

func TestLargeObjects(t *testing.T) {
	// Large objects (450-530 MB) with high frequency: downloads are
	// ~225-265 MB/s each. Small trees should still be mappable.
	in := instance.Generate(instance.Config{NumOps: 10, Alpha: 0.9, SizeMin: 450, SizeMax: 530}, 3)
	okCount := 0
	for _, h := range All() {
		if res, err := Solve(in, h, Options{Seed: 3}); err == nil {
			if err := res.Mapping.Validate(); err != nil {
				t.Fatalf("%s: invalid mapping: %v", h.Name(), err)
			}
			okCount++
		} else if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: unexpected error: %v", h.Name(), err)
		}
	}
	if okCount == 0 {
		t.Fatal("no heuristic found a mapping for a small large-object tree")
	}
}

func TestHighAlphaInfeasible(t *testing.T) {
	// At alpha=3 the root operator alone exceeds the fastest processor for
	// any reasonably sized tree; every heuristic must fail cleanly.
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 3}, 1)
	for _, h := range All() {
		_, err := Solve(in, h, Options{Seed: 1})
		if err == nil {
			t.Fatalf("%s found a mapping for alpha=3, N=60 (should be impossible)", h.Name())
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: error does not wrap ErrInfeasible: %v", h.Name(), err)
		}
	}
}

func TestPrecheck(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 10, Alpha: 0.9}, 1)
	if err := Precheck(in); err != nil {
		t.Fatalf("feasible instance failed precheck: %v", err)
	}
	// Object rate above the server links.
	in2 := instance.Generate(instance.Config{NumOps: 10, Alpha: 0.9}, 1)
	k := in2.Tree.Leaves[0].Object
	in2.Freqs[k] = 1000 // rate > 1000 MB/s links
	in2.Refresh()
	if err := Precheck(in2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized object rate not caught: %v", err)
	}
	// Operator work above the fastest CPU.
	in3 := instance.Generate(instance.Config{NumOps: 10, Alpha: 3}, 1)
	if err := Precheck(in3); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized operator not caught: %v", err)
	}
}

func TestSubtreeBottomUpIsCompetitive(t *testing.T) {
	// The paper's headline ranking: Subtree-bottom-up achieves the best
	// cost in most situations. Check it is never worse than Random and is
	// the (possibly tied) winner on a clear majority of seeds.
	wins, totals := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		in := instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, seed)
		costs := map[string]float64{}
		for _, h := range All() {
			if res, err := Solve(in, h, Options{Seed: seed}); err == nil {
				costs[h.Name()] = res.Cost
			}
		}
		sbu, ok := costs["Subtree-bottom-up"]
		if !ok {
			continue
		}
		totals++
		if rnd, ok := costs["Random"]; ok && sbu > rnd {
			t.Fatalf("seed %d: Subtree-bottom-up (%v) worse than Random (%v)", seed, sbu, rnd)
		}
		best := sbu
		for _, c := range costs {
			if c < best {
				best = c
			}
		}
		if sbu == best {
			wins++
		}
	}
	if totals == 0 {
		t.Fatal("Subtree-bottom-up never produced a mapping")
	}
	if wins*2 < totals {
		t.Fatalf("Subtree-bottom-up best in only %d/%d runs", wins, totals)
	}
}

func TestSmallTreeCollapsesToOneProcessor(t *testing.T) {
	// For tiny trees at low alpha the optimal solution is a single
	// processor (the paper's CPLEX result); Subtree-bottom-up and
	// Comm-Greedy should find a one-processor mapping.
	in := instance.Generate(instance.Config{NumOps: 8, Alpha: 0.9}, 5)
	for _, name := range []string{"Subtree-bottom-up", "Comm-Greedy"} {
		h, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := solveOK(t, in, h)
		if res.Procs != 1 {
			t.Fatalf("%s used %d processors on a tiny tree, want 1", name, res.Procs)
		}
	}
}

func TestDowngradeReducesCost(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 30, Alpha: 0.9}, 9)
	h := SubtreeBottomUp{}
	with, err := Solve(in, h, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Solve(in, h, Options{Seed: 9, SkipDowngrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost > without.Cost {
		t.Fatalf("downgrade increased cost: %v > %v", with.Cost, without.Cost)
	}
	if with.Procs != without.Procs {
		t.Fatalf("downgrade changed processor count: %d vs %d", with.Procs, without.Procs)
	}
}

func TestHomogeneousCatalogSkipsDowngrade(t *testing.T) {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(4, 4)
	in := instance.Generate(instance.Config{NumOps: 20, Alpha: 0.9, Platform: p}, 2)
	res := solveOK(t, in, SubtreeBottomUp{})
	for _, proc := range res.Mapping.Procs {
		if proc.Alive && proc.Config != (platform.Config{CPU: 0, NIC: 0}) {
			t.Fatalf("homogeneous catalog produced config %+v", proc.Config)
		}
	}
}

func TestByName(t *testing.T) {
	for _, h := range All() {
		got, err := ByName(h.Name())
		if err != nil || got.Name() != h.Name() {
			t.Fatalf("ByName(%q) = %v, %v", h.Name(), got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRandomHeuristicDeterministicPerSeed(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 25, Alpha: 0.9}, 4)
	a, errA := Solve(in, Random{}, Options{Seed: 7})
	b, errB := Solve(in, Random{}, Options{Seed: 7})
	if (errA == nil) != (errB == nil) {
		t.Fatal("same seed, different feasibility")
	}
	if errA == nil && a.Cost != b.Cost {
		t.Fatalf("same seed, different costs: %v vs %v", a.Cost, b.Cost)
	}
}

func TestSingleOperatorTree(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 1, Alpha: 1.0}, 1)
	for _, h := range All() {
		res := solveOK(t, in, h)
		if res.Procs != 1 {
			t.Fatalf("%s used %d processors for one operator", h.Name(), res.Procs)
		}
	}
}

// TestSolveContextReuseEquivalence proves the solve arena changes
// storage ownership only: for every heuristic and a spread of
// instances, a warm context reused across every case, a fresh
// NewSolveContext per case and the pooled package-level Solve produce
// bit-identical solutions (cost, processor list, assignment, download
// tables). The package-level Solve's clone must also own consistent
// storage of its own: the pooled arena it came from is reused by later
// solves in this very loop, so any aliasing shows up here.
func TestSolveContextReuseEquivalence(t *testing.T) {
	warm := NewSolveContext()
	hs := append(All(), SubtreeBottomUp{DisableFold: true})
	for _, n := range []int{1, 5, 20, 60} {
		for seed := int64(1); seed <= 3; seed++ {
			in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, seed)
			for _, h := range hs {
				label := fmt.Sprintf("%s N=%d seed=%d", h.Name(), n, seed)
				opts := Options{Seed: seed}
				want, errW := NewSolveContext().Solve(in, h, opts)
				got, errG := warm.Solve(in, h, opts)
				oneShot, errO := Solve(in, h, opts)
				if (errW == nil) != (errG == nil) || (errW == nil) != (errO == nil) {
					t.Fatalf("%s: fresh err=%v, warm err=%v, one-shot err=%v", label, errW, errG, errO)
				}
				if errW != nil {
					continue
				}
				sameSolution(t, label+" warm", want, got)
				sameSolution(t, label+" one-shot", want, oneShot)
				if err := oneShot.Mapping.CheckInvariants(); err != nil {
					t.Fatalf("%s: cloned mapping inconsistent: %v", label, err)
				}
			}
		}
	}
}

// sameSolution fails unless got is want bit for bit: heuristic, cost,
// processor list, assignment and download tables.
func sameSolution(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Heuristic != want.Heuristic || got.Cost != want.Cost || got.Procs != want.Procs {
		t.Fatalf("%s: (%s, %v, %d) != (%s, %v, %d)", label,
			got.Heuristic, got.Cost, got.Procs, want.Heuristic, want.Cost, want.Procs)
	}
	if !slices.Equal(want.Mapping.Assign, got.Mapping.Assign) {
		t.Fatalf("%s: assignment %v, want %v", label, got.Mapping.Assign, want.Mapping.Assign)
	}
	if !slices.Equal(want.Mapping.Procs, got.Mapping.Procs) {
		t.Fatalf("%s: processors %v, want %v", label, got.Mapping.Procs, want.Mapping.Procs)
	}
	for p := range want.Mapping.Procs {
		if !maps.Equal(want.Mapping.DL[p], got.Mapping.DL[p]) {
			t.Fatalf("%s: proc %d downloads %v, want %v", label, p, got.Mapping.DL[p], want.Mapping.DL[p])
		}
	}
}

// TestSolveContextReuseAllocs pins the arena: repeated
// Subtree-bottom-up solves through a warm context allocate nothing — no
// mapping, download table, traversal buffer, rng or Result.
func TestSolveContextReuseAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	c := NewSolveContext()
	if _, err := c.Solve(in, SubtreeBottomUp{}, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Solve(in, SubtreeBottomUp{}, Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SolveContext allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestOneShotSolveAllocs pins the one-shot arena routing's allocation
// win: a package-level Solve now costs one clone of the finished
// mapping (right-sized slices plus the per-proc download tables), not
// an incremental rebuild of the adjacency state on a fresh Mapping —
// which paid roughly 2x this count in append growth. It measures the
// body of Solve on a warmed context made as the pool makes its own,
// not the sync.Pool itself: the race detector drops pooled items at
// random, and each refill would be charged to Solve.
func TestOneShotSolveAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	c := solveCtxPool.New().(*SolveContext)
	if _, err := c.solveCloned(in, SubtreeBottomUp{}, Options{Seed: 1}); err != nil {
		t.Fatal(err) // warm the context
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.solveCloned(in, SubtreeBottomUp{}, Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	// Clone of the N=60 solution runs ~30 allocations (slices + one
	// download table and operator list per purchased processor); the old
	// fresh-Mapping path paid ~176.
	if allocs > 80 {
		t.Fatalf("one-shot Solve allocates %.1f allocs/op, want <= 80", allocs)
	}
}

// TestPortfolioAllocs pins the portfolio's winner arena: a warmed
// Portfolio over the six paper heuristics allocates no more than the six
// SolveContext.Solve calls it makes, so keeping the winner (a CopyFrom
// onto the recycled second arena) is free in steady state.
func TestPortfolioAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	c := NewSolveContext()
	ctx := context.Background()
	best, err := c.Portfolio(ctx, in, nil, Options{Seed: 1}, math.Inf(1), nil)
	if err != nil || best == nil {
		t.Fatalf("warm-up portfolio: %v, %v", best, err)
	}
	if best.Mapping != &c.best {
		t.Fatalf("winner %s is the last heuristic; pick an instance that exercises the copy", best.Heuristic)
	}
	six := testing.AllocsPerRun(20, func() {
		for _, h := range All() {
			c.Solve(in, h, Options{Seed: 1})
		}
	})
	portfolio := testing.AllocsPerRun(20, func() {
		c.Portfolio(ctx, in, nil, Options{Seed: 1}, math.Inf(1), nil)
	})
	if portfolio > six {
		t.Fatalf("Portfolio allocates %.1f allocs/op, its six solves %.1f", portfolio, six)
	}
}

// TestRegister pins the external-heuristic registry: registered names
// resolve through ByName, built-in collisions and duplicates panic.
func TestRegister(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	h := nameOnlyHeuristic{name: "test-registered"}
	Register(h)
	t.Cleanup(func() { delete(registered, h.name) })
	got, err := ByName(h.name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != h.name {
		t.Fatalf("ByName returned %q", got.Name())
	}
	mustPanic("duplicate", func() { Register(h) })
	mustPanic("builtin collision", func() { Register(nameOnlyHeuristic{name: SubtreeBottomUp{}.Name()}) })
}

type nameOnlyHeuristic struct{ name string }

func (h nameOnlyHeuristic) Name() string { return h.name }
func (h nameOnlyHeuristic) Place(pc *PlaceContext, m *mapping.Mapping, r *rand.Rand) error {
	return fmt.Errorf("not a real heuristic")
}
