package streamalloc_test

import (
	"context"
	"testing"

	streamalloc "repro"
)

// TestPublicGridEndToEnd drives the whole public sweep surface: a Grid
// over two heuristics, streaming cells in deterministic order, shard
// partitioning whose union equals the full grid, and per-cell seeds
// reproducible from the exported SeedFor.
func TestPublicGridEndToEnd(t *testing.T) {
	mk := streamalloc.MakeInstances(func(x float64) streamalloc.InstanceConfig {
		return streamalloc.InstanceConfig{NumOps: int(x), Alpha: 0.9}
	})
	grid := func() *streamalloc.Grid {
		return &streamalloc.Grid{
			Heuristics: []string{"Subtree-bottom-up", "Comp-Greedy"},
			Xs:         []float64{10, 20, 30},
			Seeds:      2,
			BaseSeed:   42,
			Workers:    4,
			Make:       mk,
		}
	}

	g := grid()
	full, err := g.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != g.Size() {
		t.Fatalf("got %d cells, want %d", len(full), g.Size())
	}
	feasible := 0
	for i, c := range full {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d: stream out of order", i, c.Index)
		}
		if c.Feasible() {
			feasible++
			if c.Cost <= 0 || c.Procs <= 0 {
				t.Fatalf("cell %d: feasible but empty: %+v", i, c)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible cells on an easy grid")
	}

	// Sharding: the union of both shards is the full grid, cell for cell.
	seen := make(map[int]streamalloc.Cell)
	for i := 0; i < 2; i++ {
		sg := grid()
		sg.Shard = streamalloc.Shard{Index: i, Count: 2}
		sg.Workers = 1 + i // shards may run anywhere, at any width
		cells, err := sg.Cells(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if _, dup := seen[c.Index]; dup {
				t.Fatalf("cell %d computed by two shards", c.Index)
			}
			seen[c.Index] = c
		}
	}
	if len(seen) != len(full) {
		t.Fatalf("shard union has %d cells, full grid %d", len(seen), len(full))
	}
	for i, want := range full {
		got := seen[i]
		if got.Cost != want.Cost || got.Procs != want.Procs || got.Seed != want.Seed ||
			got.Feasible() != want.Feasible() {
			t.Fatalf("cell %d differs between shard union and full run:\n%+v\n%+v", i, got, want)
		}
	}
}

// TestPublicDerivedSeeds: DerivedSeeds cells are reproducible from the
// exported SeedFor — the contract external shard orchestrators rely on.
func TestPublicDerivedSeeds(t *testing.T) {
	g := &streamalloc.Grid{
		Heuristics: []string{"Subtree-bottom-up"},
		Xs:         []float64{10, 20},
		Seeds:      2,
		BaseSeed:   7,
		SeedOf:     streamalloc.DerivedSeeds("mygrid"),
		Make: streamalloc.MakeInstances(func(x float64) streamalloc.InstanceConfig {
			return streamalloc.InstanceConfig{NumOps: int(x)}
		}),
	}
	cells, err := g.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Seed == 7+int64(c.Rep) {
			t.Fatalf("cell %d still uses sequential seeds", c.Index)
		}
	}
	// An external orchestrator recomputes cell (xi=1, rep=1)'s seed with
	// only the public SeedFor and the documented label scheme.
	want := streamalloc.SeedFor(7, "mygrid:x1:r1")
	if got := g.CellSeed(1, 1); got != want {
		t.Fatalf("CellSeed(1,1) = %d, SeedFor derivation = %d", got, want)
	}
}

// TestPublicMultiTenantSweep opens the multi-tenant harness through the
// public API: a Grid whose factory Combines several tenants onto one
// shared platform, swept over a tenant-load axis with a verification
// column.
func TestPublicMultiTenantSweep(t *testing.T) {
	base := streamalloc.Generate(streamalloc.InstanceConfig{NumOps: 5}, 11)
	w := streamalloc.Workload{
		NumTypes: base.NumTypes, Sizes: base.Sizes, Freqs: base.Freqs,
		Holders: base.Holders, Platform: base.Platform, Alpha: 1.0,
	}
	g := &streamalloc.Grid{
		Heuristics: []string{"Subtree-bottom-up", "Comp-Greedy"},
		Xs:         []float64{1, 2, 4}, // the alerting tenant's throughput target
		Seeds:      2,
		BaseSeed:   1,
		Verify:     &streamalloc.SimOptions{Results: 60},
		Make: func(env *streamalloc.WorkerEnv, x float64, seed int64) (*streamalloc.Instance, error) {
			// The worker-arena path: env.RandomTree/env.Combine draw the
			// same streams as the one-shot RandomTree/Combine, so cells
			// are identical and steady-state allocation-free.
			apps := []streamalloc.App{
				{Tree: env.RandomTree(streamalloc.SeedFor(seed, "dashboard"), 8, w.NumTypes), Rho: 1},
				{Tree: env.RandomTree(streamalloc.SeedFor(seed, "alerting"), 10, w.NumTypes), Rho: x},
			}
			return env.Combine(apps, w)
		},
	}
	cells, err := g.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	feasible, meets := 0, 0
	for _, c := range cells {
		if !c.Feasible() {
			continue
		}
		feasible++
		if c.MeetsRho() {
			meets++
		}
	}
	if feasible == 0 {
		t.Fatal("no multi-tenant cell was feasible")
	}
	if meets != feasible {
		t.Fatalf("%d/%d feasible multi-tenant cells meet rho on the stream engine", meets, feasible)
	}
}

// TestSweepFigure: the named paper figures are reachable from the
// public API and shaped as documented.
func TestSweepFigure(t *testing.T) {
	ids := streamalloc.FigureIDs()
	if len(ids) < 8 {
		t.Fatalf("FigureIDs = %v, want the 8 paper figures", ids)
	}
	fig, err := streamalloc.SweepFigureCtx(context.Background(), "fig2a", streamalloc.SweepConfig{Seeds: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 7 || fig.Dat() == "" {
		t.Fatalf("fig2a has %d series", len(fig.Series))
	}
	if _, err := streamalloc.SweepFigureCtx(context.Background(), "fig9z", streamalloc.SweepConfig{}); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}
