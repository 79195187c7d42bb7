package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/stats"
	"repro/internal/stream"
)

// referenceFig2a rebuilds Figure 2(a) the pedestrian way — package-level
// instance.Generate and heuristics.Solve, no generators, no solve
// contexts, no arena, no worker pool — exactly the pre-Grid semantics.
// The Grid engine must reproduce its .dat bytes.
func referenceFig2a(cfg Config) *Figure {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID: "fig2a", Title: "Figure 2(a): cost vs N (alpha=0.9, f=1/2s, small objects)",
		XLabel: "number of nodes", YLabel: "cost ($)",
	}
	for _, name := range heuristicSet() {
		h, err := heuristics.ByName(name)
		if err != nil {
			panic(err)
		}
		s := Series{Label: name}
		for _, x := range nRange() {
			var costs []float64
			fails := 0
			for rep := 0; rep < cfg.Seeds; rep++ {
				seed := cfg.BaseSeed + int64(rep)
				in := instance.Generate(instance.Config{NumOps: int(x), Alpha: 0.9}, seed)
				res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
				if err != nil {
					fails++
					continue
				}
				costs = append(costs, res.Cost)
			}
			pt := Point{X: x, Fails: fails, Runs: cfg.Seeds, Mean: math.NaN()}
			if len(costs) > 0 {
				pt.Mean = stats.Mean(costs)
				pt.CI = stats.CI95(costs)
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// TestGridMatchesReference is the tentpole's golden test: the Grid
// engine — reused arenas, worker pool, streaming emission and all —
// renders byte-identical .dat output to a from-scratch serial
// reimplementation of the figure.
func TestGridMatchesReference(t *testing.T) {
	cfg := Config{Seeds: 3, BaseSeed: 1}
	want := referenceFig2a(cfg).Dat()
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		if got := Fig2a(cfg).Dat(); got != want {
			t.Fatalf("workers=%d: Grid output diverges from reference:\n--- reference ---\n%s--- grid ---\n%s",
				workers, want, got)
		}
	}
}

// TestShardUnionEqualsFullGrid: for several shard widths and worker
// counts, merging every shard's cells reproduces the unsharded .dat
// bytes, for a plain figure and for both multi-unit ablations.
func TestShardUnionEqualsFullGrid(t *testing.T) {
	cfg := Config{Seeds: 2, BaseSeed: 1}
	for _, id := range []string{"fig2a", "abl-downgrade", "abl-selection"} {
		full, err := BuildFigure(context.Background(), id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Dat()
		for _, count := range []int{2, 3, 5} {
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				parts := make([]*ShardCells, count)
				for i := 0; i < count; i++ {
					sc, err := RunFigureShard(context.Background(), id, cfg, Shard{Index: i, Count: count})
					if err != nil {
						t.Fatal(err)
					}
					parts[i] = sc
				}
				merged, err := MergeFigure(id, cfg, parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := merged.Dat(); got != want {
					t.Fatalf("%s: %d shards at %d workers diverge:\n--- full ---\n%s--- merged ---\n%s",
						id, count, workers, want, got)
				}
			}
		}
	}
}

// TestShardCellsRoundTrip: Encode/Decode preserves everything the folds
// consume, including infeasible cells and exact float costs, so a merge
// from files equals a merge from memory.
func TestShardCellsRoundTrip(t *testing.T) {
	cfg := Config{Seeds: 2, BaseSeed: 1}
	// fig3n20 at high alpha has genuinely infeasible cells.
	sc, err := RunFigureShard(context.Background(), "fig3n20", cfg, Shard{Index: 1, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FigID != sc.FigID || got.Shard != sc.Shard.normalized() ||
		got.Seeds != sc.Seeds || got.BaseSeed != sc.BaseSeed || len(got.Units) != len(sc.Units) {
		t.Fatalf("header mismatch: %+v vs %+v", got, sc)
	}
	sawInfeasible := false
	for ui := range sc.Units {
		if len(got.Units[ui]) != len(sc.Units[ui]) {
			t.Fatalf("unit %d: %d cells, want %d", ui, len(got.Units[ui]), len(sc.Units[ui]))
		}
		for i := range sc.Units[ui] {
			w, g := &sc.Units[ui][i], &got.Units[ui][i]
			if g.Index != w.Index || g.Seed != w.Seed || g.Cost != w.Cost || g.Procs != w.Procs ||
				(g.Err == nil) != (w.Err == nil) {
				t.Fatalf("unit %d cell %d: %+v != %+v", ui, i, g, w)
			}
			if w.Err != nil {
				sawInfeasible = true
			}
		}
	}
	if !sawInfeasible {
		t.Fatal("round-trip exercised no infeasible cell; pick a harder figure")
	}
}

// TestGridValidation: malformed grids and shards fail loudly instead of
// producing silent empty sweeps.
func TestGridValidation(t *testing.T) {
	ok := func() *Grid {
		return &Grid{
			Heuristics: []string{"Subtree-bottom-up"},
			Xs:         []float64{10},
			Seeds:      1,
			Make: MakeInstances(func(x float64) instance.Config {
				return instance.Config{NumOps: int(x)}
			}),
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Grid)
		want   string
	}{
		{"no heuristics", func(g *Grid) { g.Heuristics = nil }, "Heuristics is empty"},
		{"unknown heuristic", func(g *Grid) { g.Heuristics = []string{"Quantum-Annealing"} }, "unknown heuristic"},
		{"no columns", func(g *Grid) { g.Xs = nil }, "Xs is empty"},
		{"zero seeds", func(g *Grid) { g.Seeds = 0 }, "Seeds must be positive"},
		{"negative seeds", func(g *Grid) { g.Seeds = -4 }, "Seeds must be positive"},
		{"nil factory", func(g *Grid) { g.Make = nil }, "Make is nil"},
		{"shard index high", func(g *Grid) { g.Shard = Shard{Index: 2, Count: 2} }, "out of range"},
		{"shard index negative", func(g *Grid) { g.Shard = Shard{Index: -1, Count: 2} }, "out of range"},
	}
	for _, tc := range cases {
		g := ok()
		tc.mutate(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if runErr := g.Run(context.Background(), nil); runErr == nil {
			t.Fatalf("%s: Run accepted an invalid grid", tc.name)
		}
	}
	if err := (Config{Seeds: -1}).Validate(); err == nil {
		t.Fatal("negative Config.Seeds accepted")
	}
	if err := (Config{Workers: -1}).Validate(); err == nil {
		t.Fatal("negative Config.Workers accepted")
	}
}

// TestGridStreamsInOrder: cells arrive at the callback in strictly
// increasing full-grid index order at any worker count, each fully
// populated.
func TestGridStreamsInOrder(t *testing.T) {
	g := &Grid{
		Heuristics: []string{"Subtree-bottom-up", "Comp-Greedy"},
		Xs:         []float64{10, 20, 30},
		Seeds:      2,
		BaseSeed:   1,
		Workers:    8,
		Make: MakeInstances(func(x float64) instance.Config {
			return instance.Config{NumOps: int(x), Alpha: 0.9}
		}),
	}
	next := 0
	err := g.Run(context.Background(), func(c Cell) {
		if c.Index != next {
			t.Fatalf("emitted index %d, want %d", c.Index, next)
		}
		wantH := g.Heuristics[c.Index/(len(g.Xs)*g.Seeds)]
		if c.Heuristic != wantH {
			t.Fatalf("cell %d heuristic %q, want %q", c.Index, c.Heuristic, wantH)
		}
		if c.Err == nil && c.Cost <= 0 {
			t.Fatalf("cell %d: feasible with cost %v", c.Index, c.Cost)
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != g.Size() {
		t.Fatalf("emitted %d cells, want %d", next, g.Size())
	}
}

// TestGridVerifyColumn: the opt-in verification column executes
// feasible cells on the stream engine without perturbing the solve.
func TestGridVerifyColumn(t *testing.T) {
	mk := MakeInstances(func(x float64) instance.Config {
		return instance.Config{NumOps: int(x), Alpha: 1.1}
	})
	plain := &Grid{
		Heuristics: []string{"Subtree-bottom-up"}, Xs: []float64{15}, Seeds: 3, BaseSeed: 1, Make: mk,
	}
	verified := &Grid{
		Heuristics: []string{"Subtree-bottom-up"}, Xs: []float64{15}, Seeds: 3, BaseSeed: 1, Make: mk,
		Verify: &stream.Options{Results: 60},
	}
	pc, err := plain.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vc, err := verified.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pc {
		if pc[i].Cost != vc[i].Cost || pc[i].Procs != vc[i].Procs {
			t.Fatalf("cell %d: verification changed the solve: %+v vs %+v", i, pc[i], vc[i])
		}
		if pc[i].Err != nil {
			continue
		}
		v := &vc[i]
		if v.VerifyErr != nil {
			t.Fatalf("cell %d: simulation failed: %v", i, v.VerifyErr)
		}
		if v.Rho <= 0 || v.Measured <= 0 || v.Analytic <= 0 {
			t.Fatalf("cell %d: verification column empty: %+v", i, v)
		}
		if !v.MeetsRho() {
			t.Fatalf("cell %d: feasible mapping missed rho: measured %v, rho %v", i, v.Measured, v.Rho)
		}
	}
}

// TestSweepSteadyStateAllocs gates the arena payoff at the sweep level:
// a warmed fig2a-shaped sweep must run in a small fraction of the
// pre-arena ~4.7k allocs (the residue is per-solve tree traversals and
// per-figure series assembly, not per-cell mapping state).
func TestSweepSteadyStateAllocs(t *testing.T) {
	cfg := Config{Seeds: 1, BaseSeed: 1, Workers: 1}
	Fig2a(cfg) // warm shared platform caches
	allocs := testing.AllocsPerRun(3, func() { Fig2a(cfg) })
	// Measured ~1.7k today (49 cells; the residue is heuristic-internal
	// sort scratch). The 2k bound catches any arena regression back
	// toward the old per-cell mapping allocations; the exact count is
	// gated strictly by cmd/bench against BENCH_baseline.json.
	if allocs > 2000 {
		t.Fatalf("fig2a sweep allocates %.0f allocs/run, want <= 2000 (pre-arena baseline ~4700)", allocs)
	}
}

// TestDecodeRejectsBadShardHeader: a corrupted cells artifact whose
// shard index escapes its count fails decode cleanly instead of
// panicking the merge.
func TestDecodeRejectsBadShardHeader(t *testing.T) {
	bad := "# streamalloc-cells/v1 fig=fig2a shard=5/2 seeds=2 baseseed=1 units=1\n" +
		"# unit index seed ok cost procs\n0 5 1 1 100 1\n"
	if _, err := DecodeShardCells(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad shard header decoded: %v", err)
	}
	// Defense in depth: MergeFigure rejects an out-of-range part even if
	// it arrives by construction rather than decode.
	cfg := Config{Seeds: 2, BaseSeed: 1}
	parts := []*ShardCells{{FigID: "fig2a", Shard: Shard{Index: 5, Count: 2}, Seeds: 2, BaseSeed: 1, Units: make([][]Cell, 1)}}
	if _, err := MergeFigure("fig2a", cfg, parts); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range shard part merged: %v", err)
	}
}

// TestCheckShardCells: Check accepts a shard's own cells and rejects a
// part that names another figure, shard or seed count, or whose units
// miss, repeat, reorder or overrun the shard's cell indices — the cases
// that would otherwise fail (or corrupt) a merge.
func TestCheckShardCells(t *testing.T) {
	cfg := Config{Seeds: 2, BaseSeed: 1}
	sh := Shard{Index: 1, Count: 3}
	good, err := RunFigureShard(context.Background(), "fig2a", cfg, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Check("fig2a", cfg, sh); err != nil {
		t.Fatalf("own cells rejected: %v", err)
	}
	cells := good.Units[0]
	for _, tc := range []struct {
		name string
		edit func(sc *ShardCells)
		want string
	}{
		{"figure", func(sc *ShardCells) { sc.FigID = "fig2b" }, "belong to figure"},
		{"shard", func(sc *ShardCells) { sc.Shard.Index = 2 }, "cover shard"},
		{"seeds", func(sc *ShardCells) { sc.Seeds = 3 }, "ran with seeds"},
		{"units", func(sc *ShardCells) { sc.Units = nil }, "sweep units"},
		{"missing", func(sc *ShardCells) { sc.Units[0] = cells[:len(cells)-1] }, "lacks cell"},
		{"repeated", func(sc *ShardCells) { sc.Units[0] = append(cells[:1:1], cells[:len(cells)-1]...) }, "holds cell"},
		{"reordered", func(sc *ShardCells) { sc.Units[0] = append([]Cell{cells[1], cells[0]}, cells[2:]...) }, "holds cell"},
		{"overrun", func(sc *ShardCells) {
			sc.Units[0] = append(cells[:len(cells):len(cells)], Cell{Index: cells[len(cells)-1].Index + sh.Count})
		}, "holds cell"},
	} {
		bad := *good
		bad.Units = [][]Cell{cells}
		tc.edit(&bad)
		if err := bad.Check("fig2a", cfg, sh); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
