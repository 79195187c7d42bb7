package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fast config keeps test runtime reasonable.
var fast = Config{Seeds: 3, BaseSeed: 1}

// mustBuild runs one registered figure, failing the test on error.
func mustBuild(t *testing.T, id string, cfg Config) *Figure {
	t.Helper()
	fig, err := BuildFigure(context.Background(), id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// TestEveryFigureBuilds builds every registered figure at one seed,
// serially and on three workers: both builds must succeed with
// byte-identical .dat output, and every series must hold one point per
// x of one of the figure's sweep grids, in grid order.
func TestEveryFigureBuilds(t *testing.T) {
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			cfg := Config{Seeds: 1, BaseSeed: 1, Workers: 1}
			serial := mustBuild(t, id, cfg)
			cfg.Workers = 3
			if got, want := mustBuild(t, id, cfg).Dat(), serial.Dat(); got != want {
				t.Fatalf("workers=3 .dat diverges from serial:\n--- serial ---\n%s--- workers=3 ---\n%s", want, got)
			}
			def, err := figDefByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var grids [][]float64
			for _, u := range def.units {
				grids = append(grids, u.grid(cfg).Xs)
			}
			if len(serial.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range serial.Series {
				xs := make([]float64, len(s.Points))
				for i, p := range s.Points {
					xs[i] = p.X
				}
				if !slices.ContainsFunc(grids, func(g []float64) bool { return slices.Equal(g, xs) }) {
					t.Errorf("series %q has points at %v, want one per x of a grid %v", s.Label, xs, grids)
				}
			}
		})
	}
}

func TestFig2aShape(t *testing.T) {
	fig := Fig2a(fast)
	if len(fig.Series) != 7 {
		t.Fatalf("want 7 series (6 heuristics + nofold), got %d", len(fig.Series))
	}
	// Paper shape: Random is the most expensive curve; Subtree-bottom-up
	// is the cheapest (or tied) wherever both are feasible.
	rnd := fig.SeriesByLabel("Random")
	sbu := fig.SeriesByLabel("Subtree-bottom-up")
	if rnd == nil || sbu == nil {
		t.Fatal("missing expected series")
	}
	compared := 0
	for i := range rnd.Points {
		if math.IsNaN(rnd.Points[i].Mean) || math.IsNaN(sbu.Points[i].Mean) {
			continue
		}
		compared++
		if sbu.Points[i].Mean > rnd.Points[i].Mean {
			t.Fatalf("N=%v: Subtree-bottom-up (%v) above Random (%v)",
				rnd.Points[i].X, sbu.Points[i].Mean, rnd.Points[i].Mean)
		}
	}
	if compared == 0 {
		t.Fatal("no comparable points")
	}
	// Ranking: Subtree-bottom-up among the cheapest, Random the last of
	// the paper heuristics.
	rank := fig.Ranking()
	if len(rank) == 0 || rank[len(rank)-1] != "Random" {
		t.Fatalf("ranking = %v, want Random last", rank)
	}
}

func TestFig3Thresholds(t *testing.T) {
	fig := Fig3(Config{Seeds: 3, BaseSeed: 1})
	sbu := fig.SeriesByLabel("Subtree-bottom-up")
	if sbu == nil {
		t.Fatal("missing Subtree-bottom-up")
	}
	// Paper shape at N=60: feasible and flat at low alpha, cost rises near
	// alpha ~1.6-1.8, everything infeasible by alpha ~1.9-2.
	lowIdx, highIdx := -1, -1
	for i, p := range sbu.Points {
		if p.X <= 1.1 && !math.IsNaN(p.Mean) {
			lowIdx = i
		}
		if p.X >= 2.3 {
			highIdx = i
		}
	}
	if lowIdx < 0 {
		t.Fatal("no feasible low-alpha point")
	}
	if highIdx >= 0 && sbu.Points[highIdx].Fails != sbu.Points[highIdx].Runs {
		t.Fatalf("alpha=%v should be infeasible, got %d/%d fails",
			sbu.Points[highIdx].X, sbu.Points[highIdx].Fails, sbu.Points[highIdx].Runs)
	}
}

func TestLargeObjectsFeasibilityCliff(t *testing.T) {
	fig := mustBuild(t, "large", Config{Seeds: 3, BaseSeed: 1})
	sbu := fig.SeriesByLabel("Subtree-bottom-up")
	small, large := -1, -1
	for i, p := range sbu.Points {
		if p.X == 5 {
			small = i
		}
		if p.X == 60 {
			large = i
		}
	}
	if sbu.Points[small].Fails == sbu.Points[small].Runs {
		t.Fatal("5-node large-object trees should mostly be feasible")
	}
	if sbu.Points[large].Fails != sbu.Points[large].Runs {
		t.Fatal("60-node large-object trees should be infeasible (paper: cliff at ~45)")
	}
}

func TestFrequencyPlateau(t *testing.T) {
	fig := mustBuild(t, "freq", Config{Seeds: 3, BaseSeed: 1})
	sbu := fig.SeriesByLabel("Subtree-bottom-up")
	// The paper: periods beyond 10s change nothing. Compare 10s vs 50s.
	var at10, at50 float64 = math.NaN(), math.NaN()
	for _, p := range sbu.Points {
		if p.X == 10 {
			at10 = p.Mean
		}
		if p.X == 50 {
			at50 = p.Mean
		}
	}
	if math.IsNaN(at10) || math.IsNaN(at50) {
		t.Fatal("missing frequency points")
	}
	if math.Abs(at10-at50)/at10 > 0.25 {
		t.Fatalf("cost at 10s (%v) and 50s (%v) differ too much: no plateau", at10, at50)
	}
}

// TestSweepDeterministicAcrossWorkers is the tentpole's contract: the
// parallel sweep must render byte-identical .dat output to the serial
// path at every worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := Fig2a(Config{Seeds: 2, BaseSeed: 1, Workers: 1}).Dat()
	for _, workers := range []int{0, 4, 8} {
		got := Fig2a(Config{Seeds: 2, BaseSeed: 1, Workers: workers}).Dat()
		if got != serial {
			t.Fatalf("workers=%d output diverges from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, got)
		}
	}
	// Same contract for the selection ablation, which has its own fan-out.
	serialAbl := mustBuild(t, "abl-selection", Config{Seeds: 2, BaseSeed: 1, Workers: 1}).Dat()
	if got := mustBuild(t, "abl-selection", Config{Seeds: 2, BaseSeed: 1, Workers: 8}).Dat(); got != serialAbl {
		t.Fatalf("ablation diverges:\n--- serial ---\n%s--- parallel ---\n%s", serialAbl, got)
	}
}

// TestTablesDeterministicAcrossWorkers pins the parallel V1 harness to
// the serial rendering.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	serial := ThroughputValidation(Config{Seeds: 2, BaseSeed: 1, Workers: 1}).String()
	if got := ThroughputValidation(Config{Seeds: 2, BaseSeed: 1, Workers: 8}).String(); got != serial {
		t.Fatalf("V1 table diverges:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
}

func TestDatAndASCII(t *testing.T) {
	fig := Fig2a(Config{Seeds: 2, BaseSeed: 5})
	dat := fig.Dat()
	if !strings.Contains(dat, "# Figure 2(a)") || !strings.Contains(dat, "Subtree-bottom-up") {
		t.Fatalf("bad dat output:\n%s", dat)
	}
	lines := strings.Split(strings.TrimSpace(dat), "\n")
	if len(lines) != 2+len(nRange()) {
		t.Fatalf("dat has %d lines, want %d", len(lines), 2+len(nRange()))
	}
	ascii := fig.ASCII(60, 12)
	if !strings.Contains(ascii, "Figure 2(a)") {
		t.Fatalf("bad ascii output:\n%s", ascii)
	}
}

func TestTable1Output(t *testing.T) {
	tab := Table1()
	out := tab.String()
	for _, want := range []string{"46.88 GHz", "20 Gbps", "7548 + 5999", "7548 + 5299"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Table 1 has %d rows, want 10", len(tab.Rows))
	}
}

func TestOptimalComparison(t *testing.T) {
	tab := OptimalComparison(Config{Seeds: 2, BaseSeed: 3})
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Column order: N alpha LB(analytic) LB(ILP) optimal Subtree ...
	for _, row := range tab.Rows {
		var lb, opt, sbu float64
		if _, err := fmtSscan(row[2], &lb); err != nil {
			t.Fatalf("bad LB cell %q", row[2])
		}
		if _, err := fmtSscan(row[4], &opt); err != nil {
			t.Fatalf("bad optimal cell %q", row[4])
		}
		if lb > opt+1e-9 {
			t.Fatalf("analytic LB %v above optimal %v", lb, opt)
		}
		if row[5] != "-" {
			if _, err := fmtSscan(row[5], &sbu); err != nil {
				t.Fatalf("bad subtree cell %q", row[5])
			}
			if sbu < opt-1e-9 {
				t.Fatalf("Subtree-bottom-up %v below optimal %v", sbu, opt)
			}
		}
	}
	if tab.String() == "" {
		t.Fatal("empty render")
	}
}

func TestThroughputValidation(t *testing.T) {
	tab := ThroughputValidation(Config{Seeds: 2, BaseSeed: 1})
	if len(tab.Rows) != 3*6 {
		t.Fatalf("rows = %d, want 18", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[5] == "false" {
			t.Fatalf("mapping failed to meet rho: %v", row)
		}
	}
}

func TestILPScalingNote(t *testing.T) {
	n, err := ILPScalingNote()
	if err != nil {
		t.Fatal(err)
	}
	// The paper could not load N=30; our wall must be in the same regime
	// (somewhere between 10 and 120 operators).
	if n < 10 || n > 120 {
		t.Fatalf("ILP wall at N=%d, outside the plausible regime", n)
	}
}

// fmtSscan wraps fmt.Sscan to keep the test imports tidy.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestRefineFigure covers the PR 8 figure end to end: the grid runs, the
// per-cell dominance gate holds, and the sharded run reassembles the
// byte-identical .dat at any worker count.
func TestRefineFigure(t *testing.T) {
	cfg := Config{Seeds: 3, BaseSeed: 1}
	checked, err := RefineGate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("refine gate checked no instances")
	}

	full, err := BuildFigure(context.Background(), "refine", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Dat()
	if got := len(full.Series); got != 9 {
		t.Fatalf("want 9 series (7 heuristic set + Refined + Exact), got %d", got)
	}
	for _, workers := range []int{1, 3} {
		for _, shards := range []int{1, 2, 3} {
			c := cfg
			c.Workers = workers
			parts := make([]*ShardCells, 0, shards)
			for i := 0; i < shards; i++ {
				sc, err := RunFigureShard(context.Background(), "refine", c, Shard{Index: i, Count: shards})
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, sc)
			}
			fig, err := MergeFigure("refine", c, parts)
			if err != nil {
				t.Fatal(err)
			}
			if got := fig.Dat(); got != want {
				t.Fatalf("workers=%d shards=%d: merged .dat differs from unsharded run\ngot:\n%s\nwant:\n%s",
					workers, shards, got, want)
			}
		}
	}
}
