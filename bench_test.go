// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index). Each benchmark measures the cost of
// one full experiment run and, once per run, logs the series/table it
// produced so `go test -bench . -v` doubles as the reproduction harness.
// cmd/experiments emits the same data as .dat files and ASCII plots.
package streamalloc_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apptree"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/multiapp"
	"repro/internal/rewrite"
	"repro/internal/rng"
	"repro/internal/stream"
)

// benchCfg keeps benchmark iterations affordable; cmd/experiments uses the
// full 10-seed configuration.
var benchCfg = experiments.Config{Seeds: 3, BaseSeed: 1}

var logOnce sync.Map

func logFigure(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	if _, dup := logOnce.LoadOrStore(fig.ID, true); !dup {
		b.Logf("\n%s\n%s", fig.Dat(), fig.ASCII(72, 16))
	}
}

// buildFigure runs one registered figure at benchCfg.
func buildFigure(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	fig, err := experiments.BuildFigure(context.Background(), id, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	return fig
}

// BenchmarkFig2aCostVsN regenerates Figure 2(a): cost vs N at alpha=0.9,
// high download frequency, small objects (experiment E1).
func BenchmarkFig2aCostVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, experiments.Fig2a(benchCfg))
	}
}

// BenchmarkFig2bCostVsN regenerates Figure 2(b): alpha=1.7 (E2).
func BenchmarkFig2bCostVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, experiments.Fig2b(benchCfg))
	}
}

// BenchmarkFig3CostVsAlpha regenerates Figure 3: cost vs alpha, N=60 (E3).
func BenchmarkFig3CostVsAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, experiments.Fig3(benchCfg))
	}
}

// BenchmarkFig3SmallTreeCostVsAlpha regenerates the Section 5 companion
// sweep at N=20 (E3b).
func BenchmarkFig3SmallTreeCostVsAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, buildFigure(b, "fig3n20"))
	}
}

// BenchmarkLargeObjectsCostVsN regenerates the large-object experiment
// (E4): feasibility collapses beyond a modest tree size.
func BenchmarkLargeObjectsCostVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, buildFigure(b, "large"))
	}
}

// BenchmarkFrequencySweep regenerates the download-rate experiment (E5):
// costs plateau for update periods beyond ~10s.
func BenchmarkFrequencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, buildFigure(b, "freq"))
	}
}

// BenchmarkOptimalComparison regenerates the paper's last experiment (E6):
// heuristics vs the exact optimum and the ILP bound, CONSTR-HOM.
func BenchmarkOptimalComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.OptimalComparison(experiments.Config{Seeds: 2, BaseSeed: 1})
		if _, dup := logOnce.LoadOrStore(tab.ID, true); !dup {
			b.Logf("\n%s", tab.String())
		}
	}
}

// BenchmarkCatalogLookup covers Table 1 (E7): the catalog data and its
// cheapest-fitting query used by the downgrade step.
func BenchmarkCatalogLookup(b *testing.B) {
	tab := experiments.Table1()
	if _, dup := logOnce.LoadOrStore(tab.ID, true); !dup {
		b.Logf("\n%s", tab.String())
	}
	in := instance.Generate(instance.Config{NumOps: 10}, 1)
	cat := in.Platform.Catalog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cat.CheapestFitting(float64(i%300000), float64(i%2500)); !ok && i%300000 < 280000 {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkAblationDowngrade regenerates ablation A1 (downgrade on/off).
func BenchmarkAblationDowngrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, buildFigure(b, "abl-downgrade"))
	}
}

// BenchmarkAblationServerSelection regenerates ablation A2 (three-loop vs
// random server selection).
func BenchmarkAblationServerSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logFigure(b, buildFigure(b, "abl-selection"))
	}
}

// BenchmarkThroughputValidation regenerates V1: stream-engine execution of
// every heuristic's mappings.
func BenchmarkThroughputValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.ThroughputValidation(experiments.Config{Seeds: 2, BaseSeed: 1})
		if _, dup := logOnce.LoadOrStore(tab.ID, true); !dup {
			b.Logf("\n%s", tab.String())
		}
	}
}

// Parallel-engine benchmarks: the serial/parallel pairs below share one
// workload, so their ns/op ratio is the speedup of the worker pool.
// Acceptance: BenchmarkSweepParallel ≥ 2x BenchmarkSweepSerial at 4
// workers on a 4-core runner (outputs are byte-identical either way —
// see TestSweepDeterministicAcrossWorkers).

func BenchmarkSweepSerial(b *testing.B) {
	cfg := benchCfg
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		experiments.Fig2a(cfg)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	cfg := benchCfg
	cfg.Workers = 4
	for i := 0; i < b.N; i++ {
		experiments.Fig2a(cfg)
	}
}

func BenchmarkSolveAllSerial(b *testing.B) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	s := core.Solver{Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SolveAll(in)
	}
}

func BenchmarkSolveAllParallel(b *testing.B) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	s := core.Solver{Workers: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SolveAll(in)
	}
}

func BenchmarkSolveBatch(b *testing.B) {
	ins := make([]*instance.Instance, 16)
	for i := range ins {
		ins[i] = instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9}, int64(i+1))
	}
	var s core.Solver // portfolio + batch workers at GOMAXPROCS
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveBatch(context.Background(), ins)
	}
}

func BenchmarkSimulateBatch(b *testing.B) {
	var ms []*mapping.Mapping
	for seed := int64(1); seed <= 8; seed++ {
		in := instance.Generate(instance.Config{NumOps: 20, Alpha: 1.1}, seed)
		res, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: seed})
		if err != nil {
			continue
		}
		ms = append(ms, res.Mapping)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.SimulateBatch(context.Background(), ms, stream.Options{Results: 60}, 0)
	}
}

// Micro-benchmarks for the core solver components.

func BenchmarkSubtreeBottomUpN60(b *testing.B) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompGreedyN60(b *testing.B) {
	in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Solve(in, heuristics.CompGreedy{}, heuristics.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceGenerationN140(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instance.Generate(instance.Config{NumOps: 140, Alpha: 0.9}, int64(i))
	}
}

// Benchmarks for the future-work extensions (DESIGN.md F1/F2).

func BenchmarkMultiAppCombine(b *testing.B) {
	base := instance.Generate(instance.Config{NumOps: 5}, 11)
	w := multiapp.Workload{
		NumTypes: base.NumTypes, Sizes: base.Sizes, Freqs: base.Freqs,
		Holders: base.Holders, Platform: base.Platform, Alpha: 1.1,
	}
	apps := []multiapp.App{
		{Tree: apptree.Random(rng.New(1), 10, w.NumTypes), Rho: 1},
		{Tree: apptree.Random(rng.New(2), 10, w.NumTypes), Rho: 4},
		{Tree: apptree.Random(rng.New(3), 10, w.NumTypes), Rho: 0.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := multiapp.Combine(apps, w)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanRewrite(b *testing.B) {
	in := instance.Generate(instance.Config{NumOps: 40, Alpha: 1.5}, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Optimize(in, heuristics.SubtreeBottomUp{}, heuristics.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
