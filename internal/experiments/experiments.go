// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the text-described experiments and this
// repository's ablations. Each experiment is a pure function of a Config,
// so benchmark and CLI output are identical and reproducible.
//
// Since the Grid redesign every figure is a declarative definition — one
// or more sweep Grids plus a fold from cells to series — evaluated by
// the shared engine in grid.go. That is what makes figures shardable
// across machines (RunFigureShard / MergeFigure reassemble byte-identical
// .dat output from disjoint cell sets) and verifiable (Config.Verify
// executes every feasible cell on the stream engine).
//
// The experiment index in docs/ARCHITECTURE.md maps the IDs E1-E8,
// A1-A3, V1 and F1-F2 onto figure and table ids and the tests that
// check them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/textplot"
)

// Config controls an experiment run.
type Config struct {
	Seeds    int   // instances averaged per point (default 10)
	BaseSeed int64 // first seed
	// Workers bounds the sweep's concurrency: <= 0 means GOMAXPROCS, 1
	// forces the serial path. Every (heuristic, x, seed) work item
	// regenerates its own instance and derives its own rng substream
	// from its seed, so figures are byte-identical at any worker count.
	Workers int
	// Verify executes every feasible figure cell on the discrete-event
	// stream engine and attaches a VerifySummary to the figure. The
	// .dat output is unchanged (simulation never perturbs the solve).
	Verify bool
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 10
	}
	return c
}

// Validate rejects configurations that would silently degrade into
// empty or misleading output. Zero values remain valid (withDefaults
// fills them); explicit negatives are user error and reported as such.
func (c Config) Validate() error {
	if c.Seeds < 0 {
		return fmt.Errorf("experiments: Seeds must be positive (or 0 for the default 10), got %d", c.Seeds)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be >= 0 (0 means one per CPU), got %d", c.Workers)
	}
	return nil
}

// Point is one x position of one series.
type Point struct {
	X     float64
	Mean  float64 // mean cost over feasible runs (NaN when none)
	CI    float64 // 95% confidence half-width
	Fails int     // runs with no feasible mapping
	Runs  int
}

// Series is one heuristic's curve.
type Series struct {
	Label  string
	Points []Point
}

// VerifySummary aggregates the stream-engine verification column of a
// figure run with Config.Verify: every feasible cell's mapping was
// executed and its measured steady-state throughput compared against
// the instance's QoS target rho (by stream.MeetsTarget) and against the
// analytic bound.
type VerifySummary struct {
	Cells    int     // feasible cells executed on the stream engine
	MeetRho  int     // cells whose measured throughput meets rho (MeetsRho)
	SimFails int     // stream-engine failures (event budget, etc.)
	MinRatio float64 // min measured/rho over simulated cells (+Inf when none)
	MaxDrift float64 // max |measured-analytic|/analytic over simulated cells
}

// String renders the one-line sweep verification verdict.
func (v *VerifySummary) String() string {
	return fmt.Sprintf("verify: %d/%d simulated cells meet rho (%d sim failures, min measured/rho %.3f, max analytic drift %.1f%%)",
		v.MeetRho, v.Cells, v.SimFails, v.MinRatio, 100*v.MaxDrift)
}

// add folds one feasible cell into the summary.
func (v *VerifySummary) add(c *Cell) {
	v.Cells++
	if c.VerifyErr != nil {
		v.SimFails++
		return
	}
	if c.MeetsRho() {
		v.MeetRho++
	}
	if ratio := c.Measured / c.Rho; ratio < v.MinRatio {
		v.MinRatio = ratio
	}
	if c.Analytic > 0 {
		if drift := math.Abs(c.Measured-c.Analytic) / c.Analytic; drift > v.MaxDrift {
			v.MaxDrift = drift
		}
	}
}

// Figure is a reproduced paper figure.
type Figure struct {
	ID     string // e.g. "fig2a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Verify *VerifySummary // non-nil after a Config.Verify run
}

// heuristicSet returns the names of the paper's six heuristics plus the
// A3 conservative-merging variant of Subtree-bottom-up, in plot order.
func heuristicSet() []string {
	var names []string
	for _, h := range heuristics.All() {
		names = append(names, h.Name())
	}
	return append(names, heuristics.SubtreeBottomUp{DisableFold: true}.Name())
}

// nRange is the paper's x-axis for Figure 2: N in 20..140.
func nRange() []float64 { return []float64{20, 40, 60, 80, 100, 120, 140} }

// alphaRange is the paper's x-axis for Figure 3.
func alphaRange() []float64 {
	var xs []float64
	for a := 0.5; a <= 2.51; a += 0.2 {
		xs = append(xs, math.Round(a*100)/100)
	}
	return xs
}

// seriesFold reduces one unit's full grid of cells (index order, length
// grid.Size()) to plot series.
type seriesFold func(g *Grid, cells []Cell) []Series

// unitDef is one sweep of a figure: a grid builder plus its fold. Most
// figures are a single unit; ablations run one unit per variant.
type unitDef struct {
	grid func(cfg Config) *Grid
	fold seriesFold
}

// figDef is a declarative figure: metadata plus its sweep units.
type figDef struct {
	id, title, xlabel, ylabel string
	units                     []unitDef
}

// stdGrid assembles the common figure grid: the full heuristic set over
// xs with the Config's seeds/workers and an instance factory.
func stdGrid(cfg Config, xs []float64, cfgOf func(x float64) instance.Config) *Grid {
	return &Grid{
		Heuristics: heuristicSet(),
		Xs:         xs,
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
		Workers:    cfg.Workers,
		Make:       MakeInstances(cfgOf),
	}
}

// meanSeries is the standard fold: per (heuristic, x), mean cost and
// 95% CI over the feasible repetitions, NaN when none.
func meanSeries(g *Grid, cells []Cell) []Series {
	nx, ns := len(g.Xs), g.Seeds
	series := make([]Series, len(g.Heuristics))
	costs := make([]float64, 0, ns) // shared gather buffer; stats copy nothing out
	for hi, name := range g.Heuristics {
		series[hi].Label = name
		series[hi].Points = make([]Point, 0, nx)
		for xi, x := range g.Xs {
			costs = costs[:0]
			fails := 0
			for s := 0; s < ns; s++ {
				c := &cells[(hi*nx+xi)*ns+s]
				if c.Err != nil {
					fails++
					continue
				}
				costs = append(costs, c.Cost)
			}
			pt := Point{X: x, Fails: fails, Runs: ns, Mean: math.NaN()}
			if len(costs) > 0 {
				pt.Mean = stats.Mean(costs)
				pt.CI = stats.CI95(costs)
			}
			series[hi].Points = append(series[hi].Points, pt)
		}
	}
	return series
}

// relabeled wraps a fold, rewriting every series label through rename.
func relabeled(fold seriesFold, rename func(label string) string) seriesFold {
	return func(g *Grid, cells []Cell) []Series {
		series := fold(g, cells)
		for i := range series {
			series[i].Label = rename(series[i].Label)
		}
		return series
	}
}

// feasSeries folds a single-heuristic grid into one feasibility-count
// series (the A2 ablation's y-axis).
func feasSeries(label string) seriesFold {
	return func(g *Grid, cells []Cell) []Series {
		s := Series{Label: label, Points: make([]Point, 0, len(g.Xs))}
		ns := g.Seeds
		for xi, x := range g.Xs {
			ok := 0
			for i := 0; i < ns; i++ {
				if cells[xi*ns+i].Err == nil {
					ok++
				}
			}
			s.Points = append(s.Points, Point{X: x, Mean: float64(ok), Runs: ns, Fails: ns - ok})
		}
		return []Series{s}
	}
}

// figDefs returns every figure definition, in the CLI's order.
func figDefs() []figDef {
	paperSweep := func(xs []float64, cfgOf func(x float64) instance.Config) []unitDef {
		return []unitDef{{
			grid: func(cfg Config) *Grid { return stdGrid(cfg, xs, cfgOf) },
			fold: meanSeries,
		}}
	}
	defs := []figDef{
		{
			id: "fig2a", title: "Figure 2(a): cost vs N (alpha=0.9, f=1/2s, small objects)",
			xlabel: "number of nodes", ylabel: "cost ($)",
			units: paperSweep(nRange(), func(x float64) instance.Config {
				return instance.Config{NumOps: int(x), Alpha: 0.9}
			}),
		},
		{
			id: "fig2b", title: "Figure 2(b): cost vs N (alpha=1.7, f=1/2s, small objects)",
			xlabel: "number of nodes", ylabel: "cost ($)",
			units: paperSweep(nRange(), func(x float64) instance.Config {
				return instance.Config{NumOps: int(x), Alpha: 1.7}
			}),
		},
		{
			id: "fig3", title: "Figure 3: cost vs alpha (N=60, f=1/2s, small objects)",
			xlabel: "alpha", ylabel: "cost ($)",
			units: paperSweep(alphaRange(), func(x float64) instance.Config {
				return instance.Config{NumOps: 60, Alpha: x}
			}),
		},
		{
			id: "fig3n20", title: "cost vs alpha (N=20, f=1/2s, small objects)",
			xlabel: "alpha", ylabel: "cost ($)",
			units: paperSweep(alphaRange(), func(x float64) instance.Config {
				return instance.Config{NumOps: 20, Alpha: x}
			}),
		},
		{
			id: "large", title: "cost vs N (alpha=0.9, f=1/2s, LARGE objects 450-530MB)",
			xlabel: "number of nodes", ylabel: "cost ($)",
			units: paperSweep([]float64{5, 10, 15, 20, 30, 45, 60}, func(x float64) instance.Config {
				return instance.Config{NumOps: int(x), Alpha: 0.9, SizeMin: 450, SizeMax: 530}
			}),
		},
		{
			id: "freq", title: "cost vs update period 1/f (N=60, alpha=0.9, small objects)",
			xlabel: "update period (s)", ylabel: "cost ($)",
			units: paperSweep([]float64{2, 5, 10, 20, 50}, func(x float64) instance.Config {
				return instance.Config{NumOps: 60, Alpha: 0.9, Freq: 1 / x}
			}),
		},
	}
	defs = append(defs, refineDef(), churnDef(), ablationDowngradeDef(), ablationSelectionDef())
	return defs
}

// ablationDowngradeDef (A1) isolates the paper's third pipeline step:
// the same placements with and without the downgrade step. Only
// Subtree-bottom-up and Comp-Greedy are swept (the effect is uniform
// across heuristics and the figure stays readable); per-cell results
// are independent across heuristics, so the curves are identical to a
// full-set sweep filtered down.
func ablationDowngradeDef() figDef {
	def := figDef{
		id: "abl-downgrade", title: "Ablation A1: downgrade step on/off (alpha=0.9)",
		xlabel: "number of nodes", ylabel: "cost ($)",
	}
	for _, variant := range []struct {
		label string
		skip  bool
	}{{"with downgrade", false}, {"without downgrade", true}} {
		skip, label := variant.skip, variant.label
		def.units = append(def.units, unitDef{
			grid: func(cfg Config) *Grid {
				g := stdGrid(cfg, nRange(), func(x float64) instance.Config {
					return instance.Config{NumOps: int(x), Alpha: 0.9}
				})
				g.Heuristics = []string{"Comp-Greedy", "Subtree-bottom-up"}
				g.Opts = func(string) heuristics.Options {
					return heuristics.Options{SkipDowngrade: skip}
				}
				return g
			},
			fold: relabeled(meanSeries, func(l string) string { return l + " (" + label + ")" }),
		})
	}
	return def
}

// ablationSelectionDef (A2) compares the paper's three-loop server
// selection with the naive random selection on the same placements.
func ablationSelectionDef() figDef {
	def := figDef{
		id: "abl-selection", title: "Ablation A2: three-loop vs random server selection (alpha=0.9)",
		xlabel: "number of nodes", ylabel: "feasible runs (of Seeds)",
	}
	for _, variant := range []struct {
		label string
		mode  heuristics.ServerSelectionMode
	}{{"three-loop", heuristics.SelectThreeLoop}, {"random", heuristics.SelectRandom}} {
		mode, label := variant.mode, variant.label
		def.units = append(def.units, unitDef{
			grid: func(cfg Config) *Grid {
				g := stdGrid(cfg, nRange(), func(x float64) instance.Config {
					return instance.Config{NumOps: int(x), Alpha: 0.9}
				})
				g.Heuristics = []string{"Subtree-bottom-up"}
				g.Opts = func(string) heuristics.Options {
					return heuristics.Options{Selection: mode}
				}
				return g
			},
			fold: feasSeries("Subtree-bottom-up (" + label + ")"),
		})
	}
	return def
}

// FigureIDs lists every figure id, in the CLI's order.
func FigureIDs() []string {
	var ids []string
	for _, def := range figDefs() {
		ids = append(ids, def.id)
	}
	return ids
}

func figDefByID(id string) (figDef, error) {
	for _, def := range figDefs() {
		if def.id == id {
			return def, nil
		}
	}
	return figDef{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, FigureIDs())
}

// BuildFigure runs the figure's full grid(s) and folds the cells into
// the Figure — the one path behind the legacy Fig2a-style wrappers, the
// CLI and the shard merge, so their outputs are identical by
// construction. Cancelling ctx aborts the sweep between cells (the
// same contract as Grid.Run), which is how coordinator-driven runs
// stop cleanly.
func BuildFigure(ctx context.Context, id string, cfg Config) (*Figure, error) {
	def, err := figDefByID(id)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fig := def.newFigure()
	var verify *VerifySummary
	if cfg.Verify {
		verify = &VerifySummary{MinRatio: math.Inf(1)}
	}
	for _, u := range def.units {
		g := u.grid(cfg)
		// Eval-driven grids (churn) have no per-cell mapping to execute
		// on the stream engine; the verification column skips them.
		if verify != nil && g.Eval == nil {
			g.Verify = &stream.Options{Results: 80}
		}
		cells, err := g.Cells(ctx)
		if err != nil {
			return nil, err
		}
		if verify != nil && g.Eval == nil {
			for i := range cells {
				if cells[i].Err == nil {
					verify.add(&cells[i])
				}
			}
		}
		fig.Series = append(fig.Series, u.fold(g, cells)...)
	}
	fig.Verify = verify
	return fig, nil
}

// grids builds the figure's sweep-unit grids under cfg.
func (def figDef) grids(cfg Config) []*Grid {
	gs := make([]*Grid, len(def.units))
	for i, u := range def.units {
		gs[i] = u.grid(cfg)
	}
	return gs
}

func (def figDef) newFigure() *Figure {
	return &Figure{ID: def.id, Title: def.title, XLabel: def.xlabel, YLabel: def.ylabel}
}

// mustFigure backs the Fig2a/Fig2b/Fig3 wrappers, whose signatures
// predate the error-returning Grid engine; their inputs are static and
// valid.
func mustFigure(id string, cfg Config) *Figure {
	fig, err := BuildFigure(context.Background(), id, cfg)
	if err != nil {
		panic(err)
	}
	return fig
}

// Fig2a reproduces Figure 2(a): cost versus N, alpha=0.9, high download
// frequency (1/2 s), small objects (5-30 MB).
func Fig2a(cfg Config) *Figure { return mustFigure("fig2a", cfg) }

// Fig2b reproduces Figure 2(b): as Fig2a with alpha=1.7.
func Fig2b(cfg Config) *Figure { return mustFigure("fig2b", cfg) }

// Fig3 reproduces Figure 3: cost versus alpha at N=60.
func Fig3(cfg Config) *Figure { return mustFigure("fig3", cfg) }

// Dat renders the figure as a gnuplot-style whitespace table: one x column
// followed by one cost column per series ("nan" for infeasible points).
func (f *Figure) Dat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x", f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\t%q", s.Label)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "\t%g", s.Points[i].Mean)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders the figure as a terminal plot.
func (f *Figure) ASCII(width, height int) string {
	var series []textplot.Series
	for _, s := range f.Series {
		ts := textplot.Series{Label: s.Label}
		for _, p := range s.Points {
			ts.X = append(ts.X, p.X)
			ts.Y = append(ts.Y, p.Mean)
		}
		series = append(series, ts)
	}
	return textplot.Plot(f.Title, series, width, height)
}

// Ranking returns the series labels ordered by mean cost across all
// feasible points (cheapest first) — the paper's headline comparison.
func (f *Figure) Ranking() []string {
	type agg struct {
		label string
		mean  float64
	}
	var out []agg
	for _, s := range f.Series {
		var costs []float64
		for _, p := range s.Points {
			if !math.IsNaN(p.Mean) {
				costs = append(costs, p.Mean)
			}
		}
		if len(costs) > 0 {
			out = append(out, agg{s.Label, stats.Mean(costs)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].mean < out[b].mean })
	labels := make([]string, len(out))
	for i, a := range out {
		labels[i] = a.label
	}
	return labels
}

// SeriesByLabel returns the series with the given label, or nil.
func (f *Figure) SeriesByLabel(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}
