package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/churn"
	"repro/internal/mapping"
	"repro/internal/stats"
)

// churnScenario parameterizes the dynamic-workload figure: x is the
// event-stream length (the churn rate knob — more events, more churn
// answered per scenario) on the refine figure's CONSTR-HOM slow-CPU
// platform at alpha=2, with targets high enough that applications span
// processors and upward drift forces real repairs.
func churnScenario(x float64) churn.ScenarioConfig {
	cfg := churn.ScenarioConfig{
		Events:   int(x),
		Drift:    churn.DriftUp,
		DriftMax: 1.6,
		Rho:      2,
		RhoMax:   8,
	}
	cfg.Base.Platform = refinePlatform()
	cfg.Base.Alpha = 2.0
	return cfg
}

// churnGrid is the sweep behind the "churn" figure and ChurnGate: both
// answer policies over event-stream lengths, one full dynamic scenario
// per cell. The grid runs through Grid.Eval — series are policy labels,
// not registry heuristics — and each cell records the scenario's final
// platform cost (Cost) and its total surviving-operator migrations
// (Procs), the two deterministic columns the shard wire format carries.
// Budgets are step-bounded only (Options.Budget stays 0), so sharded
// runs merge byte-identically.
func churnGrid(cfg Config) *Grid {
	return &Grid{
		Heuristics: []string{churn.PolicyRepair.String(), churn.PolicyResolve.String()},
		Xs:         []float64{3, 6, 9, 12},
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
		Workers:    cfg.Workers,
		SeedOf:     DerivedSeeds("churn"),
		Eval: func(ctx context.Context, env *WorkerEnv, c *Cell) {
			pol := churn.PolicyRepair
			if c.Heuristic == churn.PolicyResolve.String() {
				pol = churn.PolicyResolve
			}
			sc := churn.NewScenario(churnScenario(c.X), c.Seed)
			res, err := churn.RunScenario(ctx, sc, churn.Options{Policy: pol, Seed: c.Seed})
			if err != nil {
				c.Err = err
				return
			}
			c.Cost = res.FinalCost
			c.Procs = res.Moved
		},
	}
}

// churnFold emits two curves per policy: mean final cost and mean
// operators moved over the feasible scenarios of each column.
func churnFold(g *Grid, cells []Cell) []Series {
	nx, ns := len(g.Xs), g.Seeds
	series := make([]Series, 0, 2*len(g.Heuristics))
	vals := make([]float64, 0, ns)
	for hi, name := range g.Heuristics {
		cost := Series{Label: "cost:" + name, Points: make([]Point, 0, nx)}
		moved := Series{Label: "moved:" + name, Points: make([]Point, 0, nx)}
		for xi, x := range g.Xs {
			vals = vals[:0]
			fails := 0
			movedSum := 0
			for s := 0; s < ns; s++ {
				c := &cells[(hi*nx+xi)*ns+s]
				if c.Err != nil {
					fails++
					continue
				}
				vals = append(vals, c.Cost)
				movedSum += c.Procs
			}
			cp := Point{X: x, Fails: fails, Runs: ns, Mean: math.NaN()}
			mp := cp
			if len(vals) > 0 {
				cp.Mean = stats.Mean(vals)
				cp.CI = stats.CI95(vals)
				mp.Mean = float64(movedSum) / float64(len(vals))
			}
			cost.Points = append(cost.Points, cp)
			moved.Points = append(moved.Points, mp)
		}
		series = append(series, cost, moved)
	}
	return series
}

// churnDef is the dynamic-workload figure: journaled local repair
// versus from-scratch re-solves on final cost and operators migrated,
// swept over churn rate.
func churnDef() figDef {
	return figDef{
		id: "churn", title: "Churn: local repair vs full re-solve (CONSTR-HOM slow CPU, alpha=2.0, drift-up scenarios)",
		xlabel: "events per scenario", ylabel: "cost ($) / operators moved",
		units: []unitDef{{grid: churnGrid, fold: churnFold}},
	}
}

// churnGateTol is the dominance gate's per-cell cost tolerance: repair
// may not cost more than the from-scratch re-solve beyond this fraction
// on any scenario. Repair refines every answer it installs, so in
// practice it is at or below the constructive re-solve; the tolerance
// absorbs tie-breaking noise, not systematic regressions.
const churnGateTol = 0.02

// ChurnGate runs the churn figure's grid and enforces the repair
// policy's dominance cell by cell: on every scenario both policies can
// start, repair's final cost must be within churnGateTol of the
// re-solve's (never worse beyond it), and across the whole grid repair
// must migrate strictly fewer surviving operators in total. Returns the
// number of scenarios checked; any violation is an error naming the
// cell.
func ChurnGate(ctx context.Context, cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cfg = cfg.withDefaults()
	g := churnGrid(cfg)
	cells, err := g.Cells(ctx)
	if err != nil {
		return 0, err
	}
	nx, ns := len(g.Xs), g.Seeds
	repairIdx, resolveIdx := 0, 1
	if g.Heuristics[0] != churn.PolicyRepair.String() {
		repairIdx, resolveIdx = 1, 0
	}
	checked := 0
	movedRepair, movedResolve := 0, 0
	for xi := 0; xi < nx; xi++ {
		for s := 0; s < ns; s++ {
			rep := &cells[(repairIdx*nx+xi)*ns+s]
			res := &cells[(resolveIdx*nx+xi)*ns+s]
			if res.Err != nil {
				continue // no re-solve baseline on this scenario
			}
			if rep.Err != nil {
				return checked, fmt.Errorf("churn gate: events=%g seed=%d: repair failed while re-solve finished at cost %.6g: %w",
					rep.X, rep.Seed, res.Cost, rep.Err)
			}
			checked++
			if rep.Cost > res.Cost*(1+churnGateTol)+mapping.Eps {
				return checked, fmt.Errorf("churn gate: events=%g seed=%d: repair cost %.6g exceeds re-solve cost %.6g beyond the %.0f%% tolerance",
					rep.X, rep.Seed, rep.Cost, res.Cost, 100*churnGateTol)
			}
			movedRepair += rep.Procs
			movedResolve += res.Procs
		}
	}
	if checked == 0 {
		return 0, fmt.Errorf("churn gate: no scenario had a feasible re-solve baseline")
	}
	if movedRepair >= movedResolve {
		return checked, fmt.Errorf("churn gate: repair moved %d operators over the grid, re-solve moved %d; repair must move strictly fewer",
			movedRepair, movedResolve)
	}
	return checked, nil
}
