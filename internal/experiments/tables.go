package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/ilp"
	"repro/internal/instance"
	"repro/internal/platform"
	"repro/internal/stream"
)

// Table is a reproduced paper table (or text-experiment summary).
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
}

// String pretty-prints the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		widths[i] = w
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Table1 reproduces the paper's Table 1 (the platform cost catalog) from
// the live platform package, so any drift from the paper's numbers shows
// up in the output.
func Table1() *Table {
	cat := platform.Default()
	t := &Table{
		ID:      "table1",
		Title:   "Table 1: platform costs (Dell PowerEdge R900, March 2008)",
		Headers: []string{"component", "capability", "cost ($)", "ratio"},
	}
	for _, c := range cat.CPUs {
		t.Rows = append(t.Rows, []string{
			"CPU", fmt.Sprintf("%.2f GHz", c.SpeedGHz),
			fmt.Sprintf("%.0f + %.0f", cat.Base, c.Upcharge),
			fmt.Sprintf("%.2e GHz/$", c.SpeedGHz/(cat.Base+c.Upcharge)),
		})
	}
	for _, n := range cat.NICs {
		t.Rows = append(t.Rows, []string{
			"NIC", fmt.Sprintf("%.0f Gbps", n.Gbps),
			fmt.Sprintf("%.0f + %.0f", cat.Base, n.Upcharge),
			fmt.Sprintf("%.2e Gbps/$", n.Gbps/(cat.Base+n.Upcharge)),
		})
	}
	return t
}

// OptimalComparison reproduces the paper's last experiment (E6):
// heuristics versus the optimal solution on small trees in the
// homogeneous setting (CONSTR-HOM, no downgrade step), with the ILP
// relaxation and the analytic bound as certified lower bounds.
func OptimalComparison(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "optimal",
		Title: "Heuristics vs optimal, CONSTR-HOM small trees (processor counts, averaged)",
		Headers: []string{"N", "alpha", "LB(analytic)", "LB(ILP)", "optimal",
			"Subtree", "Comp-G", "Comm-G", "Obj-Grp", "Obj-Avl", "Random"},
	}
	hs := []heuristics.Heuristic{
		heuristics.SubtreeBottomUp{}, heuristics.CompGreedy{}, heuristics.CommGreedy{},
		heuristics.ObjectGrouping{}, heuristics.ObjectAvailability{}, heuristics.Random{},
	}
	for _, sc := range []struct {
		n     int
		alpha float64
	}{{6, 0.9}, {6, 2.0}, {8, 0.9}, {8, 1.9}, {10, 0.9}, {12, 1.6}} {
		sums := make([]float64, len(hs))
		counts := make([]int, len(hs))
		var optSum, lbSum, ilpSum float64
		var optCount, ilpCount int
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.BaseSeed + int64(s)
			p := platform.DefaultPlatform()
			p.Catalog = platform.Homogeneous(0, 4) // slow CPU: multi-processor optima appear
			in := instance.Generate(instance.Config{
				NumOps: sc.n, NumTypes: 5, Alpha: sc.alpha, Platform: p,
			}, seed)
			res, err := exact.Solve(in, exact.Limits{})
			if err != nil {
				continue // infeasible seed: skip entirely
			}
			optSum += float64(res.Procs)
			optCount++
			lbSum += float64(bounds.MinProcessors(in))
			if model, err := ilp.Build(in, res.Procs+1); err == nil {
				if lb, err := model.RelaxationLB(); err == nil {
					unit := in.Platform.Catalog.Cost(platform.Config{})
					ilpSum += lb / unit
					ilpCount++
				}
			}
			for hi, h := range hs {
				hres, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
				if err != nil {
					continue
				}
				sums[hi] += float64(hres.Procs)
				counts[hi]++
			}
		}
		if optCount == 0 {
			continue
		}
		row := []string{
			fmt.Sprintf("%d", sc.n), fmt.Sprintf("%.1f", sc.alpha),
			fmt.Sprintf("%.2f", lbSum/float64(optCount)),
			cellOrDash(ilpSum, ilpCount),
			fmt.Sprintf("%.2f", optSum/float64(optCount)),
		}
		for hi := range hs {
			row = append(row, cellOrDash(sums[hi], counts[hi]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func cellOrDash(sum float64, count int) string {
	if count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", sum/float64(count))
}

// ThroughputValidation runs experiment V1 on the sweep Grid's
// verification column: every heuristic mapping is executed by the
// stream engine and its measured steady-state throughput compared
// against the QoS target rho.
func ThroughputValidation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "v1",
		Title: "V1: simulated throughput of heuristic mappings (target rho = 1)",
		Headers: []string{"N", "heuristic", "feasible", "min measured", "min analytic",
			"meets rho"},
	}
	ns := []float64{10, 20, 40}
	var hs []string
	for _, h := range heuristics.All() {
		hs = append(hs, h.Name())
	}
	g := &Grid{
		Heuristics: hs,
		Xs:         ns,
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
		Workers:    cfg.Workers,
		Make: MakeInstances(func(x float64) instance.Config {
			return instance.Config{NumOps: int(x), Alpha: 1.1}
		}),
		Verify: &stream.Options{Results: 80},
	}
	cells, err := g.Cells(context.Background())
	if err != nil {
		panic(err) // static inputs; only a programming error can land here
	}
	for ni, n := range ns {
		for hi, name := range hs {
			minMeasured, minAnalytic := -1.0, -1.0
			feasible := 0
			allMeet := true
			for s := 0; s < cfg.Seeds; s++ {
				c := &cells[(hi*len(ns)+ni)*cfg.Seeds+s]
				if c.Err != nil {
					continue
				}
				feasible++
				if c.VerifyErr != nil {
					allMeet = false
					continue
				}
				if minMeasured < 0 || c.Measured < minMeasured {
					minMeasured = c.Measured
				}
				if minAnalytic < 0 || c.Analytic < minAnalytic {
					minAnalytic = c.Analytic
				}
				if !stream.MeetsTarget(c.Measured, c.Rho) {
					allMeet = false
				}
			}
			row := []string{fmt.Sprintf("%.0f", n), name, fmt.Sprintf("%d/%d", feasible, cfg.Seeds)}
			if feasible == 0 {
				row = append(row, "-", "-", "-")
			} else {
				row = append(row,
					fmt.Sprintf("%.2f", minMeasured),
					fmt.Sprintf("%.2f", minAnalytic),
					fmt.Sprintf("%v", allMeet))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// ILPScalingNote reproduces the paper's negative result: the full ILP
// cannot even be built for moderate trees. It returns the tree size at
// which Build starts failing with ErrTooLarge.
func ILPScalingNote() (int, error) {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(4, 4)
	for n := 5; n <= 120; n += 5 {
		in := instance.Generate(instance.Config{NumOps: n, Platform: p}, 1)
		_, err := ilp.Build(in, n)
		if errors.Is(err, ilp.ErrTooLarge) {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("ILP never exceeded the size budget")
}
