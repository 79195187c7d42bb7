package refine_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/churn"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/refine"
	"repro/internal/rng"
)

// replaySteps runs run twice, once with every annealing step on the
// parent step and once on the read-only one, and requires identical
// step logs (proposal, outcome, cost bits, random draws) and outcomes.
// It returns the number of steps compared.
func replaySteps(t *testing.T, name string, run func() string) int {
	t.Helper()
	var logs [2][]refine.StepRecord
	var outs [2]string
	for i, parent := range []bool{true, false} {
		t.Run(fmt.Sprintf("%s/parent=%v", name, parent), func(t *testing.T) {
			log := refine.WatchSteps(t, parent)
			outs[i] = run()
			logs[i] = *log
		})
	}
	if outs[0] != outs[1] {
		t.Fatalf("%s: outcome differs from the parent step's:\n got  %s\n want %s", name, outs[1], outs[0])
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("%s: %d steps, the parent took %d", name, len(logs[1]), len(logs[0]))
	}
	for i := range logs[0] {
		a, b := logs[0][i], logs[1][i]
		if a.Kind != b.Kind || a.Dst != b.Dst || a.From != b.From || !slices.Equal(a.Ops, b.Ops) ||
			a.Outcome != b.Outcome || a.CostBits != b.CostBits || a.Draws != b.Draws {
			t.Fatalf("%s: step %d is %+v, the parent's %+v", name, i, b, a)
		}
	}
	return len(logs[0])
}

func fingerprint(m *mapping.Mapping, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(m.Assign, m.Procs, m.DL, m.Cost())
}

type corpusItem struct {
	name string
	n    int
	seed int64
	in   *instance.Instance
}

// corpus returns the N <= 140 cells of the perf harness's canonical
// instance corpus (cmd/bench), seeds 1 and 2.
func corpus() []corpusItem {
	var items []corpusItem
	for _, n := range []int{20, 60, 140} {
		for _, alpha := range []float64{0.9, 1.7} {
			for seed := int64(1); seed <= 2; seed++ {
				items = append(items, corpusItem{
					name: fmt.Sprintf("N=%d,alpha=%g,seed=%d", n, alpha, seed),
					n:    n,
					seed: seed,
					in:   instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed),
				})
			}
		}
	}
	return items
}

// TestStepMatchesParent replays refine.Improve and refine.Refine over
// the canonical corpus, and the churn engine over the churn bench
// scenarios and the end-to-end benchmark's session scenarios, on the
// read-only annealing step and on the parent one: every step and every
// final mapping must be identical.
func TestStepMatchesParent(t *testing.T) {
	steps := 0
	for _, it := range corpus() {
		if testing.Short() && it.n > 60 {
			continue
		}
		seedRes, err := heuristics.Solve(it.in, heuristics.CompGreedy{}, heuristics.Options{Seed: it.seed})
		if err != nil {
			continue // infeasible cells have nothing to refine
		}
		steps += replaySteps(t, "Improve/"+it.name, func() string {
			m := seedRes.Mapping.Clone()
			err := refine.Improve(context.Background(), m, nil, refine.Options{Seed: it.seed})
			return fingerprint(m, err)
		})
		if it.n <= 60 {
			steps += replaySteps(t, "Refine/"+it.name, func() string {
				res, err := refine.Refine(it.in, refine.Options{Seed: it.seed})
				if err != nil {
					return fingerprint(nil, err)
				}
				return fingerprint(res.Mapping, nil)
			})
		}
	}

	slow := platform.DefaultPlatform()
	slow.Catalog = platform.Homogeneous(0, 4)
	type scenario struct {
		name string
		cfg  churn.ScenarioConfig
		seed int64
	}
	var scs []scenario
	for _, c := range []struct {
		apps, ops int
		seed      int64
	}{{3, 20, 3}, {4, 35, 1}} {
		// cmd/bench's churn/repair scenarios.
		cfg := churn.ScenarioConfig{
			InitialApps: c.apps, Events: 6, MinOps: c.ops, MaxOps: c.ops,
			Rho: 1, RhoMax: 8, Drift: churn.DriftUp, DriftMax: 1.6,
		}
		cfg.Base.Platform = slow
		cfg.Base.Alpha = 1.5
		scs = append(scs, scenario{fmt.Sprintf("bench/N=%d", c.apps*c.ops), cfg, c.seed})
	}
	for k := 0; k < 2; k++ {
		// The churn-sessions scenarios of the end-to-end benchmark.
		seed := rng.SeedFor(5, fmt.Sprintf("e2ebench:churn:%d:%d", k, 0))
		cfg := churn.ScenarioConfig{
			InitialApps: 4, Events: 24, MinOps: 25, MaxOps: 25,
			Drift: churn.DriftBoth, DriftMax: 1.6, RhoMax: 8,
		}
		cfg.Base.Alpha = 1.5
		scs = append(scs, scenario{fmt.Sprintf("session/%d", k), cfg, seed})
	}
	for _, sc := range scs {
		steps += replaySteps(t, "churn/"+sc.name, func() string {
			e := churn.NewEngine(churn.Options{Policy: churn.PolicyRepair, Seed: sc.seed})
			s := churn.NewScenario(sc.cfg, sc.seed)
			if err := e.Start(s); err != nil {
				return "error: " + err.Error()
			}
			m := new(mapping.Mapping)
			out := ""
			for _, ev := range s.Events {
				er, err := e.Step(context.Background(), ev)
				out += fmt.Sprint(er.Outcome, er.Cost, er.Procs, er.Moved, er.Err, err)
				if err := e.IncumbentInto(m); err != nil {
					return out + "error: " + err.Error()
				}
				out += fingerprint(m, nil) + "\n"
			}
			return out
		})
	}
	if steps == 0 {
		t.Fatal("no annealing step ran")
	}
	t.Logf("%d annealing steps compared", steps)
}
