package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/platform"
)

// referencePortfolio is the serial portfolio runSolve ran before
// SolveContext.Portfolio existed: SolveContext.Solve per heuristic, the
// strictly cheapest result winning with ties to the earliest heuristic,
// then a re-solve of the winner to bring its mapping back onto the arena
// that later heuristics overwrote.
func referencePortfolio(t *testing.T, sc *heuristics.SolveContext, in *instance.Instance,
	hs []heuristics.Heuristic, seed int64) ([]OutcomeJSON, *BestJSON) {
	t.Helper()
	var outs []OutcomeJSON
	bestIdx, bestCost := -1, 0.0
	for i, h := range hs {
		res, err := sc.Solve(in, h, heuristics.Options{Seed: seed})
		if err != nil {
			outs = append(outs, OutcomeJSON{Heuristic: h.Name(), Error: err.Error()})
			continue
		}
		outs = append(outs, OutcomeJSON{Heuristic: h.Name(), Cost: res.Cost, Procs: res.Procs})
		if bestIdx < 0 || res.Cost < bestCost {
			bestIdx, bestCost = i, res.Cost
		}
	}
	if bestIdx < 0 {
		return outs, nil
	}
	res, err := sc.Solve(in, hs[bestIdx], heuristics.Options{Seed: seed})
	if err != nil {
		t.Fatalf("re-solving winner %s: %v", hs[bestIdx].Name(), err)
	}
	return outs, &BestJSON{Heuristic: res.Heuristic, Cost: res.Cost, Procs: res.Procs,
		Mapping: buildMappingSpec(res.Mapping)}
}

// portfolioInputs are the 25 (N, alpha) cells of Figures 2(a), 2(b) and
// 3 with two seeds each, one inline instance on a heterogeneous catalog
// with fractional prices, and one instance Precheck rejects.
func portfolioInputs(t *testing.T) map[string]*instance.Instance {
	t.Helper()
	type cell struct {
		n     int
		alpha float64
	}
	var cells []cell
	for _, alpha := range []float64{0.9, 1.7} { // Figures 2(a) and 2(b)
		for n := 20; n <= 140; n += 20 {
			cells = append(cells, cell{n, alpha})
		}
	}
	for a := 0.5; a <= 2.51; a += 0.2 { // Figure 3
		cells = append(cells, cell{60, math.Round(a*100) / 100})
	}
	if len(cells) != 25 {
		t.Fatalf("%d figure cells, want 25", len(cells))
	}
	inputs := map[string]*instance.Instance{}
	for _, c := range cells {
		for seed := int64(1); seed <= 2; seed++ {
			inputs[fmt.Sprintf("N=%d,alpha=%g,seed=%d", c.n, c.alpha, seed)] =
				instance.Generate(instance.Config{NumOps: c.n, Alpha: c.alpha}, seed)
		}
	}

	p := platform.DefaultPlatform()
	p.Catalog = &platform.Catalog{
		CPUs: []platform.CPUOption{{SpeedGHz: 11.72}, {SpeedGHz: 25.6, Upcharge: 2399.5}, {SpeedGHz: 46.88, Upcharge: 5299.25}},
		NICs: []platform.NICOption{{Gbps: 1}, {Gbps: 10, Upcharge: 2800.75}},
		Base: 7548.125,
	}
	data, err := json.Marshal(instance.Generate(instance.Config{NumOps: 40, Alpha: 1.1, Platform: p}, 3))
	if err != nil {
		t.Fatal(err)
	}
	var inline instance.Instance
	if err := json.Unmarshal(data, &inline); err != nil {
		t.Fatal(err)
	}
	if herr := checkInstanceSpec(nil, &inline, 1000); herr != nil {
		t.Fatalf("inline instance: %s", herr.msg)
	}
	if inline.Platform.Catalog.Homogeneous() {
		t.Fatal("inline instance lost its heterogeneous catalog")
	}
	inputs["inline-heterogeneous"] = &inline

	reject := instance.Generate(instance.Config{NumOps: 600, Alpha: 1.7}, 1)
	if heuristics.Precheck(reject) == nil {
		t.Fatal("N=600 alpha=1.7 passes Precheck; pick an instance it rejects")
	}
	inputs["precheck-reject"] = reject
	return inputs
}

// TestPortfolioMatchesReference pins SolveContext.Portfolio, as runSolve
// drives it, to the loop it replaced: equal outcomes and error strings,
// the same winner and a byte-identical rendered mapping, for the full
// portfolio and for a single heuristic (whose winner is never copied).
func TestPortfolioMatchesReference(t *testing.T) {
	ref := heuristics.NewSolveContext()
	sc := heuristics.NewSolveContext()
	for name, in := range portfolioInputs(t) {
		seed := int64(len(name)) // any request seed; Random depends on it
		for _, hs := range [][]heuristics.Heuristic{heuristics.All(), {heuristics.ObjectGrouping{}}} {
			wantOuts, wantBest := referencePortfolio(t, ref, in, hs, seed)
			var outs []OutcomeJSON
			best, err := sc.Portfolio(context.Background(), in, hs, heuristics.Options{Seed: seed}, math.Inf(1),
				func(h heuristics.Heuristic, res *heuristics.Result, err error) {
					if err != nil {
						outs = append(outs, OutcomeJSON{Heuristic: h.Name(), Error: err.Error()})
						return
					}
					outs = append(outs, OutcomeJSON{Heuristic: h.Name(), Cost: res.Cost, Procs: res.Procs})
				})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(outs, wantOuts) {
				t.Fatalf("%s/%d heuristics: outcomes differ:\n got %+v\nwant %+v", name, len(hs), outs, wantOuts)
			}
			if (best == nil) != (wantBest == nil) {
				t.Fatalf("%s/%d heuristics: winner %v, reference %v", name, len(hs), best, wantBest)
			}
			if best == nil {
				continue
			}
			got, err := json.Marshal(&BestJSON{Heuristic: best.Heuristic, Cost: best.Cost, Procs: best.Procs,
				Mapping: buildMappingSpec(best.Mapping)})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(wantBest)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s/%d heuristics: winner differs:\n got %s\nwant %s", name, len(hs), got, want)
			}
		}
	}
}
