package exact

import (
	"errors"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/platform"
)

func homPlatform() *platform.Platform {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(4, 4)
	return p
}

func TestRejectsHeterogeneous(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 5}, 1)
	if _, err := Solve(in, Limits{}); !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("want ErrHeterogeneous, got %v", err)
	}
}

func TestSmallTreeOptimalIsOneProcessor(t *testing.T) {
	// The paper's CPLEX finding: for 20-operator trees the optimum buys a
	// single processor.
	for seed := int64(0); seed < 5; seed++ {
		in := instance.Generate(instance.Config{NumOps: 12, Alpha: 0.9, Platform: homPlatform()}, seed)
		res, err := Solve(in, Limits{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Proven {
			t.Fatalf("seed %d: search did not complete", seed)
		}
		if res.Procs != 1 {
			t.Fatalf("seed %d: optimal = %d processors, want 1", seed, res.Procs)
		}
		if err := res.Mapping.Validate(); err != nil {
			t.Fatalf("seed %d: optimal mapping invalid: %v", seed, err)
		}
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := instance.Generate(instance.Config{NumOps: 10, Alpha: 1.4, Platform: homPlatform()}, seed)
		res, err := Solve(in, Limits{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, h := range heuristics.All() {
			hres, herr := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
			if herr != nil {
				continue
			}
			if res.Cost > hres.Cost+1e-6 {
				t.Fatalf("seed %d: optimal %v worse than %s %v", seed, res.Cost, h.Name(), hres.Cost)
			}
		}
	}
}

func TestMultiProcessorOptimum(t *testing.T) {
	// A slow homogeneous CPU at high alpha cannot carry the whole tree on
	// one processor; the optimum must use >= 2 and match the compute lower
	// bound.
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(0, 4)
	in := instance.Generate(instance.Config{NumOps: 12, Alpha: 2.0, Platform: p}, 0)
	res, err := Solve(in, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs < 2 {
		t.Fatalf("expected a multi-processor optimum, got %d", res.Procs)
	}
	total := 0.0
	for _, w := range in.W {
		total += in.Rho * w
	}
	speed := in.Platform.Catalog.SpeedUnits(platform.Config{})
	lb := int((total + speed - 1) / speed)
	if res.Procs < lb {
		t.Fatalf("optimal %d below compute lower bound %d", res.Procs, lb)
	}
}

func TestInfeasibleInstance(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 10, Alpha: 3, Platform: homPlatform()}, 1)
	if _, err := Solve(in, Limits{}); !errors.Is(err, heuristics.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 14, Alpha: 1.2, Rho: 40, Platform: homPlatform()}, 2)
	res, err := Solve(in, Limits{MaxNodes: 50})
	if err == nil {
		// Tiny budgets may still complete thanks to the heuristic seed and
		// pruning; when they do the result must be proven.
		if !res.Proven {
			t.Fatal("no error but result not proven")
		}
		return
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res != nil && res.Mapping != nil {
		if verr := res.Mapping.Validate(); verr != nil {
			t.Fatalf("best-found mapping invalid: %v", verr)
		}
	}
}

// TestExactHeuristicByName: the "Exact" adapter runs through the full
// solve pipeline and lands on the same optimum Solve reports.
func TestExactHeuristicByName(t *testing.T) {
	h, err := heuristics.ByName("Exact")
	if err != nil {
		t.Fatal(err)
	}
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(0, 4)
	in := instance.Generate(instance.Config{NumOps: 12, Alpha: 2.0, Platform: p}, 0)
	res, err := heuristics.Solve(in, h, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(in, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost || res.Procs != want.Procs {
		t.Fatalf("pipeline got cost=%v procs=%d, Solve got cost=%v procs=%d",
			res.Cost, res.Procs, want.Cost, want.Procs)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	// Heterogeneous cells must fail loudly, not silently approximate.
	het := instance.Generate(instance.Config{NumOps: 12, Alpha: 2.0}, 0)
	if _, err := heuristics.Solve(het, h, heuristics.Options{}); !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("want ErrHeterogeneous, got %v", err)
	}
}
