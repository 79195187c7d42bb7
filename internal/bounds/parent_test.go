package bounds

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/instance"
	"repro/internal/platform"
)

// costLowerBoundParent is CostLowerBound as it was before the download
// total stopped allocating: MinProcessors and the marginal NIC charge
// each sum the rates over Tree.ObjectSet. It is the reference the
// allocation-free bound must match bit for bit.
func costLowerBoundParent(in *instance.Instance) float64 {
	totalDownload := func() float64 {
		total := 0.0
		for _, k := range in.Tree.ObjectSet() {
			total += in.Rate(k)
		}
		return total
	}
	cat := in.Platform.Catalog
	best := cat.MostExpensive()
	np := 1
	if c := int(math.Ceil(TotalWork(in)/cat.SpeedUnits(best) - 1e-9)); c > np {
		np = c
	}
	if c := int(math.Ceil(totalDownload()/cat.BandwidthMBps(best) - 1e-9)); c > np {
		np = c
	}
	n := float64(np)
	cost := n * cat.Cost(platform.Config{})
	if extra := TotalWork(in) - n*cat.SpeedUnits(platform.Config{}); extra > 0 {
		cost += extra * minSlopeCPU(cat)
	}
	if extra := totalDownload() - n*cat.BandwidthMBps(platform.Config{}); extra > 0 {
		cost += extra * minSlopeNIC(cat)
	}
	return cost
}

// boundInstances returns the perf harness's canonical corpus (N in {20,
// 60, 140, 300, 600} x alpha in {0.9, 1.7}, seeds 1-3), the instances
// the serve testdata requests name, and instances with more object
// types than one bitset window of TotalDownload.
func boundInstances(t *testing.T) map[string]*instance.Instance {
	t.Helper()
	ins := map[string]*instance.Instance{}
	for _, n := range []int{20, 60, 140, 300, 600} {
		for _, alpha := range []float64{0.9, 1.7} {
			for seed := int64(1); seed <= 3; seed++ {
				ins[fmt.Sprintf("corpus/N=%d,alpha=%g,seed=%d", n, alpha, seed)] =
					instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed)
			}
		}
	}
	for _, name := range []string{"solve_request.json", "verify_request.json"} {
		data, err := os.ReadFile(filepath.Join("..", "serve", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var req struct {
			Ref struct {
				N     int     `json:"n"`
				Alpha float64 `json:"alpha"`
				Seed  int64   `json:"seed"`
			} `json:"ref"`
		}
		if err := json.Unmarshal(data, &req); err != nil || req.Ref.N == 0 {
			t.Fatalf("%s names no ref: %v", name, err)
		}
		ins["serve/"+name] = instance.Generate(instance.Config{NumOps: req.Ref.N, Alpha: req.Ref.Alpha}, req.Ref.Seed)
	}
	for _, k := range []int{1, 64, 513, 1500} {
		ins[fmt.Sprintf("types=%d", k)] = instance.Generate(instance.Config{NumOps: 600, NumTypes: k, Alpha: 0.9}, 4)
	}
	return ins
}

func TestCostLowerBoundMatchesParent(t *testing.T) {
	for name, in := range boundInstances(t) {
		got, want := CostLowerBound(in), costLowerBoundParent(in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: CostLowerBound = %v, the parent's %v", name, got, want)
		}
	}
}

func TestCostLowerBoundAllocs(t *testing.T) {
	for _, n := range []int{20, 60, 140} {
		in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, 1)
		if allocs := testing.AllocsPerRun(100, func() { CostLowerBound(in) }); allocs != 0 {
			t.Errorf("N=%d: CostLowerBound allocates %v times per call, want 0", n, allocs)
		}
	}
}
