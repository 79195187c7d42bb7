package flow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSingleLinkEqualShare(t *testing.T) {
	rates, err := MaxMin([]float64{90}, []Flow{
		{Resources: []int{0}},
		{Resources: []int{0}},
		{Resources: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if math.Abs(r-30) > 1e-9 {
			t.Fatalf("rate[%d] = %v, want 30", i, r)
		}
	}
}

func TestDemandCeiling(t *testing.T) {
	rates, err := MaxMin([]float64{90}, []Flow{
		{Resources: []int{0}, Demand: 10},
		{Resources: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-10) > 1e-9 || math.Abs(rates[1]-80) > 1e-9 {
		t.Fatalf("rates = %v, want [10 80]", rates)
	}
}

func TestClassicParkingLot(t *testing.T) {
	// Flow A crosses links 0 and 1; flow B link 0; flow C link 1.
	// Capacities 10 each: A=5, B=5, C=5.
	rates, err := MaxMin([]float64{10, 10}, []Flow{
		{Resources: []int{0, 1}},
		{Resources: []int{0}},
		{Resources: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 5, 5}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestBottleneckAsymmetry(t *testing.T) {
	// Link 0 cap 6 shared by A and B; link 1 cap 100 crossed only by B.
	// A=3, B=3 (B limited at link 0, not link 1).
	rates, err := MaxMin([]float64{6, 100}, []Flow{
		{Resources: []int{0}},
		{Resources: []int{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-3) > 1e-9 || math.Abs(rates[1]-3) > 1e-9 {
		t.Fatalf("rates = %v, want [3 3]", rates)
	}
}

func TestDemandOnlyFlow(t *testing.T) {
	rates, err := MaxMin(nil, []Flow{{Demand: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-7) > 1e-9 {
		t.Fatalf("rates = %v, want [7]", rates)
	}
}

func TestUnboundedRejected(t *testing.T) {
	if _, err := MaxMin(nil, []Flow{{}}); err == nil {
		t.Fatal("unbounded flow accepted")
	}
}

func TestBadResourceIndex(t *testing.T) {
	if _, err := MaxMin([]float64{1}, []Flow{{Resources: []int{5}}}); err == nil {
		t.Fatal("invalid resource index accepted")
	}
}

func TestZeroCapacity(t *testing.T) {
	rates, err := MaxMin([]float64{0}, []Flow{{Resources: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 {
		t.Fatalf("rate = %v, want 0", rates[0])
	}
}

// TestAllocatorMatchesMaxMin checks the reusable-scratch path returns the
// exact rates of the allocating wrapper across random networks.
func TestAllocatorMatchesMaxMin(t *testing.T) {
	var a Allocator
	for seed := int64(0); seed < 200; seed++ {
		r := rng.New(seed)
		nRes := 1 + r.Intn(5)
		caps := make([]float64, nRes)
		for i := range caps {
			caps[i] = rng.UniformIn(r, 1, 100)
		}
		flows := make([]Flow, 1+r.Intn(6))
		for i := range flows {
			flows[i].Resources = rng.PickDistinctInto(r, nRes, 1+r.Intn(nRes), nil, make([]int, nRes))
			if r.Intn(2) == 0 {
				flows[i].Demand = rng.UniformIn(r, 1, 50)
			}
		}
		want, err := MaxMin(caps, flows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.MaxMin(caps, flows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: allocator rates %v, wrapper %v", seed, got, want)
			}
		}
	}
}

// TestAllocatorZeroAllocs pins the tentpole property: steady-state MaxMin
// calls on a warmed Allocator allocate nothing.
func TestAllocatorZeroAllocs(t *testing.T) {
	var a Allocator
	caps := []float64{90, 50, 70}
	flows := []Flow{
		{Resources: []int{0, 1}},
		{Resources: []int{1, 2}, Demand: 5},
		{Resources: []int{0, 2}},
		{Resources: []int{2}},
	}
	if _, err := a.MaxMin(caps, flows); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.MaxMin(caps, flows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Allocator.MaxMin allocates %v per run, want 0", allocs)
	}
}

// Properties of max-min fairness on random networks:
//  1. feasibility: no resource over capacity,
//  2. demands respected,
//  3. maximality: every flow is blocked by a saturated resource or its
//     own demand (no flow can unilaterally increase).
func TestMaxMinProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		nRes := 1 + r.Intn(5)
		caps := make([]float64, nRes)
		for i := range caps {
			caps[i] = rng.UniformIn(r, 1, 100)
		}
		nFlows := 1 + r.Intn(6)
		flows := make([]Flow, nFlows)
		for i := range flows {
			k := 1 + r.Intn(nRes)
			flows[i].Resources = rng.PickDistinctInto(r, nRes, k, nil, make([]int, nRes))
			if r.Intn(2) == 0 {
				flows[i].Demand = rng.UniformIn(r, 1, 50)
			}
		}
		rates, err := MaxMin(caps, flows)
		if err != nil {
			return false
		}
		used := Utilization(caps, flows, rates)
		for i := range caps {
			if used[i] > caps[i]+1e-6 {
				return false
			}
		}
		for i, fl := range flows {
			if fl.Demand > 0 && rates[i] > fl.Demand+1e-6 {
				return false
			}
			blocked := fl.Demand > 0 && rates[i] >= fl.Demand-1e-6
			for _, res := range fl.Resources {
				if used[res] >= caps[res]-1e-6 {
					blocked = true
				}
			}
			if !blocked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
