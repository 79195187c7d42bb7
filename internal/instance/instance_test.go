package instance

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestGenerateDefaults(t *testing.T) {
	in := Generate(Config{NumOps: 40}, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.Tree.NumOps() != 40 {
		t.Fatalf("tree has %d ops", in.Tree.NumOps())
	}
	if in.NumTypes != 15 {
		t.Fatalf("NumTypes = %d, want 15", in.NumTypes)
	}
	for k := 0; k < in.NumTypes; k++ {
		if in.Sizes[k] < 5 || in.Sizes[k] >= 30 {
			t.Fatalf("size[%d] = %v out of [5,30)", k, in.Sizes[k])
		}
		if in.Freqs[k] != 0.5 {
			t.Fatalf("freq[%d] = %v, want 0.5", k, in.Freqs[k])
		}
		if n := len(in.Holders[k]); n < 1 || n > 3 {
			t.Fatalf("object %d held by %d servers", k, n)
		}
	}
	if in.Rho != 1 {
		t.Fatalf("rho = %v", in.Rho)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{NumOps: 30, Alpha: 1.3}, 99)
	b := Generate(Config{NumOps: 30, Alpha: 1.3}, 99)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed gave different instances")
	}
	c := Generate(Config{NumOps: 30, Alpha: 1.3}, 100)
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds gave identical instances")
	}
}

func TestSizesStableAcrossTreeSizes(t *testing.T) {
	// Sub-stream decorrelation: changing NumOps must not change the
	// per-type sizes or placements for the same seed.
	a := Generate(Config{NumOps: 20}, 5)
	b := Generate(Config{NumOps: 120}, 5)
	for k := range a.Sizes {
		if a.Sizes[k] != b.Sizes[k] {
			t.Fatalf("size[%d] changed with tree size: %v vs %v", k, a.Sizes[k], b.Sizes[k])
		}
	}
}

func TestRate(t *testing.T) {
	in := Generate(Config{NumOps: 10}, 3)
	for k := 0; k < in.NumTypes; k++ {
		want := in.Sizes[k] * in.Freqs[k]
		if math.Abs(in.Rate(k)-want) > 1e-12 {
			t.Fatalf("Rate(%d) = %v, want %v", k, in.Rate(k), want)
		}
	}
}

func TestDerivedWork(t *testing.T) {
	in := Generate(Config{NumOps: 25, Alpha: 1.5}, 7)
	// Recompute independently and compare.
	w, delta := in.Tree.Derive(in.Sizes, 1.5)
	for i := range w {
		if in.W[i] != w[i] || in.Delta[i] != delta[i] {
			t.Fatalf("derived values differ at op %d", i)
		}
		if in.W[i] <= 0 || in.Delta[i] <= 0 {
			t.Fatalf("non-positive derived value at op %d", i)
		}
	}
	// Root delta equals the total leaf mass (alpha does not affect delta).
	total := 0.0
	for _, l := range in.Tree.Leaves {
		total += in.Sizes[l.Object]
	}
	if math.Abs(in.Delta[in.Tree.Root]-total) > 1e-6 {
		t.Fatalf("root delta %v != total leaf mass %v", in.Delta[in.Tree.Root], total)
	}
}

func TestEdgeTraffic(t *testing.T) {
	in := Generate(Config{NumOps: 10, Rho: 2}, 11)
	for i := range in.Tree.Ops {
		if got := in.EdgeTraffic(i); got != 2*in.Delta[i] {
			t.Fatalf("EdgeTraffic(%d) = %v, want %v", i, got, 2*in.Delta[i])
		}
	}
}

func TestLargeObjectConfig(t *testing.T) {
	in := Generate(Config{NumOps: 20, SizeMin: 450, SizeMax: 530}, 2)
	for k, s := range in.Sizes {
		if s < 450 || s >= 530 {
			t.Fatalf("large object %d has size %v", k, s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Generate(Config{NumOps: 15, Alpha: 0.9}, 13)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Instance
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("round-tripped instance invalid: %v", err)
	}
	if out.Tree.NumOps() != in.Tree.NumOps() || out.Alpha != in.Alpha {
		t.Fatal("round trip lost data")
	}
	for i := range in.W {
		if math.Abs(out.W[i]-in.W[i]) > 1e-9 {
			t.Fatalf("derived W not recomputed on load at op %d", i)
		}
	}
}

// legacyJSON is the struct the removed Instance.MarshalJSON encoded
// through; the default encoding must keep its bytes.
type legacyJSON struct {
	Tree     any
	NumTypes int
	Sizes    []float64
	Freqs    []float64
	Holders  [][]int
	Platform *platform.Platform
	Rho      float64
	Alpha    float64
}

// TestMarshalMatchesLegacyEncoding pins the wire form: marshalling an
// Instance (pointer or value) gives the bytes of its method-less
// instanceFields alias and of the removed MarshalJSON's legacy struct,
// across seeds and tree sizes; and decoding those bytes over a
// previously used Instance gives what decoding into a zero one gives.
func TestMarshalMatchesLegacyEncoding(t *testing.T) {
	for _, n := range []int{1, 10, 60} {
		for seed := int64(1); seed <= 29; seed++ {
			in := Generate(Config{NumOps: n, Alpha: 1.3}, seed)
			got, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			byValue, _ := json.Marshal(*in)
			alias, _ := json.Marshal((*instanceFields)(in))
			legacy, _ := json.Marshal(legacyJSON{in.Tree, in.NumTypes, in.Sizes, in.Freqs, in.Holders, in.Platform, in.Rho, in.Alpha})
			if string(got) != string(legacy) || string(byValue) != string(legacy) || string(alias) != string(legacy) {
				t.Fatalf("N=%d seed=%d: encoding differs from the legacy struct's:\n got: %s\nwant: %s", n, seed, got, legacy)
			}
			var fresh Instance
			reused := *Generate(Config{NumOps: 5, Alpha: 2}, seed+100)
			if err := json.Unmarshal(got, &fresh); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &reused); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) || !reflect.DeepEqual(fresh.W, in.W) {
				t.Fatalf("N=%d seed=%d: decoding over a used Instance differs from a fresh decode", n, seed)
			}
		}
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	mk := func() *Instance { return Generate(Config{NumOps: 8}, 21) }

	in := mk()
	in.Rho = 0
	if in.Validate() == nil {
		t.Fatal("rho=0 not caught")
	}
	in = mk()
	in.Sizes[0] = -1
	if in.Validate() == nil {
		t.Fatal("negative size not caught")
	}
	in = mk()
	in.Holders[in.Tree.Leaves[0].Object] = nil
	if in.Validate() == nil {
		t.Fatal("used object with no holder not caught")
	}
	in = mk()
	in.Holders[0] = []int{99}
	if in.Validate() == nil {
		t.Fatal("invalid server index not caught")
	}
	in = mk()
	in.W = nil
	if in.Validate() == nil {
		t.Fatal("stale derived data not caught")
	}
	in = mk()
	in.Tree = nil
	if in.Validate() == nil {
		t.Fatal("nil tree not caught")
	}
}

func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, n uint8, alphaRaw uint8) bool {
		cfg := Config{
			NumOps: int(n%80) + 1,
			Alpha:  0.5 + float64(alphaRaw%20)/10, // 0.5..2.4
		}
		in := Generate(cfg, seed)
		return in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomPlatform(t *testing.T) {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(4, 4)
	in := Generate(Config{NumOps: 10, Platform: p}, 1)
	if !in.Platform.Catalog.Homogeneous() {
		t.Fatal("custom platform not used")
	}
}

func TestHolderClamping(t *testing.T) {
	// MaxHolders beyond the server count must be clamped, not panic.
	in := Generate(Config{NumOps: 5, MinHolders: 6, MaxHolders: 10}, 1)
	for k := range in.Holders {
		if len(in.Holders[k]) != 6 {
			t.Fatalf("object %d held by %d servers, want all 6", k, len(in.Holders[k]))
		}
	}
}

func TestGeneratorMatchesGenerate(t *testing.T) {
	// A reused Generator must produce instances identical to the one-shot
	// Generate, across varying configs and seeds (the reuse must never
	// leak one instance's state into the next).
	var g Generator
	cfgs := []Config{
		{NumOps: 40, Alpha: 0.9},
		{NumOps: 7, Alpha: 1.7},
		{NumOps: 60, Alpha: 1.1, SizeMin: 450, SizeMax: 530},
		{NumOps: 20, Alpha: 0.9, Freq: 1.0 / 20},
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			want := Generate(cfg, seed)
			got := g.Generate(cfg, seed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("cfg %+v seed %d: generator instance differs", cfg, seed)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("cfg %+v seed %d: %v", cfg, seed, err)
			}
		}
	}
}

func TestGeneratorAllocFree(t *testing.T) {
	var g Generator
	cfg := Config{NumOps: 60, Alpha: 0.9}
	g.Generate(cfg, 1) // warm every buffer
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		g.Generate(cfg, seed)
	})
	if allocs > 0 {
		t.Fatalf("warmed generator allocates %.1f allocs/op, want 0", allocs)
	}
}
