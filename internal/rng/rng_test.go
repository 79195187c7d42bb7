package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSeedForMatchesDerive(t *testing.T) {
	// Derive must remain a pure function of SeedFor, so parallel work
	// items can ship the int64 across goroutines and reconstruct the
	// exact same stream locally.
	a := Derive(42, "heuristic:Random")
	b := New(SeedFor(42, "heuristic:Random"))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream diverges at draw %d", i)
		}
	}
	if SeedFor(1, "x") == SeedFor(2, "x") || SeedFor(1, "x") == SeedFor(1, "y") {
		t.Fatal("SeedFor collides on distinct inputs")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("SplitMix64 is not deterministic")
	}
	if SplitMix64(42) == SplitMix64(43) {
		t.Fatal("SplitMix64(42) == SplitMix64(43): suspicious collision")
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := SplitMix64(0x123456789abcdef)
	flip := SplitMix64(0x123456789abcdee)
	diff := base ^ flip
	ones := 0
	for diff != 0 {
		ones += int(diff & 1)
		diff >>= 1
	}
	if ones < 16 || ones > 48 {
		t.Fatalf("poor avalanche: %d differing bits", ones)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	a := Derive(1, "tree")
	b := Derive(1, "sizes")
	c := Derive(1, "tree")
	va, vb, vc := a.Int63(), b.Int63(), c.Int63()
	if va != vc {
		t.Fatalf("same (seed,label) gave different streams: %d vs %d", va, vc)
	}
	if va == vb {
		t.Fatalf("different labels gave identical streams: %d", va)
	}
}

func TestDeriveDifferentSeeds(t *testing.T) {
	if Derive(1, "x").Int63() == Derive(2, "x").Int63() {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestUniformInRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		v := UniformIn(r, 5, 30)
		if v < 5 || v >= 30 {
			t.Fatalf("UniformIn out of range: %v", v)
		}
	}
}

func TestPickDistinct(t *testing.T) {
	r := New(11)
	for k := 0; k <= 6; k++ {
		got := PickDistinctInto(r, 6, k, nil, make([]int, 6))
		if len(got) != k {
			t.Fatalf("PickDistinctInto(6,%d) returned %d values", k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 6 {
				t.Fatalf("value out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate value: %d", v)
			}
			seen[v] = true
		}
	}
}

func TestPickDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	PickDistinctInto(New(1), 3, 4, nil, make([]int, 3))
}

func TestPickDistinctProperty(t *testing.T) {
	f := func(seed int64, n, k uint8) bool {
		nn := int(n%20) + 1
		kk := int(k) % (nn + 1)
		got := PickDistinctInto(New(seed), nn, kk, nil, make([]int, nn))
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= nn || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(got) == kk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReseedMatchesDerive(t *testing.T) {
	r := New(99)
	r.Int63() // desync, Reseed must fully rewind
	Reseed(r, 42, "tree")
	want := Derive(42, "tree")
	for i := 0; i < 50; i++ {
		if a, b := r.Int63(), want.Int63(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
	}
}

func TestPickDistinctIntoMatchesPerm(t *testing.T) {
	// The picks are a prefix of rand.Perm on the same stream, with the
	// same consumption, so downstream draws align too — even with the
	// scratch reused across rounds.
	r1, r2 := New(7), New(7)
	perm := make([]int, 10)
	var out []int
	for i := 0; i < 30; i++ {
		n, k := 10, i%11
		a := r1.Perm(n)[:k]
		b := PickDistinctInto(r2, n, k, out[:0], perm)
		out = b
		if len(a) != len(b) {
			t.Fatalf("round %d: lengths differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("round %d: picks differ at %d", i, j)
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("round %d: streams diverged", i)
		}
	}
}

// TestSeedFor2MatchesConcat pins the split-label derivation to the
// canonical one: SeedFor2(s, a, b) must equal SeedFor(s, a+b) for any
// split, so the allocation-free hot path cannot drift from the
// documented scheme.
func TestSeedFor2MatchesConcat(t *testing.T) {
	cases := []struct{ a, b string }{
		{"heuristic:", "Subtree-bottom-up"},
		{"selection:", "Random"},
		{"", "whole"},
		{"whole", ""},
		{"", ""},
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, c := range cases {
			if got, want := SeedFor2(seed, c.a, c.b), SeedFor(seed, c.a+c.b); got != want {
				t.Fatalf("SeedFor2(%d, %q, %q) = %d, want %d", seed, c.a, c.b, got, want)
			}
		}
	}
}

// drawAll draws from r through every math/rand entry point the
// repository's streams are read with and returns the values in order.
func drawAll(r *rand.Rand) []uint64 {
	var out []uint64
	for i := 0; i < 8; i++ {
		out = append(out, uint64(r.Int63()), r.Uint64(), uint64(r.Intn(1000+i)), math.Float64bits(r.Float64()))
	}
	sh := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
	for _, v := range append(sh, r.Perm(12)...) {
		out = append(out, uint64(v))
	}
	buf := make([]byte, 13)
	r.Read(buf)
	for _, b := range buf {
		out = append(out, uint64(b))
	}
	return append(out, uint64(r.Int63()))
}

// mathRand returns math/rand's own generator for seed: the stream every
// generator of this package must reproduce.
func mathRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestReseedScenariosMatchMathRand pins New's lazily seeded stream to
// math/rand's, draw for draw, however many reseeds precede the first
// draw and when a reseed lands in the middle of a stream (a partial Read
// included).
func TestReseedScenariosMatchMathRand(t *testing.T) {
	want := drawAll(mathRand(SeedFor(5, "heuristic:Random")))
	other := drawAll(mathRand(SeedFor(9, "selection:Random")))
	cases := map[string]func() *rand.Rand{
		"0 reseeds": func() *rand.Rand { return New(SeedFor(5, "heuristic:Random")) },
		"1 reseed": func() *rand.Rand {
			r := New(0)
			Reseed(r, 5, "heuristic:Random")
			return r
		},
		"2 reseeds": func() *rand.Rand {
			r := New(3)
			Reseed(r, 9, "selection:Random")
			Reseed2(r, 5, "heuristic:", "Random")
			return r
		},
		"mid-stream reseed": func() *rand.Rand {
			r := New(1)
			r.Int63()
			r.Read(make([]byte, 3))
			Reseed(r, 5, "heuristic:Random")
			return r
		},
	}
	for name, mk := range cases {
		r := mk()
		if got := drawAll(r); !slices.Equal(got, want) {
			t.Fatalf("%s: stream differs from math/rand's", name)
		}
		// Reseeding a drawn stream rewinds it like math/rand's too.
		Reseed(r, 9, "selection:Random")
		if got := drawAll(r); !slices.Equal(got, other) {
			t.Fatalf("%s: reseeded stream differs from math/rand's", name)
		}
	}
}

// TestLazySourceMatchesMathRand holds the lazily seeded source to
// math/rand's over edge-case and random seeds: every seed draws more
// than 2,000 values (past the 607-word register's wraparound) through a
// rotating mix of entry points, reseeding twice mid-stream.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, -89482311,
		int32max, 2 * int32max, -int32max, 1 << 31, -(1 << 31),
		math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, int32max * int32max}
	r := New(20261017)
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		got, want := New(seed), mathRand(seed)
		for step := 0; step < 2100; step++ {
			if step == 700 || step == 1500 {
				s2 := seed ^ int64(step)
				got.Seed(s2)
				want.Seed(s2)
			}
			var a, b uint64
			switch step % 6 {
			case 0:
				a, b = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				a, b = got.Uint64(), want.Uint64()
			case 2:
				a, b = uint64(got.Intn(1000+step)), uint64(want.Intn(1000+step))
			case 3:
				a, b = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 4:
				x, y := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}
				got.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
				want.Shuffle(len(y), func(i, j int) { y[i], y[j] = y[j], y[i] })
				if !slices.Equal(x, y) {
					t.Fatalf("seed %d step %d: Shuffle %v != %v", seed, step, x, y)
				}
			case 5:
				x, y := make([]byte, 1+step%11), make([]byte, 1+step%11)
				got.Read(x)
				want.Read(y)
				if !slices.Equal(x, y) {
					t.Fatalf("seed %d step %d: Read %v != %v", seed, step, x, y)
				}
			}
			if a != b {
				t.Fatalf("seed %d step %d: %d != %d", seed, step, a, b)
			}
		}
	}
}

// TestNewAllocs pins New at one allocation: the source holds the
// generator that reads it.
func TestNewAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { New(7).Int63() }); n != 1 {
		t.Fatalf("New allocates %v times, want 1", n)
	}
}
