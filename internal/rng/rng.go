// Package rng provides small deterministic random-number helpers used by
// the instance generators and experiments.
//
// Every experiment in this repository is reproducible from a single int64
// seed. Sub-streams are derived with SplitMix64 so that, e.g., the tree
// shape, the object sizes, and the server placement of one instance are
// decorrelated yet individually stable when other parameters change.
//
// New, Derive and the Reseed helpers hand out *rand.Rand generators whose
// streams are math/rand's own (rand.New(rand.NewSource(seed))), draw for
// draw, so every stream and output predating them is unchanged. They
// read a lazily seeded copy of math/rand's source: seeding costs O(1)
// instead of math/rand's ~1,800 generator steps, and each register word
// is derived on its first read. A solve reseeds several streams per
// request and draws only tens to hundreds of values from each, so
// seeding no longer dominates them.
package rng

import "math/rand"

// SplitMix64 advances and hashes a 64-bit state. It is the standard
// splitmix64 finalizer (Steele et al.), good enough to seed independent
// math/rand streams.
func SplitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeedFor returns the deterministic sub-seed that Derive uses for
// (seed, label). It is exported so parallel work items can carry a
// plain int64 across goroutine boundaries instead of sharing a
// *rand.Rand: hand each item SeedFor(base, itemLabel) and let it
// Derive its own streams locally.
func SeedFor(seed int64, label string) int64 {
	h := uint64(seed)
	for _, b := range []byte(label) {
		h = SplitMix64(h ^ uint64(b))
	}
	return int64(SplitMix64(h))
}

// SeedFor2 is SeedFor over the concatenation a+b without materializing
// it: the hash consumes the bytes of a then the bytes of b, so
// SeedFor2(s, a, b) == SeedFor(s, a+b) for all inputs. Hot paths that
// build labels like "heuristic:"+name per call use it to keep seed
// derivation allocation-free.
func SeedFor2(seed int64, a, b string) int64 {
	h := uint64(seed)
	for _, c := range []byte(a) {
		h = SplitMix64(h ^ uint64(c))
	}
	for _, c := range []byte(b) {
		h = SplitMix64(h ^ uint64(c))
	}
	return int64(SplitMix64(h))
}

// Derive returns a new seeded *rand.Rand whose stream is a deterministic
// function of (seed, label). Distinct labels give decorrelated streams.
func Derive(seed int64, label string) *rand.Rand {
	return New(SeedFor(seed, label))
}

// Reseed rewinds an existing *rand.Rand to the exact stream Derive(seed,
// label) would start, without allocating a new generator. Scratch-reusing
// generators (instance.Generator) hold their streams across calls and
// Reseed them per seed.
func Reseed(r *rand.Rand, seed int64, label string) {
	r.Seed(SeedFor(seed, label))
}

// Reseed2 is Reseed with the label split as in SeedFor2:
// Reseed2(r, s, a, b) rewinds r to the stream of Derive(s, a+b) without
// concatenating the label.
func Reseed2(r *rand.Rand, seed int64, a, b string) {
	r.Seed(SeedFor2(seed, a, b))
}

// New returns a seeded *rand.Rand. Its stream is
// rand.New(rand.NewSource(seed))'s, draw for draw, but it is read from a
// lazySource, so seeding and reseeding cost O(1).
func New(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	s.r = *rand.New(s)
	return &s.r
}

// math/rand's additive lagged-Fibonacci generator (rngSource): a
// 607-word register, tapped 273 words back.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	seedMul  = 48271 // the Lehmer multiplier math/rand seeds the register with
)

// lazySource is math/rand's rngSource, draw for draw, with lazy seeding.
// rngSource.Seed runs a Lehmer generator x ← 48271·x mod (2³¹−1) for
// 20 + 3·607 steps and XORs three consecutive states into each register
// word; lazySource.Seed only records the starting state x0 and marks the
// whole register unread. Register word i is derived on its first read in
// O(1) from a power table, as (x0·48271^(21+3i) mod 2³¹−1)<<40 ^
// (…^(22+3i)…)<<20 ^ (…^(23+3i)…) ^ cooked[i]: exactly the value
// rngSource.Seed stores there. A stream that draws d values reads at most
// 2d words, so seeding never pays for the register it does not use. The
// source holds the generator that reads it, so New costs one allocation.
type lazySource struct {
	r         rand.Rand
	x0        uint64
	tap, feed int
	have      [(rngLen + 63) / 64]uint64 // bit i: vec[i] is materialized
	vec       [rngLen]int64
}

var (
	// seedPow[e] is 48271^e mod 2³¹−1.
	seedPow [3*rngLen + 21]uint64
	// cooked is math/rand's unexported rngCooked table, recovered at init.
	cooked [rngLen]int64
)

func init() {
	seedPow[0] = 1
	for e := 1; e < len(seedPow); e++ {
		seedPow[e] = seedPow[e-1] * seedMul % int32max
	}
	// rngSource seeded with 1 holds seedWord(1, i) ^ cooked[i] in word i.
	// Its first 607 draws write every word once, at feed position
	// 333−j (mod 607), as the sum of the old word and the word 273
	// positions above it, so three loops invert them back to the seeded
	// register.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	feed := func(j int) int { return (rngLen - rngTap - 1 - j + rngLen) % rngLen }
	var reg [rngLen]int64
	// Draw j ≥ 273 read a word draw j−273 had already rewritten.
	for j := rngTap; j < rngLen; j++ {
		reg[feed(j)] = out[j] - out[j-rngTap]
	}
	// Draw j < 273 read an original word, recovered by the loop above.
	for j := 0; j < rngTap; j++ {
		reg[feed(j)] = out[j] - reg[(feed(j)+rngTap)%rngLen]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ seedWord(1, i)
	}
}

// seedWord is the Lehmer part of register word i for starting state x0.
func seedWord(x0 uint64, i int) int64 {
	e := 21 + 3*i
	return int64(x0*seedPow[e]%int32max)<<40 ^
		int64(x0*seedPow[e+1]%int32max)<<20 ^
		int64(x0*seedPow[e+2]%int32max)
}

// Seed maps seed to the Lehmer starting state exactly as rngSource.Seed
// does and rewinds the register to unread.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, materializing it on its first read.
func (s *lazySource) word(i int) int64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		s.have[i>>6] |= 1 << (i & 63)
		s.vec[i] = seedWord(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 is rngSource.Uint64 over the lazily materialized register.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63: Uint64 without its top bit.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// UniformIn returns a pseudo-random float64 in [lo, hi) drawn from r.
func UniformIn(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// PickDistinctInto returns k distinct pseudo-random integers in [0, n),
// in random order, appended into out[:0] (reusing its capacity) with
// perm as permutation scratch (len >= n). It panics if k > n or k < 0.
// The picks are r.Perm(n)[:k] and consume exactly the same stream — a
// full n-element Fisher-Yates — so reusing scratch never changes
// downstream draws.
func PickDistinctInto(r *rand.Rand, n, k int, out, perm []int) []int {
	if k < 0 || k > n {
		panic("rng: PickDistinctInto: k out of range")
	}
	// rand.Perm's loop, into scratch: same Intn sequence, no allocation.
	perm = perm[:n]
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return append(out[:0], perm[:k]...)
}
