// Package rng provides small deterministic random-number helpers used by
// the instance generators and experiments.
//
// Every experiment in this repository is reproducible from a single int64
// seed. Sub-streams are derived with SplitMix64 so that, e.g., the tree
// shape, the object sizes, and the server placement of one instance are
// decorrelated yet individually stable when other parameters change.
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
	return rand.New(rand.NewSource(SeedFor(seed, label)))
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

// New returns a seeded *rand.Rand.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// NewDeferred returns a *rand.Rand whose stream is New(seed)'s, draw for
// draw, but whose seeding waits for the first draw: Seed, Reseed and
// Reseed2 only record the seed, and math/rand's own source is seeded
// (about 1,800 generator steps) when a value is first drawn after them.
// Callers that reseed a stream per task and often draw nothing from it
// (the placement stream of a heuristic that ignores it) skip that cost.
// math/rand's source is allocated on the first draw, so the generator
// costs as many allocations as New's once drawn from, one fewer if never.
func NewDeferred(seed int64) *rand.Rand {
	s := &deferredSource{seed: seed, pending: true}
	s.r = *rand.New(s)
	return &s.r
}

// deferredSource is a rand.Source64 that applies its last Seed to the
// wrapped math/rand source on the next draw. It holds the generator that
// reads it, so the two share one allocation.
type deferredSource struct {
	r       rand.Rand
	src     rand.Source64 // nil until the first draw
	seed    int64
	pending bool // seed recorded but not yet applied to src
}

func (s *deferredSource) Seed(seed int64) { s.seed, s.pending = seed, true }

func (s *deferredSource) sync() {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.src.Seed(s.seed)
	}
	s.pending = false
}

func (s *deferredSource) Int63() int64 {
	if s.pending {
		s.sync()
	}
	return s.src.Int63()
}

func (s *deferredSource) Uint64() uint64 {
	if s.pending {
		s.sync()
	}
	return s.src.Uint64()
}

// UniformIn returns a pseudo-random float64 in [lo, hi) drawn from r.
func UniformIn(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// PickDistinct returns k distinct pseudo-random integers in [0, n),
// in random order. It panics if k > n or k < 0.
func PickDistinct(r *rand.Rand, n, k int) []int {
	return PickDistinctInto(r, n, k, make([]int, 0, k), make([]int, n))
}

// PickDistinctInto is PickDistinct appending into out (reusing its
// capacity) with perm as permutation scratch (len >= n). It consumes
// exactly the same stream from r as PickDistinct — a full n-element
// Fisher-Yates — so reusing scratch never changes downstream draws.
func PickDistinctInto(r *rand.Rand, n, k int, out, perm []int) []int {
	if k < 0 || k > n {
		panic("rng: PickDistinct: k out of range")
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
