// Package instance assembles a complete problem instance of the
// constructive in-network stream processing problem: an operator tree, a
// catalog of basic-object types (size, update frequency, server
// placement), the purchasable platform, and the QoS target rho.
//
// Generate reproduces the simulation methodology of the paper's Section 5;
// all randomness flows from one int64 seed through decorrelated
// sub-streams so experiments are exactly reproducible.
package instance

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/apptree"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/xslice"
)

// Instance is one solvable problem. W and Delta are derived from the tree,
// the object sizes and Alpha (call Refresh after mutating any of those).
type Instance struct {
	Tree     *apptree.Tree
	NumTypes int       // number of basic-object types
	Sizes    []float64 // MB, per object type
	Freqs    []float64 // downloads/s, per object type
	Holders  [][]int   // per object type, the servers holding it (sorted)
	Platform *platform.Platform
	Rho      float64 // target application throughput (results/s)
	Alpha    float64 // computation exponent: w_i = (delta_l+delta_r)^alpha

	W     []float64 `json:"-"` // derived: work-units per operator evaluation
	Delta []float64 `json:"-"` // derived: output size per operator (MB)
}

// Rate returns the paper's rate_k = delta_k x f_k for object type k, in
// MB/s: the bandwidth one processor spends continuously downloading k.
func (in *Instance) Rate(k int) float64 { return in.Sizes[k] * in.Freqs[k] }

// Refresh recomputes the derived per-operator work and output sizes.
func (in *Instance) Refresh() {
	in.W, in.Delta = in.Tree.Derive(in.Sizes, in.Alpha)
}

// EdgeTraffic returns the steady-state traffic (MB/s) on the tree edge
// from operator child to its parent: rho x delta_child.
func (in *Instance) EdgeTraffic(child int) float64 {
	return in.Rho * in.Delta[child]
}

// Availability returns av_k: how many servers hold object type k.
func (in *Instance) Availability(k int) int { return len(in.Holders[k]) }

// Validate checks cross-component consistency.
func (in *Instance) Validate() error {
	if in.Tree == nil {
		return fmt.Errorf("instance: nil tree")
	}
	if err := in.Tree.Validate(); err != nil {
		return err
	}
	if in.Platform == nil {
		return fmt.Errorf("instance: nil platform")
	}
	if err := in.Platform.Validate(); err != nil {
		return err
	}
	if in.NumTypes < 1 {
		return fmt.Errorf("instance: NumTypes = %d", in.NumTypes)
	}
	if len(in.Sizes) != in.NumTypes || len(in.Freqs) != in.NumTypes || len(in.Holders) != in.NumTypes {
		return fmt.Errorf("instance: per-type slice lengths disagree with NumTypes=%d", in.NumTypes)
	}
	for k := 0; k < in.NumTypes; k++ {
		if in.Sizes[k] <= 0 {
			return fmt.Errorf("instance: object %d has non-positive size", k)
		}
		if in.Freqs[k] <= 0 {
			return fmt.Errorf("instance: object %d has non-positive frequency", k)
		}
	}
	if in.Rho <= 0 {
		return fmt.Errorf("instance: rho = %v", in.Rho)
	}
	used := map[int]bool{}
	for _, l := range in.Tree.Leaves {
		if l.Object >= in.NumTypes {
			return fmt.Errorf("instance: leaf references type %d >= NumTypes %d", l.Object, in.NumTypes)
		}
		used[l.Object] = true
	}
	for k := range in.Holders {
		prev := -1
		for _, s := range in.Holders[k] {
			if s < 0 || s >= len(in.Platform.Servers) {
				return fmt.Errorf("instance: object %d held by invalid server %d", k, s)
			}
			if s <= prev {
				return fmt.Errorf("instance: holders of object %d not sorted/unique", k)
			}
			prev = s
		}
		if used[k] && len(in.Holders[k]) == 0 {
			return fmt.Errorf("instance: object %d used by the tree but held by no server", k)
		}
	}
	if len(in.W) != in.Tree.NumOps() || len(in.Delta) != in.Tree.NumOps() {
		return fmt.Errorf("instance: derived W/Delta stale; call Refresh")
	}
	return nil
}

// Config parameterizes Generate, mirroring the knobs varied in Section 5.
type Config struct {
	NumOps     int                // operators in the tree (the paper's N)
	NumTypes   int                // distinct basic-object types (paper: 15)
	SizeMin    float64            // MB (paper: 5 or 450)
	SizeMax    float64            // MB (paper: 30 or 530)
	Freq       float64            // downloads/s for every type (paper: 1/2 or 1/50)
	Alpha      float64            // computation exponent
	Rho        float64            // target throughput (paper: 1)
	MinHolders int                // min servers holding each type (default 1)
	MaxHolders int                // max servers holding each type (default 3)
	Platform   *platform.Platform // nil means platform.DefaultPlatform()
}

// PaperDefaults fills the unset fields of a Config with the paper's
// Section 5 values: 15 object types, small objects (5-30 MB), high
// frequency (1/2 s), rho = 1, 1-3 holders per type, default platform.
func (c Config) PaperDefaults() Config {
	if c.NumTypes == 0 {
		c.NumTypes = 15
	}
	if c.SizeMin == 0 && c.SizeMax == 0 {
		c.SizeMin, c.SizeMax = 5, 30
	}
	if c.Freq == 0 {
		c.Freq = 0.5
	}
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.MinHolders == 0 {
		c.MinHolders = 1
	}
	if c.MaxHolders == 0 {
		c.MaxHolders = 3
	}
	if c.Platform == nil {
		c.Platform = platform.DefaultPlatform()
	}
	return c
}

// Generate builds a random instance from cfg and seed. Tree shape, object
// sizes and server placement come from independent sub-streams, so e.g.
// changing NumOps does not reshuffle the per-type sizes.
func Generate(cfg Config, seed int64) *Instance {
	// A one-shot Generator is discarded afterwards, making the returned
	// instance the sole owner of its storage.
	return new(Generator).Generate(cfg, seed)
}

// Generator builds instances like Generate while reusing every internal
// buffer across calls: the tree (via an apptree.Builder), the per-type
// size/frequency/holder tables, the derived W/Delta vectors and the three
// decorrelated random streams. Steady-state generation is allocation-free.
//
// The returned *Instance and everything it references are owned by the
// Generator and valid only until the next Generate call — sweep workers
// hold one Generator each and solve-then-discard instances seed by seed.
// A Generator is not safe for concurrent use.
type Generator struct {
	inst                          Instance
	builder                       apptree.Builder
	treeRand, sizeRand, placeRand *rand.Rand
	perm                          []int              // PickDistinctInto scratch
	defPlat                       *platform.Platform // cached default platform
}

// Generate builds the (cfg, seed) instance on the generator's reusable
// storage. The result is field-for-field identical to the package-level
// Generate's.
func (g *Generator) Generate(cfg Config, seed int64) *Instance {
	if cfg.Platform == nil {
		// Cache the default platform: it is immutable in the sweep paths,
		// and rebuilding it per seed was the generator's last allocation.
		if g.defPlat == nil {
			g.defPlat = platform.DefaultPlatform()
		}
		cfg.Platform = g.defPlat
	}
	cfg = cfg.PaperDefaults()
	if cfg.NumOps < 1 {
		panic("instance: Config.NumOps must be >= 1")
	}
	if cfg.MinHolders < 1 || cfg.MaxHolders < cfg.MinHolders {
		panic("instance: invalid holder range")
	}
	numServers := len(cfg.Platform.Servers)
	if cfg.MaxHolders > numServers {
		cfg.MaxHolders = numServers
	}

	if g.treeRand == nil {
		g.treeRand, g.sizeRand, g.placeRand = rng.New(0), rng.New(0), rng.New(0)
	}
	rng.Reseed(g.treeRand, seed, "tree")
	rng.Reseed(g.sizeRand, seed, "sizes")
	rng.Reseed(g.placeRand, seed, "placement")

	in := &g.inst
	in.Tree = g.builder.Random(g.treeRand, cfg.NumOps, cfg.NumTypes)
	in.NumTypes = cfg.NumTypes
	in.Sizes = xslice.Grow(in.Sizes, cfg.NumTypes)
	in.Freqs = xslice.Grow(in.Freqs, cfg.NumTypes)
	in.Holders = xslice.Grow(in.Holders, cfg.NumTypes)
	in.Platform = cfg.Platform
	in.Rho = cfg.Rho
	in.Alpha = cfg.Alpha
	g.perm = xslice.Grow(g.perm, numServers)
	for k := 0; k < cfg.NumTypes; k++ {
		in.Sizes[k] = rng.UniformIn(g.sizeRand, cfg.SizeMin, cfg.SizeMax)
		in.Freqs[k] = cfg.Freq
		n := cfg.MinHolders
		if cfg.MaxHolders > cfg.MinHolders {
			n += g.placeRand.Intn(cfg.MaxHolders - cfg.MinHolders + 1)
		}
		h := rng.PickDistinctInto(g.placeRand, numServers, n, in.Holders[k][:0], g.perm)
		sortInts(h)
		in.Holders[k] = h
	}
	in.W, in.Delta = in.Tree.DeriveInto(in.Sizes, in.Alpha, in.W, in.Delta)
	return in
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// instanceFields is Instance without its methods. Its default JSON
// encoding is the instance's wire form: the exported fields in
// declaration order, with the derived W and Delta left out.
type instanceFields Instance

// UnmarshalJSON implements json.Unmarshaler: it decodes the wire fields
// over a zeroed instance, then derives W and Delta through
// RefreshIfSound.
func (in *Instance) UnmarshalJSON(data []byte) error {
	*in = Instance{}
	if err := json.Unmarshal(data, (*instanceFields)(in)); err != nil {
		return err
	}
	in.RefreshIfSound()
	return nil
}

// RefreshIfSound recomputes the derived fields once the tree is
// structurally valid and every leaf names a sized object type. Decoded
// input is untrusted, and deriving a malformed tree indexes out of range
// or never terminates; such an instance is left underived, and Validate
// reports its tree or leaf error.
func (in *Instance) RefreshIfSound() {
	if in.Tree != nil && len(in.Sizes) > 0 && in.Tree.Validate() == nil && in.leavesSized() {
		in.Refresh()
	}
}

// leavesSized reports whether every leaf's object type indexes Sizes.
func (in *Instance) leavesSized() bool {
	for _, l := range in.Tree.Leaves {
		if l.Object >= len(in.Sizes) {
			return false
		}
	}
	return true
}
