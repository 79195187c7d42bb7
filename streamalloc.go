package streamalloc

import (
	"context"
	"math/rand"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/refine"
	"repro/internal/stream"
)

// Re-exported model types.
type (
	// Instance is a complete problem: tree, objects, platform, rho.
	Instance = instance.Instance
	// InstanceConfig parameterizes Generate.
	InstanceConfig = instance.Config
	// Platform is the purchase catalog plus the fixed data servers.
	Platform = platform.Platform
	// Catalog is the set of purchasable CPU and NIC options (Table 1).
	Catalog = platform.Catalog
	// Mapping is an operator-to-processor allocation.
	Mapping = mapping.Mapping
	// Result is a validated heuristic solution.
	Result = heuristics.Result
	// Options tunes the solve pipeline (server selection, downgrade, seed).
	Options = heuristics.Options
	// SimOptions tunes the stream-engine execution.
	SimOptions = stream.Options
	// SimReport is the stream engine's measurement.
	SimReport = stream.Report
	// SimRunner is a reusable simulation engine: repeated Simulate calls
	// on one goroutine reuse every internal buffer and allocate nothing
	// in steady state. Not safe for concurrent use.
	SimRunner = stream.Runner
)

// NewSimRunner returns a reusable simulation engine for hot loops; the
// package-level Simulate already draws pooled runners for one-shot calls.
func NewSimRunner() *SimRunner { return stream.NewRunner() }

// Generate builds a random instance per the paper's methodology; see
// InstanceConfig for the knobs (zero values mean the paper's defaults).
func Generate(cfg InstanceConfig, seed int64) *Instance {
	return instance.Generate(cfg, seed)
}

// DefaultPlatform returns the paper's Section 5 platform: 6 data servers
// with 10 GB/s NICs, 1 GB/s links, and the Table 1 purchase catalog.
func DefaultPlatform() *Platform { return platform.DefaultPlatform() }

// HomogeneousPlatform returns a CONSTR-HOM platform built from the given
// CPU and NIC rows (0-4) of the default catalog.
func HomogeneousPlatform(cpu, nic int) *Platform {
	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(cpu, nic)
	return p
}

// RefineOptions tunes Refine; the zero value uses the defaults.
type RefineOptions = refine.Options

// Refine runs the local-search refinement layer: the best constructive
// heuristic seeds a simulated-annealing plus large-neighborhood search
// over the mapping move journal. The result is never worse than the best
// constructive solution and the search stops early when the seed already
// matches the analytic cost lower bound. The heuristic also runs by name
// ("Refined") through Solve and the sweep Grid.
func Refine(in *Instance, opts RefineOptions) (*Result, error) {
	return refine.Refine(in, opts)
}

// Solve runs one named heuristic with default options.
func Solve(in *Instance, heuristic string) (*Result, error) {
	var s Solver
	return s.Solve(in, heuristic)
}

// Validate re-checks a mapping against all five steady-state constraints
// plus structural completeness; nil means feasible.
func Validate(m *Mapping) error { return m.Validate() }

// SolveBatch solves many instances concurrently on a bounded worker
// pool, returning each instance's cheapest feasible result (or error)
// in input order: slot i always belongs to ins[i], at any worker count
// (<= 0 means GOMAXPROCS). Cancelling ctx skips the instances not yet
// started; their error slots wrap the cancellation cause.
func SolveBatch(ctx context.Context, ins []*Instance, opts Options, workers int) ([]*Result, []error) {
	s := Solver{Options: opts, Workers: workers}
	return s.SolveBatch(ctx, ins)
}

// Simulate measures the steady-state throughput of an arbitrary complete
// mapping without asserting the QoS target.
func Simulate(m *Mapping, opt SimOptions) (*SimReport, error) {
	return stream.Simulate(m, opt)
}

// SimulateBatch measures many mappings concurrently; see SolveBatch for
// the ordering and cancellation contract.
func SimulateBatch(ctx context.Context, ms []*Mapping, opt SimOptions, workers int) ([]*SimReport, []error) {
	return stream.SimulateBatch(ctx, ms, opt, workers)
}

// MaxThroughput returns the analytic maximum throughput a mapping
// sustains under the constraint system.
func MaxThroughput(m *Mapping) float64 { return stream.AnalyticMaxThroughput(m) }

// NewRand returns a seeded math/rand generator. It exists for examples
// and ad-hoc workload construction only: library code and anything that
// must shard or parallelize derives plain per-item seeds with SeedFor
// instead, so no *rand.Rand ever crosses a goroutine or machine
// boundary.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
