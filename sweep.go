package streamalloc

import (
	"context"

	"repro/internal/apptree"
	"repro/internal/experiments"
	"repro/internal/multiapp"
	"repro/internal/rng"
)

// Sweeps are first-class: a Grid declares a (heuristic x instance x
// seed) experiment — the same engine that regenerates every figure of
// the paper — and Run streams its completed Cells in deterministic
// order at any worker count. Grids partition exactly across machines
// with Shard (per-cell seeds are pure functions of grid coordinates,
// so the union of shards is cell-for-cell identical to one big run),
// and opt into a per-cell stream-engine verification column with
// Verify. See the package example and README "Sweeps".
type (
	// Grid is a declarative sweep; fill the axes and a Make factory,
	// then call Run or Cells.
	Grid = experiments.Grid
	// Cell is one completed grid point.
	Cell = experiments.Cell
	// Shard selects one of N disjoint, exactly-reassemblable cell
	// partitions of a Grid.
	Shard = experiments.Shard
	// WorkerEnv is the reusable per-worker environment handed to a
	// Grid's instance factory; its Generate method is the
	// zero-steady-state-allocation way to build per-cell instances.
	WorkerEnv = experiments.WorkerEnv
)

// MakeInstances adapts a per-column InstanceConfig into a Grid factory
// following the paper's generation methodology: cell (x, seed) solves
// the instance Generate(cfgOf(x), seed), built on the worker's reusable
// generator.
func MakeInstances(cfgOf func(x float64) InstanceConfig) func(*WorkerEnv, float64, int64) (*Instance, error) {
	return experiments.MakeInstances(cfgOf)
}

// DerivedSeeds returns a Grid.SeedOf that derives every cell seed
// through SeedFor from the given label and the cell coordinates, so
// distinct grids sharing a BaseSeed draw decorrelated instance streams.
func DerivedSeeds(label string) func(base int64, xi, rep int) int64 {
	return experiments.DerivedSeeds(label)
}

// SweepFigureCtx runs one of the repository's named paper figures
// ("fig2a", "fig2b", "fig3", ...; see FigureIDs) on the Grid engine.
// Cancelling ctx aborts the sweep between cells — the same contract as
// Grid.Run — which is what lets coordinator-driven and deadline-bound
// runs stop cleanly.
func SweepFigureCtx(ctx context.Context, id string, cfg SweepConfig) (*SweepResult, error) {
	return experiments.BuildFigure(ctx, id, cfg)
}

// FigureIDs lists the reproducible paper-figure ids.
func FigureIDs() []string { return experiments.FigureIDs() }

type (
	// SweepConfig parameterizes the named paper figures.
	SweepConfig = experiments.Config
	// SweepResult is a reduced figure: labelled series of (x, mean
	// cost, CI) points with Dat/ASCII renderers.
	SweepResult = experiments.Figure
)

// SeedFor returns the deterministic SplitMix64 sub-seed this library
// derives for (seed, label) — the same function every internal
// experiment uses, exported so external shard orchestrators can
// recompute the exact per-cell seeds of a distributed Grid (see
// Grid.SeedOf and DerivedSeeds) instead of inventing a parallel scheme.
func SeedFor(seed int64, label string) int64 { return rng.SeedFor(seed, label) }

// Multi-tenant workloads: several applications, each with its own
// throughput target, provisioned on one shared platform. Combine folds
// them into a single solvable Instance (the reduction is exact — see
// internal/multiapp), so a Grid whose factory calls Combine sweeps
// multi-tenant scenarios with the same engine, sharding and
// verification as single-application sweeps.
type (
	// App is one tenant: an operator tree and its QoS target.
	App = multiapp.App
	// Workload is the environment all tenants share: object catalog,
	// holder placement, platform, alpha.
	Workload = multiapp.Workload
	// Tree is a binary operator tree over basic objects.
	Tree = apptree.Tree
)

// Combine folds the applications into one solvable instance with
// global rho = 1 (each tenant's target is pre-scaled into its
// operators' work and traffic).
func Combine(apps []App, w Workload) (*Instance, error) { return multiapp.Combine(apps, w) }

// RandomTree builds a random binary operator tree with numOps
// operators over numTypes basic-object types — the building block for
// custom multi-tenant workloads. Derive the seed from the sweep cell's
// seed with SeedFor (one label per tenant) to keep sharded sweeps
// reproducible.
func RandomTree(seed int64, numOps, numTypes int) *Tree {
	return apptree.Random(rng.New(seed), numOps, numTypes)
}
