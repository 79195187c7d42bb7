package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/apptree"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/multiapp"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Shard selects a slice of a Grid's cells for one of Count cooperating
// runs: shard i owns the full-grid cell indices {i, i+Count, i+2*Count,
// ...}. Every per-cell seed is a pure function of the cell's grid
// coordinates (never of execution order), so the union of all Count
// shards is cell-for-cell — and, after reduction, byte-for-byte —
// identical to a single unsharded run. The zero value means "the whole
// grid".
type Shard struct {
	Index int // which shard this run computes, in [0, Count)
	Count int // total cooperating shards; <= 1 means unsharded
}

// normalized maps the zero value (and any Count <= 1) onto 1 shard.
func (s Shard) normalized() Shard {
	if s.Count <= 1 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

func (s Shard) validate() error {
	if s.Count < 0 {
		return fmt.Errorf("sweep: negative shard count %d", s.Count)
	}
	n := s.normalized()
	if s.Index < 0 || s.Index >= n.Count {
		return fmt.Errorf("sweep: shard index %d out of range [0, %d)", s.Index, n.Count)
	}
	return nil
}

// String renders "i/n" (the cmd/experiments -shard syntax).
func (s Shard) String() string {
	n := s.normalized()
	return fmt.Sprintf("%d/%d", n.Index, n.Count)
}

// WorkerEnv is the reusable per-worker environment a Grid hands to its
// instance factory: one worker of the sweep pool owns one WorkerEnv and
// runs its cells sequentially, so everything here — the instance
// generator, the solve context with its caller-owned mapping arena, the
// stream runner behind the verification column — is recycled across that
// worker's cells and a figure-sized sweep allocates almost nothing in
// steady state. A WorkerEnv is not safe for concurrent use and is only
// valid inside the Grid callbacks that receive it.
type WorkerEnv struct {
	gen    instance.Generator
	sc     heuristics.SolveContext
	runner stream.Runner

	// Multi-tenant cell arenas: one reusable tree builder per RandomTree
	// call within a cell (ntrees is reset before every Make), a reseeded
	// rand stream shared by all of them, and the Combine builder.
	treeRand     *rand.Rand
	treeBuilders []*apptree.Builder
	ntrees       int
	combiner     multiapp.Builder
}

// Generate builds the (cfg, seed) instance on the worker's reusable
// generator, exactly like the package-level instance.Generate. The
// returned instance is owned by the environment and valid only for the
// current cell; the sweep engine solves and discards it before the
// worker's next cell.
func (e *WorkerEnv) Generate(cfg instance.Config, seed int64) *instance.Instance {
	return e.gen.Generate(cfg, seed)
}

// RandomTree builds a random binary operator tree on the worker's
// reusable arenas, drawing the exact random stream of the one-shot
// apptree.Random(rng.New(seed), ...) — so sweeps that switch to it
// stay byte-identical. Each call within one cell draws a fresh builder
// (all of a cell's tenant trees are alive at once for Combine); trees
// are owned by the environment and valid only for the current cell.
func (e *WorkerEnv) RandomTree(seed int64, numOps, numTypes int) *apptree.Tree {
	if e.treeRand == nil {
		e.treeRand = rng.New(seed)
	} else {
		// Seed on an existing rand.Rand restarts the identical stream
		// rng.New would produce for this seed.
		e.treeRand.Seed(seed)
	}
	if e.ntrees == len(e.treeBuilders) {
		e.treeBuilders = append(e.treeBuilders, new(apptree.Builder))
	}
	b := e.treeBuilders[e.ntrees]
	e.ntrees++
	return b.Random(e.treeRand, numOps, numTypes)
}

// Combine folds multi-tenant applications into one solvable instance
// on the worker's reusable multiapp.Builder — identical output to the
// one-shot multiapp.Combine, without its per-cell tree and instance
// allocations. The instance is owned by the environment and valid only
// for the current cell.
func (e *WorkerEnv) Combine(apps []multiapp.App, w multiapp.Workload) (*instance.Instance, error) {
	return e.combiner.Combine(apps, w)
}

// envPool recycles WorkerEnvs across Grid runs: repeated sweeps (perf
// harness loops, shard batches, figure suites) draw already-warmed
// generators, solve contexts and stream runners instead of replaying
// every buffer's growth per run. Within one run each pool worker owns
// one env exclusively; envs go back only after the run completes.
var envPool = sync.Pool{New: func() any { return &WorkerEnv{} }}

func newWorkerEnvs(workers, n int) []*WorkerEnv {
	envs := make([]*WorkerEnv, par.Workers(workers, n))
	for i := range envs {
		envs[i] = envPool.Get().(*WorkerEnv)
	}
	return envs
}

func releaseWorkerEnvs(envs []*WorkerEnv) {
	for _, e := range envs {
		envPool.Put(e)
	}
}

// Cell is one completed grid point: one heuristic solved on one
// generated instance. Cells stream out of Grid.Run in deterministic
// full-grid index order.
type Cell struct {
	Index           int // position in the full grid's h-major, x-then-rep order
	HIdx, XIdx, Rep int // grid coordinates (Index = (HIdx*len(Xs)+XIdx)*Seeds+Rep)

	Heuristic string
	X         float64
	Seed      int64

	Cost  float64 // platform cost of the feasible mapping (Err == nil)
	Procs int     // processors purchased
	Err   error   // nil when a feasible mapping was found

	// Verification column, populated when Grid.Verify is set and the
	// cell is feasible: the mapping is executed on the stream engine.
	Rho       float64 // the instance's QoS target
	Measured  float64 // simulated steady-state throughput
	Analytic  float64 // analytic maximum sustainable throughput
	VerifyErr error   // stream-engine failure (nil when Verify is off)
}

// Feasible reports whether the cell found a feasible mapping.
func (c *Cell) Feasible() bool { return c.Err == nil }

// MeetsRho reports whether the cell's simulated throughput sustains the
// instance's QoS target by stream.MeetsTarget. Only meaningful when the
// grid ran with a Verify column.
func (c *Cell) MeetsRho() bool {
	return c.Err == nil && c.VerifyErr == nil && stream.MeetsTarget(c.Measured, c.Rho)
}

// Grid is a declarative sweep over (heuristic x instance x seed): every
// heuristic is solved on every generated instance of every column Xs[i],
// Seeds times with distinct seeds. It is the engine behind every figure
// of the paper reproduction and the public streamalloc sweep API.
//
// The grid's cells are independent work items fanned across Workers
// goroutines; results stream to the Run callback in deterministic
// full-grid index order (heuristic-major, then x, then repetition), so
// output is byte-identical at any worker count and any Shard partition.
type Grid struct {
	// Heuristics are the series, by name (heuristics.ByName, e.g.
	// "Subtree-bottom-up"); every name the experiment harness plots is
	// valid, including "Subtree-bottom-up-nofold".
	Heuristics []string
	// Xs are the columns — whatever instance parameter Make varies.
	Xs []float64
	// Seeds is the number of repetitions per (heuristic, x) cell; it
	// must be positive.
	Seeds int
	// BaseSeed anchors every per-cell seed (see SeedOf).
	BaseSeed int64
	// Workers bounds the sweep's concurrency: <= 0 means GOMAXPROCS, 1
	// forces the serial path. Output is identical at any width.
	Workers int
	// Shard restricts the run to one partition of the cells; the zero
	// value runs the whole grid.
	Shard Shard

	// Make builds the instance for one cell. It runs on a sweep worker
	// with that worker's reusable environment; the returned instance
	// needs to stay valid only until Make is called again on the same
	// environment. Returning an error marks the cell failed.
	Make func(env *WorkerEnv, x float64, seed int64) (*instance.Instance, error)

	// Opts, when non-nil, supplies per-heuristic solve options. The
	// engine overwrites Options.Seed with the cell seed.
	Opts func(heuristic string) heuristics.Options

	// Verify, when non-nil, additionally executes every feasible cell's
	// mapping on the discrete-event stream engine with these options and
	// fills the cell's verification column. Simulation never perturbs
	// the solve (separate rng streams), so Cost/Procs are unchanged.
	Verify *stream.Options

	// Eval, when non-nil, replaces the per-cell solve entirely: the
	// sweep engine fills the cell's coordinates (Index, HIdx/XIdx/Rep,
	// Heuristic, X, Seed) and hands it to Eval, which computes the
	// payload columns (Cost, Procs, Err, ...) however it likes — the
	// churn figure runs whole dynamic scenarios per cell this way. With
	// Eval set, the Heuristics entries are series labels rather than
	// registry names, and Make/Opts/Verify are ignored. Eval runs on a
	// pool worker and must be a pure function of the cell coordinates
	// plus the reusable environment, so sharded output stays
	// byte-identical to an unsharded run.
	Eval func(ctx context.Context, env *WorkerEnv, c *Cell)

	// SeedOf derives the seed of repetition rep of column index xi.
	// Seeds are shared across heuristics so every series solves the same
	// instances (the paper's paired-comparison methodology) and depend
	// only on grid coordinates, which is what makes sharding exact. Nil
	// means sequential seeds, BaseSeed + rep — the paper figures'
	// scheme; DerivedSeeds gives decorrelated rng.SeedFor streams.
	SeedOf func(base int64, xi, rep int) int64
}

// DerivedSeeds returns a SeedOf that derives every cell seed through
// rng.SeedFor from the given label and the cell coordinates, so distinct
// grids (distinct labels) sharing one BaseSeed draw decorrelated
// instance streams. External shard orchestrators can recompute any
// cell's seed with streamalloc.SeedFor and the same label.
func DerivedSeeds(label string) func(base int64, xi, rep int) int64 {
	return func(base int64, xi, rep int) int64 {
		return rng.SeedFor(base, fmt.Sprintf("%s:x%d:r%d", label, xi, rep))
	}
}

// Size returns the number of cells in the full (unsharded) grid.
func (g *Grid) Size() int { return len(g.Heuristics) * len(g.Xs) * g.Seeds }

// CellSeed returns the seed used for repetition rep of column xi.
func (g *Grid) CellSeed(xi, rep int) int64 {
	if g.SeedOf != nil {
		return g.SeedOf(g.BaseSeed, xi, rep)
	}
	return g.BaseSeed + int64(rep)
}

// Validate rejects grids that would otherwise produce silently empty or
// truncated sweeps: no heuristics, unknown heuristic names, no columns,
// non-positive seeds-per-cell, a missing factory, or an out-of-range
// shard.
func (g *Grid) Validate() error {
	if len(g.Heuristics) == 0 {
		return fmt.Errorf("sweep: Grid.Heuristics is empty")
	}
	if g.Eval == nil {
		for _, name := range g.Heuristics {
			if _, err := heuristics.ByName(name); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	}
	if len(g.Xs) == 0 {
		return fmt.Errorf("sweep: Grid.Xs is empty")
	}
	if g.Seeds <= 0 {
		return fmt.Errorf("sweep: Grid.Seeds must be positive, got %d", g.Seeds)
	}
	if g.Make == nil && g.Eval == nil {
		return fmt.Errorf("sweep: Grid.Make is nil")
	}
	return g.Shard.validate()
}

// resolve validates the grid and materializes the heuristic values.
func (g *Grid) resolve() ([]heuristics.Heuristic, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Eval != nil {
		return nil, nil // labels only; no registry lookup
	}
	hs := make([]heuristics.Heuristic, len(g.Heuristics))
	for i, name := range g.Heuristics {
		hs[i], _ = heuristics.ByName(name)
	}
	return hs, nil
}

// shardIndices lists the full-grid indices this run's shard owns, in
// increasing order.
func (g *Grid) shardIndices() []int {
	sh := g.Shard.normalized()
	n := g.Size()
	idxs := make([]int, 0, (n-sh.Index+sh.Count-1)/sh.Count)
	for i := sh.Index; i < n; i += sh.Count {
		idxs = append(idxs, i)
	}
	return idxs
}

// Run executes the grid's (sharded) cells on a worker pool and streams
// every completed Cell to emit in deterministic order — increasing
// full-grid index, exactly the sequence a serial run would produce —
// regardless of which workers finish first. emit runs serially (one call
// at a time, on a pool worker) and may be nil. When ctx is cancelled,
// cells not yet started are skipped, an already-complete prefix may
// still be emitted, and the context error is returned.
func (g *Grid) Run(ctx context.Context, emit func(Cell)) error {
	hs, err := g.resolve()
	if err != nil {
		return err
	}
	idxs := g.shardIndices()
	envs := newWorkerEnvs(g.Workers, len(idxs))
	defer releaseWorkerEnvs(envs)
	out := make([]Cell, len(idxs))
	return par.ForEachOrdered(ctx, g.Workers, len(idxs), func(w, i int) {
		if g.Eval != nil {
			out[i] = g.runEvalCell(ctx, envs[w], idxs[i])
		} else {
			out[i] = g.runCell(envs[w], hs[idxs[i]/(len(g.Xs)*g.Seeds)], idxs[i])
		}
	}, func(i int) {
		if emit != nil {
			emit(out[i])
		}
	})
}

// Cells runs the grid and collects the (sharded) cells in emit order.
func (g *Grid) Cells(ctx context.Context) ([]Cell, error) {
	out := make([]Cell, 0, len(g.shardIndices()))
	err := g.Run(ctx, func(c Cell) { out = append(out, c) })
	return out, err
}

// runEvalCell computes one cell of an Eval-driven grid: coordinates are
// filled by the engine, the payload by the grid's callback.
func (g *Grid) runEvalCell(ctx context.Context, env *WorkerEnv, idx int) Cell {
	nx, ns := len(g.Xs), g.Seeds
	c := Cell{
		Index: idx,
		HIdx:  idx / (nx * ns),
		XIdx:  (idx / ns) % nx,
		Rep:   idx % ns,
	}
	c.Heuristic = g.Heuristics[c.HIdx]
	c.X = g.Xs[c.XIdx]
	c.Seed = g.CellSeed(c.XIdx, c.Rep)
	env.ntrees = 0
	g.Eval(ctx, env, &c)
	return c
}

// runCell solves one cell on the worker's environment.
func (g *Grid) runCell(env *WorkerEnv, h heuristics.Heuristic, idx int) Cell {
	nx, ns := len(g.Xs), g.Seeds
	c := Cell{
		Index: idx,
		HIdx:  idx / (nx * ns),
		XIdx:  (idx / ns) % nx,
		Rep:   idx % ns,
	}
	c.Heuristic = g.Heuristics[c.HIdx]
	c.X = g.Xs[c.XIdx]
	c.Seed = g.CellSeed(c.XIdx, c.Rep)
	env.ntrees = 0 // recycle the cell's tenant-tree builders
	in, err := g.Make(env, c.X, c.Seed)
	if err != nil {
		c.Err = fmt.Errorf("sweep: cell %d factory: %w", idx, err)
		return c
	}
	o := heuristics.Options{}
	if g.Opts != nil {
		o = g.Opts(c.Heuristic)
	}
	o.Seed = c.Seed
	res, err := env.sc.Solve(in, h, o)
	if err != nil {
		c.Err = err
		return c
	}
	c.Cost, c.Procs = res.Cost, res.Procs
	if g.Verify != nil {
		c.Rho = in.Rho
		rep, err := env.runner.Simulate(res.Mapping, *g.Verify)
		c.VerifyErr = err
		if err == nil {
			c.Measured, c.Analytic = rep.Throughput, rep.Analytic
		}
	}
	return c
}

// MakeInstances adapts a per-column instance.Config into a Grid factory:
// each cell generates cfgOf(x) with the cell's seed on the worker's
// reusable generator — the zero-allocation path for paper-methodology
// sweeps.
func MakeInstances(cfgOf func(x float64) instance.Config) func(*WorkerEnv, float64, int64) (*instance.Instance, error) {
	return func(env *WorkerEnv, x float64, seed int64) (*instance.Instance, error) {
		return env.Generate(cfgOf(x), seed), nil
	}
}
