// Package core orchestrates the full resource-allocation pipeline of
// Benoit et al. — generate or load an instance, run one or all placement
// heuristics (with server selection and downgrade), validate the mapping,
// bound its cost, and optionally execute it on the stream engine — behind
// one Solver type. The root streamalloc package re-exports this as the
// library's public API.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/par"
	"repro/internal/stream"
)

// Solver runs the placement pipeline. The zero value uses the paper's
// defaults (three-loop server selection, downgrade enabled, seed 0) and
// one portfolio worker per CPU.
type Solver struct {
	Options heuristics.Options
	// Workers bounds the concurrency of SolveAll, Best and SolveBatch:
	// <= 0 means runtime.GOMAXPROCS(0), 1 forces the serial path. Each
	// heuristic derives its own rng substream from Options.Seed, so no
	// randomness is shared across goroutines: SolveAll returns
	// identical outcomes at every worker count, and Best's cost is
	// equally deterministic — though when heuristics tie at the cost
	// lower bound, which one Best reports may vary (see BestCtx).
	Workers int
}

// Solve runs the named heuristic (see Heuristics for valid names).
func (s *Solver) Solve(in *instance.Instance, name string) (*heuristics.Result, error) {
	h, err := heuristics.ByName(name)
	if err != nil {
		return nil, err
	}
	return heuristics.Solve(in, h, s.Options)
}

// Outcome pairs a heuristic name with its result or failure.
type Outcome struct {
	Name   string
	Result *heuristics.Result // nil when Err != nil
	Err    error
}

// SolveAll runs every paper heuristic and returns the outcomes sorted by
// cost (failures last, in name order). The heuristics run concurrently
// on s.Workers goroutines; the result is identical to a serial run.
func (s *Solver) SolveAll(in *instance.Instance) []Outcome {
	return s.SolveAllCtx(context.Background(), in)
}

// SolveAllCtx is SolveAll with cancellation: when ctx is cancelled,
// heuristics not yet started are skipped and reported as failed with an
// error wrapping ctx.Err(). Cancellation granularity is one heuristic —
// in-flight solves run to completion.
func (s *Solver) SolveAllCtx(ctx context.Context, in *instance.Instance) []Outcome {
	out := s.portfolio(ctx, in, math.Inf(-1))
	for i := range out {
		if o := &out[i]; o.Result == nil && o.Err == nil {
			o.Err = fmt.Errorf("core: %s skipped: %w", o.Name, context.Cause(ctx))
		}
	}
	sortOutcomes(out)
	return out
}

// portfolio is the parallel fan-out behind SolveAllCtx and BestCtx: it
// solves every paper heuristic on s.Workers goroutines and returns their
// outcomes in paper order. Once a feasible result costs at most stopAt,
// or ctx is cancelled, the heuristics not yet started are skipped and
// keep a nil Result and Err.
func (s *Solver) portfolio(ctx context.Context, in *instance.Instance, stopAt float64) []Outcome {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hs := heuristics.All()
	out := make([]Outcome, len(hs))
	for i, h := range hs {
		out[i].Name = h.Name()
	}
	par.ForEach(pctx, s.Workers, len(hs), func(i int) {
		res, err := heuristics.Solve(in, hs[i], s.Options)
		out[i].Result, out[i].Err = res, err
		if err == nil && res.Cost <= stopAt {
			cancel()
		}
	})
	return out
}

func sortOutcomes(out []Outcome) {
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := out[a], out[b]
		switch {
		case ra.Err == nil && rb.Err == nil:
			return ra.Result.Cost < rb.Result.Cost
		case ra.Err == nil:
			return true
		case rb.Err == nil:
			return false
		default:
			return ra.Name < rb.Name
		}
	})
}

// Best returns the cheapest feasible result across all heuristics — the
// paper's practical recommendation (Subtree-bottom-up usually wins, but
// when it fails one of the greedy heuristics often still succeeds).
func (s *Solver) Best(in *instance.Instance) (*heuristics.Result, error) {
	return s.BestCtx(context.Background(), in)
}

// BestCtx runs the portfolio on a bounded worker pool and exits early:
// once a feasible result matches the instance's provable cost lower
// bound, the remaining heuristics are cancelled — none of them can do
// better. The returned cost is deterministic; when several heuristics
// tie at the lower bound, which one is reported may depend on worker
// scheduling (every answer is provably optimal).
func (s *Solver) BestCtx(ctx context.Context, in *instance.Instance) (*heuristics.Result, error) {
	lb := bounds.CostLowerBound(in)
	var best *heuristics.Result
	for _, o := range s.portfolio(ctx, in, lb+1e-9) {
		if r := o.Result; r != nil && (best == nil || r.Cost < best.Cost) {
			best = r
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: solve cancelled: %w", err)
		}
		return nil, fmt.Errorf("core: every heuristic failed: %w", heuristics.ErrInfeasible)
	}
	// A caller-side cancellation may have truncated the portfolio. Only a
	// result at the lower bound is still trustworthy — anything costlier
	// could have been beaten by a skipped heuristic, and returning it
	// would make the reported cost depend on scheduling.
	if err := ctx.Err(); err != nil && best.Cost > lb+1e-9 {
		return nil, fmt.Errorf("core: solve cancelled: %w", err)
	}
	return best, nil
}

// SolveBatch runs Best on every instance, fanning the batch across
// s.Workers goroutines (each item solves its portfolio serially, so
// the pool is never oversubscribed). Slot i of the returned slices
// holds instance i's result or error; cancelling ctx skips the items
// not yet started and reports them with an error wrapping ctx.Err().
// Every item solves with s.Options; use SolveBatchWith when items need
// their own options (e.g. per-instance seeds).
func (s *Solver) SolveBatch(ctx context.Context, ins []*instance.Instance) ([]*heuristics.Result, []error) {
	return s.SolveBatchWith(ctx, ins, func(int) heuristics.Options { return s.Options })
}

// SolveBatchWith is SolveBatch with per-item options: item i solves
// with opts(i). Batch runs that must reproduce individual runs pass
// each instance the Seed a standalone solve would use.
func (s *Solver) SolveBatchWith(ctx context.Context, ins []*instance.Instance,
	opts func(i int) heuristics.Options) ([]*heuristics.Result, []error) {
	results := make([]*heuristics.Result, len(ins))
	errs := make([]error, len(ins))
	done, _ := par.ForEachDone(ctx, s.Workers, len(ins), func(i int) {
		inner := Solver{Options: opts(i), Workers: 1}
		results[i], errs[i] = inner.BestCtx(ctx, ins[i])
	})
	par.SkipErrors(ctx, done, errs, "core: batch")
	return results, errs
}

// Heuristics lists the valid heuristic names in the paper's order.
func Heuristics() []string {
	var names []string
	for _, h := range heuristics.All() {
		names = append(names, h.Name())
	}
	return names
}

// LowerBound returns a provable lower bound on the platform cost.
func LowerBound(in *instance.Instance) float64 {
	return bounds.CostLowerBound(in)
}

// Verify executes the mapping on the stream engine and checks that the
// measured steady-state throughput reaches the instance's QoS target.
func Verify(res *heuristics.Result, opt stream.Options) (*stream.Report, error) {
	rep, err := stream.Simulate(res.Mapping, opt)
	if err != nil {
		return nil, err
	}
	if rep.Throughput < 0.9*res.Mapping.Inst.Rho {
		return rep, fmt.Errorf("core: measured throughput %.3f below target %.3f",
			rep.Throughput, res.Mapping.Inst.Rho)
	}
	return rep, nil
}

// VerifyBatch executes many results on the stream engine concurrently,
// at most workers at a time (<= 0 means GOMAXPROCS). Slot i of the
// returned slices holds result i's report or error; cancelling ctx
// skips the simulations not yet started.
func VerifyBatch(ctx context.Context, results []*heuristics.Result, opt stream.Options, workers int) ([]*stream.Report, []error) {
	reps := make([]*stream.Report, len(results))
	errs := make([]error, len(results))
	done, _ := par.ForEachDone(ctx, workers, len(results), func(i int) {
		reps[i], errs[i] = Verify(results[i], opt)
	})
	par.SkipErrors(ctx, done, errs, "core: verify")
	return reps, errs
}

// IsInfeasible reports whether err means "no feasible mapping exists /
// was found" rather than a usage error.
func IsInfeasible(err error) bool {
	return errors.Is(err, heuristics.ErrInfeasible)
}

// CorpusItem is one pinned instance of the canonical benchmark corpus.
type CorpusItem struct {
	Name  string // "N=60,alpha=0.9,seed=1"
	N     int
	Alpha float64
	Seed  int64
	Inst  *instance.Instance
}

// CorpusNs and CorpusAlphas are the canonical benchmark grid: the paper's
// evaluation sweeps tree size and computation exponent, and these pinned
// points cover its small/medium/large and sub/super-linear regimes. The
// N=300/600 cells (beyond the paper's N<=140 sweeps) became affordable
// once solve stopped allocating; they exist to expose O(N^2) hotspots
// such as TryPlace's affected-processor scans. At alpha=1.7 they fail
// Precheck immediately — a legitimate corpus outcome that pins the
// fast-reject path.
var (
	CorpusNs     = []int{20, 60, 140, 300, 600}
	CorpusAlphas = []float64{0.9, 1.7}
)

// CanonicalCorpus generates the pinned instance corpus the perf harness
// (cmd/bench) and the regression baseline are defined over: every
// (N, alpha) cell of the canonical grid with seeds 1..seedsPer. The
// corpus is a pure function of seedsPer — same instances on every
// machine, every run — so timings and allocation counts recorded against
// it are comparable across commits.
func CanonicalCorpus(seedsPer int) []CorpusItem {
	if seedsPer < 1 {
		seedsPer = 1
	}
	var items []CorpusItem
	for _, n := range CorpusNs {
		for _, alpha := range CorpusAlphas {
			for seed := int64(1); seed <= int64(seedsPer); seed++ {
				items = append(items, CorpusItem{
					Name:  fmt.Sprintf("N=%d,alpha=%g,seed=%d", n, alpha, seed),
					N:     n,
					Alpha: alpha,
					Seed:  seed,
					Inst:  instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed),
				})
			}
		}
	}
	return items
}
