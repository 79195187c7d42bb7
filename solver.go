package streamalloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/par"
	"repro/internal/stream"
)

// Solver runs the placement pipeline. The zero value uses the paper's
// defaults (three-loop server selection, downgrade enabled, seed 0) and
// one portfolio worker per CPU.
type Solver struct {
	Options Options
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
func (s *Solver) Solve(in *Instance, name string) (*Result, error) {
	h, err := heuristics.ByName(name)
	if err != nil {
		return nil, err
	}
	return heuristics.Solve(in, h, s.Options)
}

// Outcome pairs a heuristic name with its result or failure.
type Outcome struct {
	Name   string
	Result *Result // nil when Err != nil
	Err    error
}

// SolveAll runs every paper heuristic and returns the outcomes sorted by
// cost (failures last, in name order). The heuristics run concurrently
// on s.Workers goroutines; the result is identical to a serial run.
func (s *Solver) SolveAll(in *Instance) []Outcome {
	return s.SolveAllCtx(context.Background(), in)
}

// SolveAllCtx is SolveAll with cancellation: when ctx is cancelled,
// heuristics not yet started are skipped and reported as failed with an
// error wrapping ctx.Err(). Cancellation granularity is one heuristic —
// in-flight solves run to completion.
func (s *Solver) SolveAllCtx(ctx context.Context, in *Instance) []Outcome {
	out := s.portfolio(ctx, in, math.Inf(-1))
	for i := range out {
		if o := &out[i]; o.Result == nil && o.Err == nil {
			o.Err = fmt.Errorf("%s skipped: %w", o.Name, context.Cause(ctx))
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
func (s *Solver) portfolio(ctx context.Context, in *Instance, stopAt float64) []Outcome {
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
func (s *Solver) Best(in *Instance) (*Result, error) {
	return s.BestCtx(context.Background(), in)
}

// BestCtx runs the portfolio on a bounded worker pool and exits early:
// once a feasible result matches the instance's provable cost lower
// bound, the remaining heuristics are cancelled — none of them can do
// better. The returned cost is deterministic; when several heuristics
// tie at the lower bound, which one is reported may depend on worker
// scheduling (every answer is provably optimal).
func (s *Solver) BestCtx(ctx context.Context, in *Instance) (*Result, error) {
	lb := bounds.CostLowerBound(in)
	var best *Result
	for _, o := range s.portfolio(ctx, in, lb+1e-9) {
		if r := o.Result; r != nil && (best == nil || r.Cost < best.Cost) {
			best = r
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("solve cancelled: %w", err)
		}
		return nil, fmt.Errorf("every heuristic failed: %w", heuristics.ErrInfeasible)
	}
	// A caller-side cancellation may have truncated the portfolio. Only a
	// result at the lower bound is still trustworthy — anything costlier
	// could have been beaten by a skipped heuristic, and returning it
	// would make the reported cost depend on scheduling.
	if err := ctx.Err(); err != nil && best.Cost > lb+1e-9 {
		return nil, fmt.Errorf("solve cancelled: %w", err)
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
func (s *Solver) SolveBatch(ctx context.Context, ins []*Instance) ([]*Result, []error) {
	return s.SolveBatchWith(ctx, ins, func(int) Options { return s.Options })
}

// SolveBatchWith is SolveBatch with per-item options: item i solves
// with opts(i). Batch runs that must reproduce individual runs pass
// each instance the Seed a standalone solve would use.
func (s *Solver) SolveBatchWith(ctx context.Context, ins []*Instance,
	opts func(i int) Options) ([]*Result, []error) {
	results := make([]*Result, len(ins))
	errs := make([]error, len(ins))
	done, _ := par.ForEachDone(ctx, s.Workers, len(ins), func(i int) {
		inner := Solver{Options: opts(i), Workers: 1}
		results[i], errs[i] = inner.BestCtx(ctx, ins[i])
	})
	par.SkipErrors(ctx, done, errs, "batch")
	return results, errs
}

// Heuristics lists the six placement heuristic names in the paper's order.
func Heuristics() []string {
	var names []string
	for _, h := range heuristics.All() {
		names = append(names, h.Name())
	}
	return names
}

// LowerBound returns a provable lower bound on the platform cost ($).
func LowerBound(in *Instance) float64 { return bounds.CostLowerBound(in) }

// Verify executes a result on the stream engine and confirms the measured
// throughput sustains the instance's target rho, within the engine's 10%
// tolerance. A miss returns the report along with its error.
func Verify(res *Result, opt SimOptions) (*SimReport, error) {
	rep, err := stream.Simulate(res.Mapping, opt)
	if err != nil {
		return nil, err
	}
	if !stream.MeetsTarget(rep.Throughput, res.Mapping.Inst.Rho) {
		return rep, fmt.Errorf("measured throughput %.3f below target %.3f",
			rep.Throughput, res.Mapping.Inst.Rho)
	}
	return rep, nil
}

// VerifyBatch executes many results on the stream engine concurrently
// (at most workers simulations at a time) and checks each measured
// throughput against its instance's QoS target, in input order.
func VerifyBatch(ctx context.Context, results []*Result, opt SimOptions, workers int) ([]*SimReport, []error) {
	reps := make([]*SimReport, len(results))
	errs := make([]error, len(results))
	done, _ := par.ForEachDone(ctx, workers, len(results), func(i int) {
		reps[i], errs[i] = Verify(results[i], opt)
	})
	par.SkipErrors(ctx, done, errs, "verify")
	return reps, errs
}

// IsInfeasible reports whether an error from Solve/Best means "no feasible
// mapping" rather than misuse.
func IsInfeasible(err error) bool { return errors.Is(err, heuristics.ErrInfeasible) }
