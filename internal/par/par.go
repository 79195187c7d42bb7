// Package par provides the bounded worker pool that drives every
// parallel layer of the repository: the solver portfolio (the root
// package's Solver), the experiment sweeps (experiments) and the
// stream-engine verification batches (stream).
//
// Determinism is the design constraint: ForEach hands out item
// indices, so callers write result i into slot i of a pre-sized slice
// and merge in input order — output is then byte-identical to a
// serial run at any worker count. Randomness never crosses goroutine
// boundaries: each work item derives its own substream from a plain
// per-item seed (rng.SeedFor / heuristics.Options.Seed), never from a
// shared *rand.Rand.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 mean
// runtime.GOMAXPROCS(0), and the pool is never wider than the n items
// it has to process.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachDone is ForEach plus a dispatch mask: done[i] reports whether
// fn(i) actually ran. Items are skipped only after ctx cancellation, so
// callers use the mask to mark skipped slots without inventing
// per-result sentinel values.
func ForEachDone(ctx context.Context, workers, n int, fn func(i int)) ([]bool, error) {
	done := make([]bool, n)
	err := ForEach(ctx, workers, n, func(i int) {
		fn(i)
		done[i] = true
	})
	return done, err
}

// SkipErrors fills errs[i] for every slot whose done[i] is false with
// "<label> item i skipped: <cause>", where cause is context.Cause(ctx).
// Batch APIs call it after ForEachDone so undispatched slots carry a
// uniform, errors.Is-inspectable error instead of sentinel zero values.
func SkipErrors(ctx context.Context, done []bool, errs []error, label string) {
	for i := range done {
		if !done[i] {
			errs[i] = fmt.Errorf("%s item %d skipped: %w", label, i, context.Cause(ctx))
		}
	}
}

// ForEach runs fn(i) for every i in [0, n) on a pool of at most
// workers goroutines (<= 0 means GOMAXPROCS) and blocks until the
// pool drains. When ctx is cancelled, items not yet dispatched are
// skipped, in-flight items run to completion, and ForEach returns
// ctx.Err(); no goroutines outlive the call in either case. fn must
// be safe for concurrent invocation on distinct indices.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	return ForEachWorker(ctx, workers, n, func(_, i int) { fn(i) })
}

// ForEachOrdered is ForEachWorker plus deterministic streaming: after
// fn(w, i) completes, emit(i) is called for every finished item in
// strictly increasing index order — item i is emitted only once items
// 0..i-1 have been emitted, no matter which workers finished first, so a
// consumer observes the exact sequence a serial run would produce while
// the work itself fans out. Emission runs on whichever worker completed
// the gap item, one emit at a time under an internal lock; emit must not
// block on the pool's own items. On cancellation the already-complete
// prefix may be emitted, the rest never is, and the ctx error is
// returned.
func ForEachOrdered(ctx context.Context, workers, n int, fn func(worker, i int), emit func(i int)) error {
	if Workers(workers, n) == 1 {
		// Serial path: emit inline, no bookkeeping.
		return ForEachWorker(ctx, workers, n, func(w, i int) {
			fn(w, i)
			emit(i)
		})
	}
	var mu sync.Mutex
	next := 0
	ready := make([]bool, n)
	return ForEachWorker(ctx, workers, n, func(w, i int) {
		fn(w, i)
		mu.Lock()
		ready[i] = true
		for next < n && ready[next] {
			emit(next)
			next++
		}
		mu.Unlock()
	})
}

// ForEachWorker is ForEach with worker identity: fn(w, i) runs item i on
// worker w in [0, Workers(workers, n)). All of one worker's items run
// sequentially on one goroutine, so callers thread per-worker reusable
// state (scratch buffers, solver contexts) by indexing a slice with w —
// no pools, no locks, and a deterministic number of contexts.
func ForEachWorker(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Serial fast path: no goroutines, same cancellation contract.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
