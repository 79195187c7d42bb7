package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/experiments"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Name identifies this worker in leases and progress snapshots.
	Name string
	// Job pins the worker to one job id; empty claims from any running
	// job (and never exits on ErrJobDone).
	Job string
	// Poll is the base claim wait when no work is available, doubled
	// after every empty claim up to MaxBackoff. Defaults 500ms and 10s.
	// The worker asks the coordinator to park an empty claim for that
	// long (at most MaxClaimWait), so a submitted job reaches it at
	// once. After a transport error, or at a coordinator that does not
	// park, it sleeps the wait out instead, with jitter.
	Poll       time.Duration
	MaxBackoff time.Duration
	// ExitIdle makes the worker return nil on the first idle poll once
	// its pinned job is done (Job set), or on the first ErrNoWork (Job
	// empty). Off, the worker keeps polling until ctx is cancelled.
	// ExitIdle workers never park a claim.
	ExitIdle bool
	// Workers is the per-shard compute parallelism (Grid.Workers).
	Workers int
	// Log receives progress lines; nil discards them.
	Log *log.Logger

	// Fault-injection hooks, exposed as cmd/sweepworker flags so the
	// e2e smoke can script flaky and straggling workers.

	// SlowShard sleeps this long before computing each shard, turning
	// the worker into a straggler.
	SlowShard time.Duration
	// NoRenew disables heartbeat renewals, so a slow shard's lease
	// expires mid-compute and is re-offered.
	NoRenew bool
	// AbandonAfterClaims makes the worker return once it has claimed
	// this many leases in all, completing none of those it then holds —
	// a worker that dies mid-shard.
	AbandonAfterClaims int
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 10 * time.Second
	}
	return o
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log.Printf(format, args...)
	}
}

// RunWorker claims, computes and completes sweep shards against a
// coordinator until ctx is cancelled (or, with ExitIdle, until there
// is no work left). It keeps a queue of leases from one job and
// computes them in order, then delivers all their cells in one batch
// complete that claims the next fair share of a job in the same round
// trip. A claim that finds no work parks at the coordinator for the
// current backoff, which doubles after every empty claim; claim
// failures sleep it out with jitter. While a queue computes, one
// heartbeat goroutine renews its leases at a third of their TTL, and
// a lost lease is skipped, its computation cancelled if it is running,
// so the worker moves on instead of finishing work someone else now
// owns. The heartbeat is joined before the next queue starts, so
// RunWorker leaves nothing behind.
//
// Batch completes need a coordinator that understands them. At one
// that predates them the worker notices the first reply, delivers that
// queue one shard per request, and from then on completes each lease
// on its own and claims the next with a plain claim.
func RunWorker(ctx context.Context, c *Client, opts WorkerOptions) error {
	opts = opts.withDefaults()
	backoff := opts.Poll
	leases := 0
	single := false    // the coordinator predates batch completes
	var queue []*Lease // leases of one job, handed over by the last complete or a claim
	var enc bytes.Buffer
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(queue) == 0 {
			wait := min(backoff, MaxClaimWait)
			if opts.ExitIdle {
				wait = 0
			}
			start := time.Now()
			lease, err := c.ClaimWait(ctx, opts.Job, opts.Name, wait)
			switch {
			case err == nil:
				queue = []*Lease{lease}
			case errors.Is(err, ErrJobDone):
				opts.logf("%s: job %s done, exiting", opts.Name, opts.Job)
				return nil
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				return ctx.Err()
			case errors.Is(err, ErrNoWork) && opts.ExitIdle && opts.Job == "":
				opts.logf("%s: no work, exiting", opts.Name)
				return nil
			default:
				pause := backoff
				if !errors.Is(err, ErrNoWork) {
					// Coordinator unreachable or erroring.
					opts.logf("%s: claim: %v", opts.Name, err)
				} else if wait > 0 {
					// Sleep out what the coordinator did not park: all of it
					// at one that answers at once (an older build, or one
					// shutting down), so the loop never spins.
					pause = wait - time.Since(start)
				}
				if pause > 0 && !sleepCtx(ctx, jitter(pause)) {
					return ctx.Err()
				}
				backoff = min(backoff*2, opts.MaxBackoff)
				continue
			}
		}
		backoff = opts.Poll

		for _, l := range queue {
			opts.logf("%s: leased shard %d/%d of job %s (%s)", opts.Name, l.Shard, l.Shards, l.Job, l.Figure)
		}
		leases += len(queue)
		if opts.AbandonAfterClaims > 0 && leases >= opts.AbandonAfterClaims {
			opts.logf("%s: abandoning %d leases and exiting (fault injection)", opts.Name, len(queue))
			return nil
		}
		next, err := runBatch(ctx, c, queue, &enc, &single, opts)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			opts.logf("%s: job %s: %v", opts.Name, queue[0].Job, err)
		}
		queue = next
	}
}

// runBatch computes a queue of leases of one job in order under one
// heartbeat, delivers their cells and returns the share of leases the
// complete claimed. A lease lost before or during its computation is
// skipped; a duplicate accept is logged and treated as success (the
// shard is done either way). enc is the worker's encode buffer, kept
// between batches. *single switches to one complete per shard, for
// good, once the coordinator answers a batch as a single complete.
func runBatch(ctx context.Context, c *Client, queue []*Lease, enc *bytes.Buffer, single *bool, opts WorkerOptions) ([]*Lease, error) {
	// Each lease computes under its own context, which the heartbeat
	// cancels once the coordinator calls the lease lost.
	held := make([]context.Context, len(queue))
	lose := make([]context.CancelFunc, len(queue))
	for i := range queue {
		held[i], lose[i] = context.WithCancel(ctx)
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	if opts.NoRenew {
		close(hbDone)
	} else {
		go func() {
			defer close(hbDone)
			renewAll(hbCtx, c, queue, held, lose, opts)
		}()
	}
	defer func() {
		stopHB()
		<-hbDone
		for _, cancel := range lose {
			cancel()
		}
	}()

	enc.Reset()
	results := make([]ShardResult, 0, len(queue))
	ends := make([]int, 0, len(queue))
	for i, l := range queue {
		if held[i].Err() != nil {
			opts.logf("%s: lease on shard %d lost, skipping it", opts.Name, l.Shard)
			continue
		}
		mark := enc.Len()
		if err := computeShard(held[i], l, enc, opts); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			opts.logf("%s: shard %d: %v", opts.Name, l.Shard, err)
			enc.Truncate(mark)
			continue
		}
		results = append(results, ShardResult{Shard: l.Shard, Token: l.Token})
		ends = append(ends, enc.Len())
	}
	if len(results) == 0 {
		return nil, nil
	}
	// The buffer may have moved while it grew: slice it once it is whole.
	start := 0
	for i, end := range ends {
		results[i].Cells = enc.Bytes()[start:end]
		start = end
	}
	job := queue[0].Job
	var outcomes []error
	var next []*Lease
	err := errNoBatch
	if !*single {
		outcomes, next, err = c.CompleteAndClaimShare(ctx, job, opts.Name, results, opts.Job)
	}
	if errors.Is(err, errNoBatch) {
		*single = true
		outcomes = make([]error, len(results))
		for i, r := range results {
			outcomes[i] = c.complete(ctx, job, opts.Name, r)
		}
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("complete: %w", err)
	}
	for i, err := range outcomes {
		switch {
		case err == nil:
			opts.logf("%s: completed shard %d of job %s", opts.Name, results[i].Shard, job)
		case errors.Is(err, ErrDuplicate):
			opts.logf("%s: shard %d already completed by another worker, result discarded", opts.Name, results[i].Shard)
		default:
			opts.logf("%s: complete shard %d: %v", opts.Name, results[i].Shard, err)
		}
	}
	return next, nil
}

// computeShard computes one leased shard and appends its encoded cells
// to enc.
func computeShard(ctx context.Context, l *Lease, enc *bytes.Buffer, opts WorkerOptions) error {
	if opts.SlowShard > 0 && !sleepCtx(ctx, opts.SlowShard) {
		return ctx.Err()
	}
	sc, err := experiments.RunFigureShard(ctx, l.Figure,
		experiments.Config{Seeds: l.Seeds, BaseSeed: l.BaseSeed, Workers: opts.Workers},
		experiments.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		return err
	}
	return sc.Encode(enc)
}

// renewAll is a batch's heartbeat: every third of the leases' TTL it
// renews each lease whose context is live, until ctx is cancelled, and
// cancels the context of a lease the coordinator calls lost. Transient
// renew failures are survivable as long as one succeeds per TTL, so
// they are only logged.
func renewAll(ctx context.Context, c *Client, queue []*Lease, held []context.Context, lose []context.CancelFunc, opts WorkerOptions) {
	t := time.NewTicker(time.Duration(queue[0].TTLMS) * time.Millisecond / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for i, l := range queue {
			if held[i].Err() != nil {
				continue
			}
			if _, err := c.Renew(ctx, l); errors.Is(err, ErrLeaseLost) {
				opts.logf("%s: lease on shard %d lost", opts.Name, l.Shard)
				lose[i]()
			} else if err != nil && ctx.Err() == nil {
				opts.logf("%s: renew shard %d: %v", opts.Name, l.Shard, err)
			}
		}
	}
}

// jitter spreads d uniformly over [d/2, 3d/2) so a fleet of workers
// doesn't thunder in lockstep. Worker-side randomness never touches
// sweep results (cell seeds come from the lease), so math/rand's
// global source is fine here.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
