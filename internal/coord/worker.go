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
	// AbandonAfterClaims makes the worker return after claiming (and
	// never completing) this many leases — a worker that dies
	// mid-shard.
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
// is no work left). Each complete claims the next lease in the same
// round trip. A claim that finds no work parks at the coordinator for
// the current backoff, which doubles after every empty claim; claim
// failures sleep it out with jitter. While computing, a heartbeat
// goroutine renews the lease at a third of its TTL, and a lost lease
// cancels the computation so the worker moves on instead of finishing
// work someone else now owns. The heartbeat goroutine is joined before
// the next lease starts, so a returning RunWorker leaves nothing
// behind.
func RunWorker(ctx context.Context, c *Client, opts WorkerOptions) error {
	opts = opts.withDefaults()
	backoff := opts.Poll
	claims := 0
	var lease *Lease // handed over by the last complete, if any
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lease == nil {
			wait := min(backoff, MaxClaimWait)
			if opts.ExitIdle {
				wait = 0
			}
			start := time.Now()
			var err error
			lease, err = c.ClaimWait(ctx, opts.Job, opts.Name, wait)
			switch {
			case err == nil:
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

		claims++
		opts.logf("%s: leased shard %d/%d of job %s (%s)", opts.Name, lease.Shard, lease.Shards, lease.Job, lease.Figure)
		if opts.AbandonAfterClaims > 0 && claims >= opts.AbandonAfterClaims {
			opts.logf("%s: abandoning lease on shard %d and exiting (fault injection)", opts.Name, lease.Shard)
			return nil
		}
		next, err := runLease(ctx, c, lease, opts)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			opts.logf("%s: shard %d: %v", opts.Name, lease.Shard, err)
		}
		lease = next
	}
}

// runLease computes one leased shard under a heartbeat, submits the
// result and returns the next lease the complete claimed, if any.
// Lease loss mid-compute cancels the work; a duplicate accept is
// logged and treated as success (the shard is done either way).
func runLease(ctx context.Context, c *Client, lease *Lease, opts WorkerOptions) (*Lease, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	hbDone := make(chan struct{})
	if opts.NoRenew {
		close(hbDone)
	} else {
		go func() {
			defer close(hbDone)
			t := time.NewTicker(time.Duration(lease.TTLMS) * time.Millisecond / 3)
			defer t.Stop()
			for {
				select {
				case <-cctx.Done():
					return
				case <-t.C:
				}
				if _, err := c.Renew(cctx, lease); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						opts.logf("%s: lease on shard %d lost, cancelling compute", opts.Name, lease.Shard)
						cancel()
						return
					}
					// Transient renew failures are survivable as long as one
					// succeeds per TTL; keep ticking.
					opts.logf("%s: renew shard %d: %v", opts.Name, lease.Shard, err)
				}
			}
		}()
	}
	// Join the heartbeat before returning so RunWorker never stacks
	// goroutines across leases.
	defer func() { cancel(); <-hbDone }()

	if opts.SlowShard > 0 {
		if !sleepCtx(cctx, opts.SlowShard) {
			return nil, cctx.Err()
		}
	}
	sc, err := experiments.RunFigureShard(cctx, lease.Figure,
		experiments.Config{Seeds: lease.Seeds, BaseSeed: lease.BaseSeed, Workers: opts.Workers},
		experiments.Shard{Index: lease.Shard, Count: lease.Shards})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		return nil, err
	}
	next, err := c.CompleteAndClaim(ctx, lease, opts.Name, buf.Bytes(), opts.Job)
	switch {
	case err == nil:
		opts.logf("%s: completed shard %d of job %s", opts.Name, lease.Shard, lease.Job)
		return next, nil
	case errors.Is(err, ErrDuplicate):
		opts.logf("%s: shard %d already completed by another worker, result discarded", opts.Name, lease.Shard)
		return next, nil
	default:
		return nil, fmt.Errorf("complete: %w", err)
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
