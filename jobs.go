package streamalloc

import (
	"context"
	"time"

	"repro/internal/coord"
)

// Distributed sweeps are first-class jobs: a daemon (command serve)
// hosts the coordinator, any number of workers (command sweepworker)
// claim shard leases against it, and clients drive jobs through this
// surface — following sweep.go's pattern of aliasing the internal
// engine so users never import internal/coord. Because per-cell seeds
// are pure functions of grid coordinates (SeedFor), shard leases are
// idempotent: workers can die, straggle or double-complete and the
// merged figure is still byte-identical to a single-process
// SweepFigureCtx run. See README "Distributed sweeps".
type (
	// SweepJob is a distributed sweep submission: a named paper figure,
	// its parameters, and the number of shard work units.
	SweepJob = coord.SweepJob
	// Lease is one granted shard work unit with its deadline token.
	// Most users never touch leases — SweepWorker runs the claim/
	// renew/complete loop — but the type is public for custom workers.
	Lease = coord.Lease
	// Progress is a point-in-time job snapshot: per-shard lease states,
	// re-lease and duplicate-completion counters, merge latency.
	Progress = coord.Progress
	// SweepClient is a low-level client for the daemon's sweep
	// endpoints (claim/renew/complete, progress, result). SubmitSweep
	// and AwaitSweep cover the common path without it.
	SweepClient = coord.Client
	// SweepWorkerOptions tunes SweepWorker.
	SweepWorkerOptions = coord.WorkerOptions
)

// NewSweepClient returns a client for the daemon at baseURL, e.g.
// "http://127.0.0.1:8080".
func NewSweepClient(baseURL string) *SweepClient { return coord.NewClient(baseURL) }

// SubmitSweep submits a distributed sweep job to the daemon at
// baseURL and returns its job id for AwaitSweep or progress polling.
func SubmitSweep(ctx context.Context, baseURL string, job SweepJob) (string, error) {
	return coord.NewClient(baseURL).Submit(ctx, job)
}

// AwaitSweep waits until every shard has landed and returns the
// merged figure's .dat text — byte-identical to the same figure built
// by SweepFigureCtx in one process. It long-polls the result, so it
// returns the moment the job merges; against a daemon that predates
// the long poll it asks every 250ms. It blocks until the job
// finishes, ctx is cancelled, or the job fails.
func AwaitSweep(ctx context.Context, baseURL, jobID string) (string, error) {
	return coord.NewClient(baseURL).Await(ctx, jobID, 250*time.Millisecond)
}

// SweepWorker claims, computes and completes shard leases against the
// daemon at baseURL until ctx is cancelled — the in-process
// equivalent of running the sweepworker command.
func SweepWorker(ctx context.Context, baseURL string, opts SweepWorkerOptions) error {
	return coord.RunWorker(ctx, coord.NewClient(baseURL), opts)
}
