// Command sweepworker computes shards for a streamalloc daemon's
// distributed sweep coordinator (cmd/serve + internal/coord). It
// claims one shard lease, computes it, and ships the cells back with a
// claim for a fair share of a job's pending shards folded into the same
// request: ⌊pending / (2·holders)⌋ leases, where holders counts the
// workers holding a lease on the job, itself included. It computes that
// queue of leases in order and delivers all their cells in one request,
// which claims the next share. One heartbeat goroutine per batch
// renews every held lease while it computes. Against a coordinator
// that predates batch completes it falls back to one complete per
// lease. It exits cleanly on SIGINT/SIGTERM
// without leaking goroutines. Any number of workers may point at the same
// coordinator; determinism (per-cell seeds are pure functions of grid
// coordinates) makes every lease idempotent, so workers can die,
// straggle or double-complete without corrupting the merged figure.
//
// A claim that finds no work parks at the coordinator for the current
// backoff: -poll, doubled after every empty claim up to 10s, and at
// most 1s per claim. A submitted job therefore reaches an idle worker
// at once. After a connection error the worker sleeps the backoff out
// with jitter.
//
// Usage:
//
//	sweepworker -coord http://host:port[,http://host2:port] [-name N]
//	            [-job ID] [-workers W] [-poll D] [-exit-idle]
//
// -coord accepts a comma-separated failover list: connection-level
// errors rotate to the next endpoint (the answering one becomes the
// primary), so a worker survives a coordinator restart behind a new
// address without restarting itself.
//
// Fault-injection flags, used by the coord-smoke CI gate and
// fault-tolerance tests to script misbehaving workers:
//
//	-slow D      sleep D before computing each shard (straggler)
//	-no-renew    skip heartbeat renewals, letting slow leases expire
//	-abandon N   exit once N leases were claimed, completing none it holds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coord"
)

func main() {
	var (
		coordURL = flag.String("coord", "http://127.0.0.1:8080", "coordinator base URL, or a comma-separated failover list (rotates on connection errors)")
		name     = flag.String("name", "", "worker name in leases and progress (default: sweepworker-<pid>)")
		job      = flag.String("job", "", "pin to one job id; exits when it finishes (default: claim from any job)")
		workers  = flag.Int("workers", 0, "per-shard compute parallelism (0: one per CPU)")
		poll     = flag.Duration("poll", 500*time.Millisecond, "base wait of an empty claim: parked at the coordinator (at most 1s), doubled after every empty claim")
		exitIdle = flag.Bool("exit-idle", false, "exit on the first poll that finds no work")
		slow     = flag.Duration("slow", 0, "fault injection: sleep this long before computing each shard")
		noRenew  = flag.Bool("no-renew", false, "fault injection: never renew leases")
		abandon  = flag.Int("abandon", 0, "fault injection: exit after claiming this many leases without completing")
	)
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("sweepworker-%d", os.Getpid())
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err := coord.RunWorker(ctx, coord.NewClient(*coordURL), coord.WorkerOptions{
		Name:               *name,
		Job:                *job,
		Poll:               *poll,
		ExitIdle:           *exitIdle,
		Workers:            *workers,
		Log:                logger,
		SlowShard:          *slow,
		NoRenew:            *noRenew,
		AbandonAfterClaims: *abandon,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweepworker:", err)
		os.Exit(1)
	}
	logger.Printf("%s: exiting", *name)
}
