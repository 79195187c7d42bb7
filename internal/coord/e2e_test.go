package coord_test

// End-to-end fault injection over the real HTTP stack: a daemon
// (internal/serve) with the coordinator mounted, three RunWorker
// loops — one that dies mid-shard, one slow straggler that never
// renews and gets re-leased, one steady — and the acceptance check
// that the merged figure is byte-identical to the unsharded run.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/serve"
)

func TestDistributedSweepFaultInjectionE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e in -short mode")
	}
	before := runtime.NumGoroutine()

	// Short leases so the flaky worker's abandoned shard and the
	// non-renewing straggler's shard both expire within the test.
	pool := serve.New(serve.Config{Workers: 1, SweepLeaseTTL: 300 * time.Millisecond})
	ts := httptest.NewServer(pool)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := coord.NewClient(ts.URL)
	id, err := c.Submit(ctx, coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var wg sync.WaitGroup
	runWorker := func(opts coord.WorkerOptions) {
		opts.Job = id
		opts.Poll = 50 * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord.RunWorker(ctx, coord.NewClient(ts.URL), opts)
		}()
	}
	// Flaky: claims one lease and dies without completing it.
	runWorker(coord.WorkerOptions{Name: "flaky", AbandonAfterClaims: 1})
	// Straggler: sleeps past its lease TTL and never renews, so its
	// shard is re-leased; its late completion must be discarded.
	runWorker(coord.WorkerOptions{Name: "straggler", SlowShard: 700 * time.Millisecond, NoRenew: true})
	// Steady: picks up everything, including the recovered shards.
	runWorker(coord.WorkerOptions{Name: "steady"})

	dat, err := c.Await(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	// All three workers exit on ErrJobDone (they are job-pinned).
	wg.Wait()

	fig, err := experiments.BuildFigure(ctx, "fig2a", experiments.Config{Seeds: 2, BaseSeed: 1})
	if err != nil {
		t.Fatalf("BuildFigure golden: %v", err)
	}
	if dat != fig.Dat() {
		t.Errorf("merged dat differs from unsharded golden:\n got %d bytes\nwant %d bytes", len(dat), len(fig.Dat()))
	}

	p, err := c.Progress(ctx, id)
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.State != "done" || p.Done != 3 {
		t.Fatalf("job not done: %+v", p)
	}
	if p.Releases < 1 {
		t.Errorf("expected at least one re-lease (flaky abandoned a shard), got %d", p.Releases)
	}
	for _, sp := range p.Shards {
		if sp.State != "done" || sp.DoneBy == "" {
			t.Errorf("shard %d not completed exactly once: %+v", sp.Shard, sp)
		}
	}

	ts.Close()
	pool.Close()

	// Nothing may outlive the drain: worker heartbeats are joined per
	// lease, the coordinator owns no goroutines, the pool drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorRecoveryE2E drives the full recovery path over the
// real HTTP stack: a durable daemon takes a sweep partway (one shard
// done, one lease outstanding), drains; a second daemon opens the same
// state dir, reports the recovered job on /statsz, and a worker
// finishes the sweep byte-identical to the unsharded run. The
// goroutine-leak check brackets both daemon lifetimes, so open →
// replay → serve → drain may leave nothing behind (run under -race in
// CI).
func TestCoordinatorRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery e2e in -short mode")
	}
	before := runtime.NumGoroutine()
	stateDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// First incarnation: partial progress, then a drain (which must
	// snapshot, per the Close contract).
	// Short leases: the doomed lease's restored (absolute) deadline must
	// pass in wall time before the post-restart worker can reclaim it.
	pool1, err := serve.Open(serve.Config{Workers: 1, CoordStateDir: stateDir, SweepLeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open #1: %v", err)
	}
	ts1 := httptest.NewServer(pool1)
	c1 := coord.NewClient(ts1.URL)
	id, err := c1.Submit(ctx, coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l, err := c1.Claim(ctx, id, "pre-restart")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	sc, err := experiments.RunFigureShard(ctx, l.Figure,
		experiments.Config{Seeds: l.Seeds, BaseSeed: l.BaseSeed},
		experiments.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		t.Fatalf("RunFigureShard: %v", err)
	}
	var cells bytes.Buffer
	if err := sc.Encode(&cells); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := c1.Complete(ctx, l, "pre-restart", cells.Bytes()); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if _, err := c1.Claim(ctx, id, "doomed"); err != nil {
		t.Fatalf("second Claim: %v", err) // lease dies with this incarnation
	}
	ts1.Close()
	pool1.Close()

	// Second incarnation on the same state dir.
	pool2, err := serve.Open(serve.Config{Workers: 1, CoordStateDir: stateDir, SweepLeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open #2: %v", err)
	}
	ts2 := httptest.NewServer(pool2)
	c2 := coord.NewClient(ts2.URL)

	resp, err := http.Get(ts2.URL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	var stats struct {
		Sweep coord.SweepStats `json:"sweep"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding statsz: %v", err)
	}
	resp.Body.Close()
	if stats.Sweep.JobsRecovered != 1 || stats.Sweep.ShardsRecovered != 1 {
		t.Fatalf("statsz sweep: jobs_recovered=%d shards_recovered=%d, want 1 and 1",
			stats.Sweep.JobsRecovered, stats.Sweep.ShardsRecovered)
	}

	// A worker finishes the recovered job: the doomed lease's shard is
	// re-offered once its (restored) deadline passes.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.RunWorker(ctx, coord.NewClient(ts2.URL), coord.WorkerOptions{
			Name: "post-restart", Job: id, Poll: 50 * time.Millisecond,
		})
	}()
	dat, err := c2.Await(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	wg.Wait()

	fig, err := experiments.BuildFigure(ctx, "fig2a", experiments.Config{Seeds: 2, BaseSeed: 1})
	if err != nil {
		t.Fatalf("BuildFigure golden: %v", err)
	}
	if dat != fig.Dat() {
		t.Errorf("recovered merge differs from unsharded golden: got %d bytes, want %d", len(dat), len(fig.Dat()))
	}
	p, err := c2.Progress(ctx, id)
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.Shards[l.Shard].DoneBy != "pre-restart" {
		t.Errorf("shard %d recomputed after restart: done by %q", l.Shard, p.Shards[l.Shard].DoneBy)
	}

	ts2.Close()
	pool2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak across recovery: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerExitIdle: an unpinned worker with ExitIdle returns once
// the coordinator has nothing to offer.
func TestWorkerExitIdle(t *testing.T) {
	pool := serve.New(serve.Config{Workers: 1})
	defer pool.Close()
	ts := httptest.NewServer(pool)
	defer ts.Close()

	err := coord.RunWorker(t.Context(), coord.NewClient(ts.URL), coord.WorkerOptions{
		Name: "idler", ExitIdle: true, Poll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
}

// TestWorkerFoldsClaims: a worker takes each next lease from the reply
// to its complete. One worker on a 3-shard job claims twice in all —
// the first lease, and the claim that finds the job done — instead of
// four times.
func TestWorkerFoldsClaims(t *testing.T) {
	pool := serve.New(serve.Config{Workers: 1})
	defer pool.Close()
	var claims, completes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/lease"):
			claims.Add(1)
		case strings.HasSuffix(r.URL.Path, "/complete"):
			completes.Add(1)
		}
		pool.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := coord.NewClient(ts.URL)
	id, err := c.Submit(t.Context(), coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := coord.RunWorker(t.Context(), c, coord.WorkerOptions{Name: "w", Job: id, Poll: 10 * time.Millisecond}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if p, err := c.Progress(t.Context(), id); err != nil || p.State != "done" {
		t.Fatalf("Progress: %+v %v", p, err)
	}
	if claims.Load() != 2 || completes.Load() != 3 {
		t.Fatalf("%d claims and %d completes, want 2 and 3", claims.Load(), completes.Load())
	}
}

// TestWorkerTakesFairShares: a lone worker on a 16-shard job takes one
// lease from its claim, then shares of 7, 4, 2, 1 and 1 from its
// completes, so it delivers the job in six completes and claims twice:
// the first lease, and the claim that finds the job done.
func TestWorkerTakesFairShares(t *testing.T) {
	pool := serve.New(serve.Config{Workers: 1})
	defer pool.Close()
	var claims atomic.Int64
	var mu sync.Mutex
	var batches []int // items per complete
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/lease"):
			claims.Add(1)
		case strings.HasSuffix(r.URL.Path, "/complete"):
			var req coord.CompleteRequest
			body, _ := io.ReadAll(r.Body)
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("complete body: %v", err)
			}
			mu.Lock()
			batches = append(batches, len(req.Items))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		pool.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := coord.NewClient(ts.URL)
	id, err := c.Submit(t.Context(), coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 16})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := coord.RunWorker(t.Context(), c, coord.WorkerOptions{Name: "w", Job: id, Poll: 10 * time.Millisecond}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if p, err := c.Progress(t.Context(), id); err != nil || p.State != "done" || p.Done != 16 {
		t.Fatalf("Progress: %+v %v", p, err)
	}
	if want := []int{1, 7, 4, 2, 1, 1}; claims.Load() != 2 || !slices.Equal(batches, want) {
		t.Fatalf("%d claims and completes of %v shards, want 2 and %v", claims.Load(), batches, want)
	}
}

// TestWorkerAtSingleCompleteCoordinator: against a coordinator that
// predates batch completes, which reads a batch as a single complete
// of shard 0 with an empty token, a worker's first batch is refused
// whole: with 409 while shard 0 is leased, or as a duplicate of a done
// shard 0, whose folded claim the worker then keeps. The worker
// delivers that batch, and every later lease, in the single form such
// a coordinator takes, as Client.Complete does, and finishes the job.
func TestWorkerAtSingleCompleteCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		zeroDone                bool // Client.Complete lands shard 0 first
		claims, completes, dups int64
	}{
		// One refused batch, then three single completes each followed
		// by a plain claim, the last of which finds the job done.
		{"shard0-leased", false, 4, 4, 0},
		// The test's own claim and complete of shard 0; the worker's
		// claim of shard 1, its batch, answered as a duplicate with a
		// folded lease on shard 2, two single completes and the claim
		// that finds the job done.
		{"shard0-done", true, 3, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := serve.New(serve.Config{Workers: 1})
			defer pool.Close()
			var claims, completes atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case strings.HasSuffix(r.URL.Path, "/lease"):
					claims.Add(1)
				case strings.HasSuffix(r.URL.Path, "/complete"):
					completes.Add(1)
					var req coord.CompleteRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						t.Errorf("complete body: %v", err)
					}
					req.Items = nil // what an older decoder never sees
					body, _ := json.Marshal(req)
					r.Body = io.NopCloser(bytes.NewReader(body))
					r.ContentLength = int64(len(body))
				}
				pool.ServeHTTP(w, r)
			}))
			defer ts.Close()

			c := coord.NewClient(ts.URL)
			id, err := c.Submit(t.Context(), coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 3})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if tc.zeroDone {
				l, err := c.Claim(t.Context(), id, "first")
				if err != nil {
					t.Fatalf("Claim: %v", err)
				}
				var cells bytes.Buffer
				sc, err := experiments.RunFigureShard(t.Context(), l.Figure,
					experiments.Config{Seeds: l.Seeds, BaseSeed: l.BaseSeed}, experiments.Shard{Index: l.Shard, Count: l.Shards})
				if err != nil || sc.Encode(&cells) != nil {
					t.Fatalf("shard %d: %v", l.Shard, err)
				}
				if err := c.Complete(t.Context(), l, "first", cells.Bytes()); err != nil {
					t.Fatalf("Complete: %v", err)
				}
			}
			if err := coord.RunWorker(t.Context(), c, coord.WorkerOptions{Name: "w", Job: id, Poll: 10 * time.Millisecond}); err != nil {
				t.Fatalf("RunWorker: %v", err)
			}
			if p, err := c.Progress(t.Context(), id); err != nil || p.State != "done" || int64(p.Duplicates) != tc.dups {
				t.Fatalf("Progress: %+v %v; want done with %d duplicates", p, err, tc.dups)
			}
			if claims.Load() != tc.claims || completes.Load() != tc.completes {
				t.Fatalf("%d claims and %d completes, want %d and %d", claims.Load(), completes.Load(), tc.claims, tc.completes)
			}
		})
	}
}
