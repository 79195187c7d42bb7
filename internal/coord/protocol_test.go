package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// finishJob claims and completes every shard of job id.
func finishJob(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	for {
		l, err := c.Claim(id, "w")
		if errors.Is(err, ErrJobDone) {
			return
		}
		if err != nil {
			t.Fatalf("Claim(%s): %v", id, err)
		}
		if err := c.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
			t.Fatalf("Complete(%s): %v", id, err)
		}
	}
}

// TestMaxJobsEvictsFinished: at the MaxJobs bound a submit evicts the
// oldest finished job, forgetting its id and job key, instead of
// refusing every sweep for good. Running jobs still count, and the
// eviction replays from the journal whatever bound the reopened
// coordinator has.
func TestMaxJobsEvictsFinished(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openDurable(t, dir, clk, func(cfg *Config) { cfg.MaxJobs = 1 })
	first := testJob(2)
	first.JobKey = "first"
	old, err := c.Submit(first)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Submit(testJob(2)); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("Submit beside a running job: %v, want ErrTooManyJobs", err)
	}
	finishJob(t, c, old)
	if st := c.StatsSnapshot(); st.JobsActive != 0 {
		t.Fatalf("jobs active %d after the job finished", st.JobsActive)
	}
	id, err := c.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit after the job finished: %v", err)
	}
	check := func(c *Coordinator, when string) {
		t.Helper()
		if _, err := c.Progress(old); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("%s: evicted job's Progress: %v, want ErrUnknownJob", when, err)
		}
		if _, err := c.Progress(id); err != nil {
			t.Fatalf("%s: new job's Progress: %v", when, err)
		}
	}
	check(c, "live")
	journal, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	for _, bound := range []int{1, 0} { // 0: the default 64
		rdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(rdir, journalFileName), journal, 0o644); err != nil {
			t.Fatalf("write journal: %v", err)
		}
		rec := openDurable(t, rdir, clk, func(cfg *Config) { cfg.MaxJobs = bound })
		check(rec, "replayed")
		if want, got := captureState(t, c), captureState(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("MaxJobs %d: replayed state differs\n--- replayed ---\n%s\n--- live ---\n%s", bound, got, want)
		}
	}

	// The evicted job's key is forgotten: resubmitting it is a new job.
	// The bound is full of a running job, so the daemon answers 429.
	if _, err := c.Submit(first); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("resubmitting the evicted key beside a running job: %v, want ErrTooManyJobs", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c = openDurable(t, dir, clk, func(cfg *Config) { cfg.MaxJobs = 1 })
	check(c, "reopened")
	finishJob(t, c, id)
	again, err := c.Submit(first)
	if err != nil || again == old || again == id {
		t.Fatalf("resubmitting the evicted key after a reopen: id %q err %v", again, err)
	}
}

// TestMergeReleasesCells: once a job merges, its shard cells are gone
// from memory and from snapshot.json, and the result survives a reopen
// byte for byte.
func TestMergeReleasesCells(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openDurable(t, dir, clk, nil)
	done, err := c.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	running, err := c.Submit(testJob(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	finishJob(t, c, done)
	l, err := c.Claim(running, "w")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if err := c.Complete(running, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	want, err := c.Result(done)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	doc, err := readSnapshot(dir)
	if err != nil || doc == nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	for _, j := range doc.Jobs {
		for k, s := range j.Shards {
			if hasCells := len(s.Cells) > 0; hasCells != (j.ID == running && s.State == shardDone) {
				t.Fatalf("snapshot job %s shard %d (%s): cells present %v", j.ID, k, s.State, hasCells)
			}
		}
	}
	c = openDurable(t, dir, clk, nil)
	if got, err := c.Result(done); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Result after reopen: %v (equal %v)", err, bytes.Equal(got, want))
	}
	finishJob(t, c, running)
	if got, err := c.Result(running); err != nil || string(got) != goldenDat(t) {
		t.Fatalf("Result of the job finished after reopen: %v", err)
	}
}

// TestMergeFromDecodedCells: the merge folds the cells each complete
// decoded to check them, and decodes only the shards a reopen restored
// as bytes; both are released with the raw cells once the job merges.
func TestMergeFromDecodedCells(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openDurable(t, dir, clk, nil)
	id, err := c.Submit(testJob(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	complete := func(c *Coordinator) {
		t.Helper()
		l, err := c.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := c.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	complete(c) // shard 0, restored as bytes by the reopen
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c = openDurable(t, dir, clk, nil)
	complete(c) // shard 1, decoded by its complete
	c.mu.Lock()
	sh := c.jobs[id].Shards
	if sh[0].decoded != nil || sh[1].decoded == nil {
		c.mu.Unlock()
		t.Fatalf("decoded cells: restored shard %v, completed shard %v; want nil, set", sh[0].decoded != nil, sh[1].decoded != nil)
	}
	// The merge must not read shard 1's raw cells.
	sh[1].Cells = []byte("not cells")
	c.mu.Unlock()
	complete(c) // shard 2 merges
	if got, err := c.Result(id); err != nil || string(got) != goldenDat(t) {
		t.Fatalf("Result: %v (matches golden: %v)", err, string(got) == goldenDat(t))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.jobs[id].Shards {
		if s.Cells != nil || s.decoded != nil {
			t.Fatalf("shard %d keeps cells after the merge: raw %v, decoded %v", i, s.Cells != nil, s.decoded != nil)
		}
	}
}

// TestOldSnapshotDropsMergedCells: a snapshot written before merges
// released their cells still loads, and the finished job's cells are
// dropped on the way in.
func TestOldSnapshotDropsMergedCells(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openDurable(t, dir, clk, nil)
	id, err := c.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	finishJob(t, c, id)
	want, _ := c.Result(id)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	doc, err := readSnapshot(dir)
	if err != nil || doc == nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	for k := range doc.Jobs[0].Shards {
		doc.Jobs[0].Shards[k].Cells = cachedCells(t, &Lease{Shard: k, Shards: 2, Figure: "fig2a", Seeds: 2, BaseSeed: 1})
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), old, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	c = openDurable(t, dir, clk, nil)
	c.mu.Lock()
	for k, s := range c.jobs[id].Shards {
		if s.Cells != nil {
			t.Errorf("shard %d kept %d bytes of cells", k, len(s.Cells))
		}
	}
	c.mu.Unlock()
	if got, err := c.Result(id); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Result: %v", err)
	}
}

// TestWorkChanged: the channel closes on a submit and on a merge, the
// moments a claim that found no work may find some, and on nothing
// else.
func TestWorkChanged(t *testing.T) {
	c := New(Config{Now: newFakeClock().Now})
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	ch := c.WorkChanged()
	id, err := c.Submit(testJob(1))
	if err != nil || !closed(ch) {
		t.Fatalf("Submit: err %v, channel closed %v", err, closed(ch))
	}
	ch = c.WorkChanged()
	l, err := c.Claim(id, "w")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if _, err := c.Renew(id, l.Shard, l.Token); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if closed(ch) {
		t.Fatal("claim or renew closed the channel")
	}
	if err := c.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil || !closed(ch) {
		t.Fatalf("merging Complete: err %v, channel closed %v", err, closed(ch))
	}
	if ch := c.WorkChanged(); closed(ch) {
		t.Fatal("a fresh channel is already closed")
	}
}

// TestWorkerDoesNotSpin: against a coordinator that answers every
// claim 204 at once — one that predates wait_ms, or one shutting
// down — a worker sleeps out the wait it asked for instead of spinning.
// ExitIdle workers ask for no wait at all.
func TestWorkerDoesNotSpin(t *testing.T) {
	var (
		mu    sync.Mutex
		waits []int64
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		waits = append(waits, req.WaitMS)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(t.Context(), 400*time.Millisecond)
	defer cancel()
	err := RunWorker(ctx, NewClient(ts.URL), WorkerOptions{Name: "w", Poll: 20 * time.Millisecond, MaxBackoff: 80 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunWorker: %v", err)
	}
	mu.Lock()
	got := slices.Clone(waits)
	waits = nil
	mu.Unlock()
	// Waits of 20, 40, 80, 80... ms, jittered by up to ±50 %, fit at most
	// a dozen claims into 400 ms; a spinning worker sends thousands.
	if len(got) < 2 || len(got) > 16 {
		t.Fatalf("%d claims in 400ms: %v", len(got), got)
	}
	if got[0] != 20 || got[1] != 40 || slices.Max(got) != 80 {
		t.Fatalf("claim waits %v, want 20, 40, then 80 ms", got)
	}

	ctx, cancel = context.WithTimeout(t.Context(), 200*time.Millisecond)
	defer cancel()
	err = RunWorker(ctx, NewClient(ts.URL), WorkerOptions{Name: "w", Job: "j1", ExitIdle: true, Poll: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunWorker with ExitIdle: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) < 2 || len(waits) > 16 || slices.Max(waits) != 0 {
		t.Fatalf("ExitIdle claims: %v, want a handful, none parked", waits)
	}
}
