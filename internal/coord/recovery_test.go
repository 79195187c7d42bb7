package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openDurable opens a durable coordinator on dir with the injected
// clock and test-friendly defaults.
func openDurable(t *testing.T, dir string, clk *fakeClock, mut func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		DefaultLeaseTTL: 10 * time.Second,
		Now:             clk.Now,
		StateDir:        dir,
		SnapshotEvery:   1 << 30, // no automatic snapshots unless the test asks
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return c
}

// cellsCache memoizes shard artifacts per (count, index): every test
// job here is testJob, so shard results are shared across crash points.
var cellsCache = map[[2]int][]byte{}

func cachedCells(t *testing.T, l *Lease) []byte {
	t.Helper()
	key := [2]int{l.Shards, l.Shard}
	if b, ok := cellsCache[key]; ok {
		return b
	}
	b := shardBytes(t, l)
	cellsCache[key] = b
	return b
}

// captureState serializes a coordinator's full state the way a
// snapshot would, normalized for restart-equivalence comparison:
// incarnation-local fields (LSN, epoch, process-local stats) are
// zeroed, everything semantic (shard states, tokens, deadlines,
// counters, results) is kept verbatim.
func captureState(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	c.mu.Lock()
	doc := c.snapshotDocLocked()
	c.mu.Unlock()
	doc.LSN = 0
	doc.Epoch = 0
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatalf("marshal capture: %v", err)
	}
	return out
}

// observeExpiry folds pending lease expiries into both sides of a
// comparison: expiry is lazy and never journaled, so live and
// recovered coordinators are compared after both observe the clock.
func observeExpiry(t *testing.T, c *Coordinator, jobIDs []string) {
	t.Helper()
	for _, id := range jobIDs {
		if _, err := c.Progress(id); err != nil {
			t.Fatalf("Progress(%s): %v", id, err)
		}
	}
}

// TestReopenRestoresState: clean shutdown, reopen, the job continues —
// leases survive with their tokens, done shards stay done, and the
// finished merge matches the unsharded golden byte-for-byte.
func TestReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, nil)

	id, err := c1.Submit(testJob(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l0, err := c1.Claim(id, "w1")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if err := c1.Complete(id, l0.Shard, l0.Token, "w1", cachedCells(t, l0)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	l1, err := c1.Claim(id, "w2")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatalf("Close left no snapshot: %v", err)
	}

	c2 := openDurable(t, dir, clk, nil)
	st := c2.StatsSnapshot()
	if st.JobsRecovered != 1 || st.ShardsRecovered != 1 {
		t.Fatalf("recovered jobs=%d shards=%d, want 1 and 1", st.JobsRecovered, st.ShardsRecovered)
	}
	p, err := c2.Progress(id)
	if err != nil {
		t.Fatalf("Progress after reopen: %v", err)
	}
	if p.Done != 1 || p.Shards[l1.Shard].State != "leased" {
		t.Fatalf("recovered progress: done=%d shard %d state=%s", p.Done, l1.Shard, p.Shards[l1.Shard].State)
	}
	// The surviving worker's lease (not expired) completes against the
	// recovered coordinator with its pre-restart token.
	if err := c2.Complete(id, l1.Shard, l1.Token, "w2", cachedCells(t, l1)); err != nil {
		t.Fatalf("Complete with pre-restart token: %v", err)
	}
	l2, err := c2.Claim(id, "w3")
	if err != nil {
		t.Fatalf("Claim after reopen: %v", err)
	}
	if err := c2.Complete(id, l2.Shard, l2.Token, "w3", cachedCells(t, l2)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	dat, err := c2.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(dat) != goldenDat(t) {
		t.Fatal("recovered merge differs from unsharded golden")
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRecoveredStaleLeaseSemantics: a lease that expired while the
// coordinator was down behaves exactly like one that expired live —
// it is re-offered on the next claim, and the dead incarnation's token
// then maps to ErrLeaseLost (409), never a 500.
func TestRecoveredStaleLeaseSemantics(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, nil)
	id, err := c1.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	stale, err := c1.Claim(id, "w1")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// Crash: no Close, the journal tail is all there is.
	clk.Advance(11 * time.Second) // past the 10s TTL while "down"

	c2 := openDurable(t, dir, clk, nil)
	// Lazy expiry: recovery restored the lease as leased; the next
	// claim observes the deadline, releases it and re-leases.
	fresh, err := c2.Claim(id, "w2")
	if err != nil {
		t.Fatalf("Claim after recovery: %v", err)
	}
	if fresh.Shard != stale.Shard {
		t.Fatalf("expired shard %d not re-offered first, got %d", stale.Shard, fresh.Shard)
	}
	if fresh.Token == stale.Token {
		t.Fatal("re-issued lease reuses the dead incarnation's token")
	}
	p, err := c2.Progress(id)
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.Releases != 1 {
		t.Fatalf("releases = %d, want 1", p.Releases)
	}
	if _, err := c2.Renew(id, stale.Shard, stale.Token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Renew: got %v, want ErrLeaseLost", err)
	}
	if err := c2.Complete(id, stale.Shard, stale.Token, "w1", cachedCells(t, stale)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Complete: got %v, want ErrLeaseLost", err)
	}
}

// TestRecoveryRepairsMissingMerge: every shard's complete record is
// durable but the crash beat the merge record to disk — recovery
// re-merges from the cells and the result is byte-identical.
func TestRecoveryRepairsMissingMerge(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, nil)
	id, err := c1.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < 2; i++ {
		l, err := c1.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := c1.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	// Simulate the crash window: drop the trailing merge record from
	// the journal (no Close — the snapshot would absorb everything).
	path := filepath.Join(dir, journalFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	recs, _ := decodeJournal(data)
	if recs[len(recs)-1].Type != recMerge {
		t.Fatalf("last record is %q, want merge", recs[len(recs)-1].Type)
	}
	var truncated []byte
	for i := range recs[:len(recs)-1] {
		payload, _ := json.Marshal(&recs[i])
		truncated = frameRecord(truncated, payload)
	}
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatalf("rewrite journal: %v", err)
	}

	c2 := openDurable(t, dir, clk, nil)
	dat, err := c2.Result(id)
	if err != nil {
		t.Fatalf("Result after repair: %v", err)
	}
	if string(dat) != goldenDat(t) {
		t.Fatal("repaired merge differs from unsharded golden")
	}
}

// TestLostClaimTokenNeverReissued: a machine crash that loses an
// unsynced claim record regresses the counter the token was drawn
// from, yet the recovered coordinator's next lease still gets a fresh
// token — tokens carry the state dir's open count — so the dead
// incarnation's worker cannot complete under it.
func TestLostClaimTokenNeverReissued(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, nil)
	id, err := c1.Submit(testJob(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lost, err := c1.Claim(id, "w1")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// Crash: drop the claim record, as if its fsync never happened.
	path := filepath.Join(dir, journalFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	ends := journalFrameEnds(t, data)
	if err := os.WriteFile(path, data[:ends[len(ends)-2]], 0o644); err != nil {
		t.Fatalf("rewrite journal: %v", err)
	}

	c2 := openDurable(t, dir, clk, nil)
	fresh, err := c2.Claim(id, "w2")
	if err != nil {
		t.Fatalf("Claim after recovery: %v", err)
	}
	if fresh.Token == lost.Token {
		t.Fatalf("recovered coordinator re-issued the lost token %q", lost.Token)
	}
	if err := c2.Complete(id, lost.Shard, lost.Token, "w1", cachedCells(t, lost)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Complete under the lost token: got %v, want ErrLeaseLost", err)
	}
}

// TestReplayFailedMerge: a journaled merge failure replays as a failed
// job, counted once, whose Result reports the recorded error.
func TestReplayFailedMerge(t *testing.T) {
	dir := t.TempDir()
	recs := []record{
		{Type: recSubmit, Job: "j1", Seq: 1, Spec: &SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 1, LeaseTTLMS: 10_000}},
		{Type: recClaim, Job: "j1", Seq: 2, Token: "t2", Worker: "w", Deadline: 1},
		{Type: recComplete, Job: "j1", Worker: "w", Cells: []byte("cells")},
		{Type: recMerge, Job: "j1", Failed: "boom", MergeNS: 3e6},
	}
	if err := os.WriteFile(filepath.Join(dir, journalFileName), frameRecords(t, recs), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	c := openDurable(t, dir, newFakeClock(), nil)
	p, err := c.Progress("j1")
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.State != "failed" || p.Error != "boom" {
		t.Fatalf("replayed failed merge: state %q error %q", p.State, p.Error)
	}
	if st := c.StatsSnapshot(); st.JobsFailed != 1 || st.JobsDone != 0 || st.Merges != 0 {
		t.Fatalf("stats after a replayed failure: %+v", st)
	}
	if _, err := c.Result("j1"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Result: %v", err)
	}
}

// TestSnapshotRotation: after SnapshotEvery appends the journal is
// absorbed into snapshot.json and truncated, and a coordinator
// recovered from snapshot+tail is intact.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	id, err := c1.Submit(testJob(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < 2; i++ {
		l, err := c1.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if err := c1.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	st := c1.StatsSnapshot()
	if st.Snapshots == 0 {
		t.Fatalf("no snapshot after %d appends", st.JournalAppends)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFileName)); err != nil {
		t.Fatalf("stat journal: %v", err)
	} else if fi.Size() > 1<<12 {
		t.Fatalf("journal not truncated by snapshot: %d bytes", fi.Size())
	}

	c2 := openDurable(t, dir, clk, nil)
	p, err := c2.Progress(id)
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.Done != 2 {
		t.Fatalf("recovered done=%d, want 2", p.Done)
	}
	l, err := c2.Claim(id, "w")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if err := c2.Complete(id, l.Shard, l.Token, "w", cachedCells(t, l)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	dat, err := c2.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(dat) != goldenDat(t) {
		t.Fatal("merge after snapshot recovery differs from golden")
	}
}

// TestSubmitIdempotent: the same job key answers with the same job,
// in-process and across a restart.
func TestSubmitIdempotent(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c1 := openDurable(t, dir, clk, nil)
	spec := testJob(2)
	spec.JobKey = "ck-test-idempotent"
	id, err := c1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	again, err := c1.Submit(spec)
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if again != id {
		t.Fatalf("repeat Submit made a new job: %s vs %s", again, id)
	}
	st := c1.StatsSnapshot()
	if st.JobsSubmitted != 1 || st.SubmitsDeduped != 1 {
		t.Fatalf("submitted=%d deduped=%d, want 1 and 1", st.JobsSubmitted, st.SubmitsDeduped)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The key table is durable: a post-restart retry still dedupes.
	c2 := openDurable(t, dir, clk, nil)
	after, err := c2.Submit(spec)
	if err != nil {
		t.Fatalf("Submit after reopen: %v", err)
	}
	if after != id {
		t.Fatalf("post-restart Submit made a new job: %s vs %s", after, id)
	}
	if st := c2.StatsSnapshot(); st.JobsSubmitted != 1 {
		t.Fatalf("jobs_submitted=%d after restart dedup, want 1", st.JobsSubmitted)
	}

	long := testJob(2)
	long.JobKey = string(bytes.Repeat([]byte("k"), maxJobKeyLen+1))
	if _, err := c2.Submit(long); err == nil {
		t.Fatal("oversized job_key accepted")
	}
}

// propState drives random operations against a live coordinator.
type propState struct {
	rng    *rand.Rand
	jobIDs []string
	leases []*Lease // leases "workers" currently hold (may be stale)
	done   []*Lease // leases completed, for duplicate batch items
	// batchMerges counts batch completes that finished their job.
	batchMerges int
}

// singles replays an operation one shard at a time: each function is a
// single Claim or Complete (or the one call of an operation that has a
// single form), and together, applied in order to a coordinator in the
// same state, they write the operation's records in the same order.
type singles []func(*Coordinator)

// step runs one random operation on c and returns it as singles. A
// clock advance returns none: the clock is shared.
func (ps *propState) step(t *testing.T, c *Coordinator, clk *fakeClock) singles {
	t.Helper()
	switch ps.rng.Intn(16) {
	case 0, 1:
		// Keep up to two jobs running; submit a fresh one as they finish.
		running := 0
		for _, id := range ps.jobIDs {
			if p, err := c.Progress(id); err == nil && p.State == "running" {
				running++
			}
		}
		if running < 2 {
			spec := testJob(2 + ps.rng.Intn(2)) // 2 or 3 shards
			if ps.rng.Intn(3) == 0 {
				spec = testJob(8) // room for shares of more than one
			}
			id, err := c.Submit(spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ps.jobIDs = append(ps.jobIDs, id)
			return singles{func(s *Coordinator) { s.Submit(spec) }}
		}
	case 2, 3, 4, 12, 13:
		if len(ps.jobIDs) == 0 {
			return nil
		}
		target := "" // any-job claim
		if ps.rng.Intn(2) == 0 {
			target = ps.jobIDs[ps.rng.Intn(len(ps.jobIDs))]
		}
		worker := "w" + string(rune('a'+ps.rng.Intn(3)))
		var got []*Lease
		var err error
		if share := ps.rng.Intn(2) == 0; share {
			got, err = c.ClaimShare(target, worker)
		} else {
			var l *Lease
			l, err = c.Claim(target, worker)
			got = []*Lease{l}
		}
		switch {
		case errors.Is(err, ErrNoWork), errors.Is(err, ErrJobDone):
			return singles{func(s *Coordinator) { s.Claim(target, worker) }}
		case err != nil:
			t.Fatalf("Claim: %v", err)
		}
		ps.leases = append(ps.leases, got...)
		var out singles
		for range got {
			out = append(out, func(s *Coordinator) { s.Claim(target, worker) })
		}
		return out
	case 5:
		if len(ps.leases) == 0 {
			return nil
		}
		l := ps.leases[ps.rng.Intn(len(ps.leases))]
		// May be stale (expired and re-leased, or completed): both
		// outcomes are part of the property.
		if _, err := c.Renew(l.Job, l.Shard, l.Token); err != nil && !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("Renew: %v", err)
		}
		return singles{func(s *Coordinator) { s.Renew(l.Job, l.Shard, l.Token) }}
	case 6, 7, 8:
		if len(ps.leases) == 0 {
			return nil
		}
		i := ps.rng.Intn(len(ps.leases))
		l := ps.leases[i]
		ps.leases = append(ps.leases[:i], ps.leases[i+1:]...)
		ps.done = append(ps.done, l)
		cells := cachedCells(t, l)
		err := c.Complete(l.Job, l.Shard, l.Token, "w", cells)
		if err != nil && !errors.Is(err, ErrLeaseLost) && !errors.Is(err, ErrDuplicate) {
			t.Fatalf("Complete: %v", err)
		}
		return singles{func(s *Coordinator) { s.Complete(l.Job, l.Shard, l.Token, "w", cells) }}
	case 9:
		if len(ps.leases) == 0 {
			return nil
		}
		// Double-complete a lease without forgetting it: exercises the
		// duplicate path deterministically.
		l := ps.leases[ps.rng.Intn(len(ps.leases))]
		cells := cachedCells(t, l)
		err := c.Complete(l.Job, l.Shard, l.Token, "w-dup", cells)
		if err != nil && !errors.Is(err, ErrLeaseLost) && !errors.Is(err, ErrDuplicate) {
			t.Fatalf("duplicate Complete: %v", err)
		}
		return singles{func(s *Coordinator) { s.Complete(l.Job, l.Shard, l.Token, "w-dup", cells) }}
	case 14, 15:
		return ps.batchComplete(t, c)
	case 10, 11:
		clk.Advance(time.Duration(1+ps.rng.Intn(8)) * time.Second)
	}
	return nil
}

// batchComplete delivers every held lease of one job in one batch,
// shuffled together with, at random, a duplicate of a completed shard,
// a stale token and a malformed artifact, as many of these as fit in
// the job's shard count (the largest batch a coordinator takes).
func (ps *propState) batchComplete(t *testing.T, c *Coordinator) singles {
	t.Helper()
	if len(ps.leases) == 0 {
		return nil
	}
	job := ps.leases[ps.rng.Intn(len(ps.leases))].Job
	var items []ShardResult
	kept := ps.leases[:0]
	for _, l := range ps.leases {
		if l.Job != job {
			kept = append(kept, l)
			continue
		}
		items = append(items, ShardResult{Shard: l.Shard, Token: l.Token, Cells: cachedCells(t, l)})
		ps.done = append(ps.done, l)
	}
	ps.leases = kept
	l := ps.done[len(ps.done)-1]
	fits := func() bool { return len(items) < l.Shards }
	if i := ps.rng.Intn(len(ps.done)); ps.done[i].Job == job && fits() {
		l := ps.done[i]
		items = append(items, ShardResult{Shard: l.Shard, Token: l.Token, Cells: cachedCells(t, l)})
	}
	if ps.rng.Intn(2) == 0 && fits() {
		items = append(items, ShardResult{Shard: l.Shard, Token: "t0.0", Cells: cachedCells(t, l)})
	}
	if ps.rng.Intn(2) == 0 && fits() {
		items = append(items, ShardResult{Shard: l.Shard, Token: l.Token, Cells: []byte("malformed")})
	}
	ps.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	before, _ := c.Progress(job)
	errs, err := c.CompleteShards(job, "w", items)
	if err != nil {
		t.Fatalf("CompleteShards: %v", err)
	}
	if after, _ := c.Progress(job); before.State == "running" && after.State == "done" {
		ps.batchMerges++
	}
	var out singles
	for i, it := range items {
		if errs[i] != nil && !errors.Is(errs[i], ErrLeaseLost) && !errors.Is(errs[i], ErrDuplicate) && string(it.Cells) != "malformed" {
			t.Fatalf("batch item %d: %v", i, errs[i])
		}
		out = append(out, func(s *Coordinator) { s.Complete(job, it.Shard, it.Token, "w", it.Cells) })
	}
	return out
}

// journalFrameEnds returns the end offset of every frame in data.
func journalFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	recs, valid := decodeJournal(data)
	if valid != len(data) {
		t.Fatalf("live journal has an invalid tail: %d of %d bytes valid", valid, len(data))
	}
	ends := make([]int, 0, len(recs))
	off := 0
	for off < valid {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

// boundary is the expected post-recovery state for a crash point: the
// live coordinator's captured state, the clock it was captured at, and
// how many journal records existed then.
type boundary struct {
	cum     int
	clock   time.Time
	capture []byte
}

// expectedFor maps a crash after k valid records onto a boundary. A k
// strictly between two boundaries is a mid-operation crash — only the
// final complete+merge pair spans two records — and recovery's merge
// repair lands it on the operation's post-state.
func expectedFor(bounds []boundary, k int) boundary {
	i := len(bounds) - 1
	for i > 0 && bounds[i].cum > k {
		i--
	}
	if bounds[i].cum == k || i == len(bounds)-1 {
		return bounds[i]
	}
	if bounds[i].cum < k {
		return bounds[i+1] // mid-op: the op's records are partially durable
	}
	return bounds[i] // k below the first boundary: initial state
}

// recoverPrefix writes journal bytes (and optionally snapshot bytes)
// into a fresh dir and opens a coordinator on it at the given clock.
func recoverPrefix(t *testing.T, journal, snapshot []byte, at time.Time) *Coordinator {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFileName), journal, 0o644); err != nil {
		t.Fatalf("write journal prefix: %v", err)
	}
	if snapshot != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snapshot, 0o644); err != nil {
			t.Fatalf("write snapshot: %v", err)
		}
	}
	clk := &fakeClock{now: at}
	return openDurable(t, dir, clk, nil)
}

// driveToGolden claims and completes every remaining shard of every
// job on a recovered coordinator (advancing its injected clock past
// recovered lease deadlines) and asserts each merged result is
// byte-identical to the unsharded golden.
func driveToGolden(t *testing.T, c *Coordinator, jobIDs []string, golden string) {
	t.Helper()
	clk := &fakeClock{now: c.cfg.Now()}
	c.cfg.Now = clk.Now
	for iter := 0; ; iter++ {
		if iter > 1000 {
			t.Fatal("driveToGolden: no progress after 1000 iterations")
		}
		l, err := c.Claim("", "finisher")
		if errors.Is(err, ErrNoWork) {
			running := false
			for _, id := range jobIDs {
				p, perr := c.Progress(id)
				if perr != nil {
					t.Fatalf("Progress: %v", perr)
				}
				if p.State == "running" {
					running = true
				}
			}
			if !running {
				break
			}
			clk.Advance(time.Minute) // expire recovered leases
			continue
		}
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		err = c.Complete(l.Job, l.Shard, l.Token, "finisher", cachedCells(t, l))
		if err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatalf("Complete: %v", err)
		}
	}
	for _, id := range jobIDs {
		dat, err := c.Result(id)
		if err != nil {
			t.Fatalf("Result(%s): %v", id, err)
		}
		if string(dat) != golden {
			t.Fatalf("job %s: recovered merge differs from unsharded golden", id)
		}
	}
}

// TestRestartEquivalenceJournalPrefixes is the restart-equivalence
// property test over the journal alone (snapshots disabled): a random
// operation sequence runs against a live durable coordinator under an
// injected clock, capturing the full normalized state at every
// operation boundary; then, for every journal record prefix — plus
// mid-frame cuts that simulate torn writes — a fresh coordinator
// recovers from that prefix and must reproduce the captured state
// exactly (same pending/leased/done sets, tokens, deadlines and
// counters) once both sides observe lease expiry at the same clock.
// A sample of crash points is then driven to completion and must merge
// byte-identical to the unsharded golden.
func TestRestartEquivalenceJournalPrefixes(t *testing.T) {
	golden := goldenDat(t)
	dir, shadowDir := t.TempDir(), t.TempDir()
	clk := newFakeClock()
	live := openDurable(t, dir, clk, nil)
	// The shadow replays every operation one shard at a time, so a crash
	// inside a share claim or a batch complete has a state to recover.
	shadow := openDurable(t, shadowDir, clk, nil)
	ps := &propState{rng: rand.New(rand.NewSource(7))}

	countRecords := func(dir string) int {
		data, err := os.ReadFile(filepath.Join(dir, journalFileName))
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		recs, valid := decodeJournal(data)
		if valid != len(data) {
			t.Fatalf("live journal invalid at %d of %d", valid, len(data))
		}
		return len(recs)
	}

	bounds := []boundary{{cum: countRecords(shadowDir), clock: clk.Now(), capture: captureState(t, shadow)}}
	const ops = 80
	batches := 0
	for i := 0; i < ops; i++ {
		ops := ps.step(t, live, clk)
		observeExpiry(t, live, ps.jobIDs)
		for _, op := range ops {
			op(shadow)
			observeExpiry(t, shadow, ps.jobIDs)
			bounds = append(bounds, boundary{cum: countRecords(shadowDir), clock: clk.Now(), capture: captureState(t, shadow)})
		}
		observeExpiry(t, shadow, ps.jobIDs) // a clock advance has no ops
		if len(ops) > 1 {
			batches++
		}
		if got, want := captureState(t, live), captureState(t, shadow); !bytes.Equal(got, want) {
			t.Fatalf("op %d: live state differs from its one-shard replay\n--- live ---\n%s\n--- replay ---\n%s", i, got, want)
		}
	}
	if batches < 5 || ps.batchMerges == 0 {
		t.Fatalf("%d operations spanned several shards, %d batches finished a job; property too weak", batches, ps.batchMerges)
	}

	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if replay, err := os.ReadFile(filepath.Join(shadowDir, journalFileName)); err != nil || !bytes.Equal(data, replay) {
		t.Fatalf("live journal differs from its one-shard replay's (%d vs %d bytes, %v)", len(data), len(replay), err)
	}
	ends := journalFrameEnds(t, data)
	if len(ends) < 20 {
		t.Fatalf("random run produced only %d journal records; property too weak", len(ends))
	}

	// Crash points: before any record, after every record, and torn
	// mid-frame cuts (header and payload) of every record.
	cuts := []int{0}
	prev := 0
	for _, e := range ends {
		cuts = append(cuts, prev+4, prev+(e-prev)/2, e-1, e)
		prev = e
	}
	checked := 0
	for _, cut := range cuts {
		if cut < 0 || cut > len(data) {
			continue
		}
		prefix := data[:cut]
		_, valid := decodeJournal(prefix)
		k := 0
		for _, e := range ends {
			if e <= valid {
				k++
			}
		}
		want := expectedFor(bounds, k)
		rec := recoverPrefix(t, prefix, nil, want.clock)
		observeExpiry(t, rec, ps.jobIDs[:jobsIn(want.capture)])
		got := captureState(t, rec)
		if !bytes.Equal(got, want.capture) {
			t.Fatalf("crash at byte %d (record prefix %d): recovered state differs\n--- recovered ---\n%s\n--- live capture ---\n%s",
				cut, k, got, want.capture)
		}
		// Every 7th crash point also proves end-to-end progress: the
		// recovered coordinator finishes its jobs byte-identical to the
		// unsharded run.
		if checked%7 == 0 {
			driveToGolden(t, rec, ps.jobIDs[:jobsIn(want.capture)], golden)
		}
		checked++
	}
	if checked < 4*len(ends) {
		t.Fatalf("only %d crash points checked for %d records", checked, len(ends))
	}
}

// jobsIn counts the jobs present in a normalized capture, so recovery
// checks only poll jobs that existed at that crash point.
func jobsIn(capture []byte) int {
	var doc snapshotDoc
	if json.Unmarshal(capture, &doc) != nil {
		return 0
	}
	return len(doc.Jobs)
}

// TestRestartEquivalenceWithSnapshots is the same property across
// operation-boundary crashes with aggressive snapshot rotation: every
// few appends the journal is absorbed into snapshot.json, so recovery
// exercises the snapshot+tail path (including the dedup of records the
// snapshot already covers, via the snapshot LSN).
func TestRestartEquivalenceWithSnapshots(t *testing.T) {
	golden := goldenDat(t)
	dir := t.TempDir()
	clk := newFakeClock()
	live := openDurable(t, dir, clk, func(cfg *Config) { cfg.SnapshotEvery = 3 })
	ps := &propState{rng: rand.New(rand.NewSource(11))}

	readFiles := func() (journal, snapshot []byte) {
		journal, err := os.ReadFile(filepath.Join(dir, journalFileName))
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		snapshot, err = os.ReadFile(filepath.Join(dir, snapshotFileName))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("read snapshot: %v", err)
		}
		return journal, snapshot
	}

	const ops = 100
	for i := 0; i < ops; i++ {
		ps.step(t, live, clk)
		observeExpiry(t, live, ps.jobIDs)
		want := captureState(t, live)
		journal, snapshot := readFiles()
		rec := recoverPrefix(t, journal, snapshot, clk.Now())
		observeExpiry(t, rec, ps.jobIDs)
		got := captureState(t, rec)
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: snapshot+tail recovery differs\n--- recovered ---\n%s\n--- live ---\n%s", i, got, want)
		}
		if i%10 == 9 {
			driveToGolden(t, rec, ps.jobIDs, golden)
		}
	}
	if st := live.StatsSnapshot(); st.Snapshots == 0 || ps.batchMerges == 0 {
		t.Fatalf("%d snapshots, %d batches finished a job; property too weak", st.Snapshots, ps.batchMerges)
	}
}
