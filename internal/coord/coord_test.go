package coord

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// fakeClock drives lease expiry deterministically: tests advance it
// instead of sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testJob is the cheap standard job most tests submit: fig2a at 2
// seeds is milliseconds of compute since the incremental-load PR.
func testJob(shards int) SweepJob {
	return SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: shards}
}

// shardBytes computes one lease's cells exactly as a worker would.
func shardBytes(t testing.TB, l *Lease) []byte {
	t.Helper()
	sc, err := experiments.RunFigureShard(t.Context(), l.Figure,
		experiments.Config{Seeds: l.Seeds, BaseSeed: l.BaseSeed},
		experiments.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		t.Fatalf("RunFigureShard(%d/%d): %v", l.Shard, l.Shards, err)
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// goldenDat is the unsharded reference output every merged result must
// match byte-for-byte.
func goldenDat(t *testing.T) string {
	t.Helper()
	fig, err := experiments.BuildFigure(t.Context(), "fig2a", experiments.Config{Seeds: 2, BaseSeed: 1})
	if err != nil {
		t.Fatalf("BuildFigure: %v", err)
	}
	return fig.Dat()
}

func TestSubmitValidation(t *testing.T) {
	c := New(Config{MaxShards: 8, Now: newFakeClock().Now})
	for _, tc := range []struct {
		name string
		job  SweepJob
		want string
	}{
		{"unknown figure", SweepJob{Figure: "nope", Shards: 2}, "unknown figure"},
		{"zero shards", SweepJob{Figure: "fig2a", Shards: 0}, "shards must be"},
		{"too many shards", SweepJob{Figure: "fig2a", Shards: 9}, "shards must be"},
		{"negative seeds", SweepJob{Figure: "fig2a", Seeds: -1, Shards: 2}, "seeds must be"},
	} {
		if _, err := c.Submit(tc.job); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	// Seeds 0 is normalized to the experiments default.
	id, err := c.Submit(SweepJob{Figure: "fig2a", Shards: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p, err := c.Progress(id)
	if err != nil {
		t.Fatalf("Progress: %v", err)
	}
	if p.Seeds != 10 {
		t.Fatalf("seeds not defaulted: %d", p.Seeds)
	}
}

func TestMaxJobs(t *testing.T) {
	c := New(Config{MaxJobs: 1, Now: newFakeClock().Now})
	if _, err := c.Submit(testJob(2)); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := c.Submit(testJob(2)); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("second Submit: got %v, want ErrTooManyJobs", err)
	}
}

// TestHappyPath drives a 3-shard job through claim/complete and checks
// the merged result is byte-identical to the unsharded run.
func TestHappyPath(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Now: clk.Now})
	id, err := c.Submit(testJob(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Result(id); !errors.Is(err, ErrNotDone) {
		t.Fatalf("early Result: got %v, want ErrNotDone", err)
	}
	for i := 0; i < 3; i++ {
		l, err := c.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim %d: %v", i, err)
		}
		if l.Shard != i || l.Shards != 3 {
			t.Fatalf("lease %d: got shard %d/%d", i, l.Shard, l.Shards)
		}
		if err := c.Complete(id, l.Shard, l.Token, "w", shardBytes(t, l)); err != nil {
			t.Fatalf("Complete %d: %v", i, err)
		}
	}
	if _, err := c.Claim(id, "w"); !errors.Is(err, ErrJobDone) {
		t.Fatalf("Claim after done: %v, want ErrJobDone", err)
	}
	dat, err := c.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(dat) != goldenDat(t) {
		t.Fatalf("merged dat differs from unsharded golden")
	}
	p, _ := c.Progress(id)
	if p.State != "done" || p.Done != 3 || p.Releases != 0 || p.Duplicates != 0 {
		t.Fatalf("progress: %+v", p)
	}
	st := c.StatsSnapshot()
	if st.Merges != 1 || st.LeasesGranted != 3 || st.JobsDone != 1 || st.JobsActive != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestExpiryRelease: an expired lease goes back to pending, is
// re-leased to another worker with a fresh token, and the dead
// worker's stale token can no longer renew or complete.
func TestExpiryRelease(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{DefaultLeaseTTL: 10 * time.Second, Now: clk.Now})
	id, _ := c.Submit(testJob(1))

	dead, err := c.Claim(id, "flaky")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// Same shard is not claimable while the lease is live.
	if _, err := c.Claim(id, "other"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("second Claim: %v, want ErrNoWork", err)
	}
	clk.Advance(11 * time.Second)
	fresh, err := c.Claim(id, "steady")
	if err != nil {
		t.Fatalf("re-Claim after expiry: %v", err)
	}
	if fresh.Shard != dead.Shard || fresh.Token == dead.Token {
		t.Fatalf("re-lease: shard %d token %q vs dead %d %q", fresh.Shard, fresh.Token, dead.Shard, dead.Token)
	}
	if _, err := c.Renew(id, dead.Shard, dead.Token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Renew: %v, want ErrLeaseLost", err)
	}
	if err := c.Complete(id, dead.Shard, dead.Token, "flaky", shardBytes(t, dead)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Complete: %v, want ErrLeaseLost", err)
	}
	if err := c.Complete(id, fresh.Shard, fresh.Token, "steady", shardBytes(t, fresh)); err != nil {
		t.Fatalf("fresh Complete: %v", err)
	}
	p, _ := c.Progress(id)
	if p.Releases != 1 || p.Shards[0].Leases != 2 || p.Shards[0].DoneBy != "steady" {
		t.Fatalf("progress after re-lease: %+v", p)
	}
	if st := c.StatsSnapshot(); st.Releases != 1 {
		t.Fatalf("stats releases: %+v", st)
	}
}

// TestRenewExtends: renewing pushes the deadline, so a heartbeating
// worker is never re-leased; dropping the heartbeat expires it.
func TestRenewExtends(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{DefaultLeaseTTL: 10 * time.Second, Now: clk.Now})
	id, _ := c.Submit(testJob(1))
	l, _ := c.Claim(id, "w")
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second)
		ttl, err := c.Renew(id, l.Shard, l.Token)
		if err != nil {
			t.Fatalf("Renew %d: %v", i, err)
		}
		if ttl != (10 * time.Second).Milliseconds() {
			t.Fatalf("Renew TTL: %d", ttl)
		}
	}
	// 40s of wall time elapsed, lease still held.
	if _, err := c.Claim(id, "thief"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("Claim against heartbeating lease: %v", err)
	}
	clk.Advance(11 * time.Second)
	if _, err := c.Claim(id, "thief"); err != nil {
		t.Fatalf("Claim after heartbeat stops: %v", err)
	}
}

// TestDuplicateCompletion: after a straggler's shard is re-leased and
// completed by someone else, the straggler's late result is discarded
// as a duplicate, the job merges once, and the output still matches
// the unsharded golden.
func TestDuplicateCompletion(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{DefaultLeaseTTL: 5 * time.Second, Now: clk.Now})
	id, _ := c.Submit(testJob(2))

	slow, _ := c.Claim(id, "slow")
	clk.Advance(6 * time.Second) // slow's lease expires
	fast, err := c.Claim(id, "fast")
	if err != nil || fast.Shard != slow.Shard {
		t.Fatalf("re-claim: lease %+v err %v", fast, err)
	}
	other, err := c.Claim(id, "fast")
	if err != nil {
		t.Fatalf("claim second shard: %v", err)
	}
	if err := c.Complete(id, fast.Shard, fast.Token, "fast", shardBytes(t, fast)); err != nil {
		t.Fatalf("fast Complete: %v", err)
	}
	// The straggler finally lands: shard already done -> duplicate.
	if err := c.Complete(id, slow.Shard, slow.Token, "slow", shardBytes(t, slow)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("late Complete: %v, want ErrDuplicate", err)
	}
	if err := c.Complete(id, other.Shard, other.Token, "fast", shardBytes(t, other)); err != nil {
		t.Fatalf("final Complete: %v", err)
	}
	dat, err := c.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(dat) != goldenDat(t) {
		t.Fatalf("merged dat differs from unsharded golden after duplicate")
	}
	p, _ := c.Progress(id)
	if p.Duplicates != 1 || p.Shards[fast.Shard].DoneBy != "fast" {
		t.Fatalf("progress: %+v", p)
	}
}

// TestCompleteRejectsMismatchedCells: an artifact for the wrong
// figure, shard or parameters fails the completing worker immediately
// instead of poisoning the merge.
func TestCompleteRejectsMismatchedCells(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Now: clk.Now})
	id, _ := c.Submit(testJob(2))
	l, _ := c.Claim(id, "w")

	wrong := *l
	wrong.Shard = 1 - l.Shard // cells for the other shard
	if err := c.Complete(id, l.Shard, l.Token, "w", shardBytes(t, &wrong)); err == nil ||
		!strings.Contains(err.Error(), "cover shard") {
		t.Fatalf("mismatched shard cells: %v", err)
	}
	if err := c.Complete(id, l.Shard, l.Token, "w", []byte("garbage")); err == nil {
		t.Fatal("garbage cells accepted")
	}
	// The lease survives a rejected completion; the real cells land.
	if err := c.Complete(id, l.Shard, l.Token, "w", shardBytes(t, l)); err != nil {
		t.Fatalf("correct Complete after rejects: %v", err)
	}
}

// badCells is a header-valid artifact without a single cell.
const badCells = "# streamalloc-cells/v1 fig=fig2a shard=0/1 seeds=2 baseseed=1 units=1\n"

// FuzzCompleteCells feeds arbitrary shard artifacts through Complete
// on a one-shard job. Nothing may panic, and either the call errors
// with the shard still leased, or the job merges — it never turns
// failed.
func FuzzCompleteCells(f *testing.F) {
	f.Add(shardBytes(f, &Lease{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shard: 0, Shards: 1}))
	f.Add([]byte(badCells))
	f.Fuzz(func(t *testing.T, cells []byte) {
		c := New(Config{Now: newFakeClock().Now})
		id, err := c.Submit(testJob(1))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		l, err := c.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		err = c.Complete(id, l.Shard, l.Token, "w", cells)
		p, perr := c.Progress(id)
		if perr != nil {
			t.Fatalf("Progress: %v", perr)
		}
		if err != nil && (p.State != "running" || p.Shards[0].State != "leased") {
			t.Fatalf("refused artifact (%v) left job %s, shard %s", err, p.State, p.Shards[0].State)
		}
		if err == nil && p.State != "done" {
			t.Fatalf("accepted artifact left job %s: %s", p.State, p.Error)
		}
	})
}

// TestLeaseTTLWholeMilliseconds: Submit resolves the lease TTL to whole
// milliseconds, rounded up, so a sub-millisecond TTL never reaches a
// worker as 0 (a zero heartbeat period) and a job keeps the same TTL
// across a restart. An oversized request is capped, not overflowed.
func TestLeaseTTLWholeMilliseconds(t *testing.T) {
	// deadline reads a shard's lease deadline from the state capture.
	deadline := func(c *Coordinator, shard int) int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.snapshotDocLocked().Jobs[0].Shards[shard].Deadline
	}
	for _, tc := range []struct {
		ttl    time.Duration
		wantMS int64
	}{{500 * time.Microsecond, 1}, {1500 * time.Microsecond, 2}} {
		dir := t.TempDir()
		clk := newFakeClock()
		c1 := openDurable(t, dir, clk, func(cfg *Config) { cfg.DefaultLeaseTTL = tc.ttl })
		id, err := c1.Submit(testJob(2))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		l, err := c1.Claim(id, "w")
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if l.TTLMS != tc.wantMS {
			t.Errorf("ttl %v: lease TTLMS = %d, want %d", tc.ttl, l.TTLMS, tc.wantMS)
		}
		live := deadline(c1, 0) - clk.Now().UnixNano()
		if err := c1.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		c2 := openDurable(t, dir, clk, nil)
		if _, err := c2.Claim(id, "w"); err != nil {
			t.Fatalf("Claim after reopen: %v", err)
		}
		if got := deadline(c2, 1) - clk.Now().UnixNano(); got != live {
			t.Errorf("ttl %v: lease lasts %v live, %v after reopen", tc.ttl, time.Duration(live), time.Duration(got))
		}
		c2.Close()
	}

	c := New(Config{MaxLeaseTTL: time.Minute, Now: newFakeClock().Now})
	spec := testJob(1)
	spec.LeaseTTLMS = math.MaxInt64
	id, _ := c.Submit(spec)
	if l, err := c.Claim(id, "w"); err != nil || l.TTLMS != time.Minute.Milliseconds() {
		t.Fatalf("oversized lease_ttl_ms: lease %+v, err %v", l, err)
	}
}

// TestScriptedHistoryCounters drives one job on a durable coordinator
// through every transition — submit, claim, renew, expiry, re-claim,
// lost lease, complete, duplicate, last complete and merge — and pins
// the whole Progress and the scheduling counters after each step. Live
// operations and replay share one transition function, so restart
// equivalence alone cannot catch a wrong transition; this test does.
// Each step is also recovered from the journal and compared with the
// live state, which covers the replay-only paths (a re-claim record
// over a still-leased shard is where replay counts the expiry). The
// clock ticks 1ms per reading, so the merge takes exactly 1ms.
func TestScriptedHistoryCounters(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openDurable(t, dir, clk, func(cfg *Config) {
		cfg.Now = func() time.Time {
			clk.Advance(time.Millisecond)
			return clk.Now()
		}
	})
	id, err := c.Submit(testJob(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p := Progress{ID: id, Figure: "fig2a", Seeds: 2, BaseSeed: 1, State: "running", Total: 2,
		Shards: []ShardProgress{{Shard: 0, State: "pending"}, {Shard: 1, State: "pending"}}}
	st := SweepStats{JobsSubmitted: 1, JobsActive: 1}
	var a, b, last *Lease
	steps := []struct {
		name string
		do   func() error
		want error
		edit func()
	}{
		{"claim", func() (err error) { a, err = c.Claim(id, "a"); return err }, nil, func() {
			p.Shards[0] = ShardProgress{Shard: 0, State: "leased", Worker: "a", Leases: 1}
			st.LeasesGranted++
		}},
		{"renew", func() error { clk.Advance(5 * time.Second); _, err := c.Renew(id, a.Shard, a.Token); return err }, nil, func() {
			p.Shards[0].Renewals++
			st.Renewals++
		}},
		{"renewed lease holds", func() error { clk.Advance(9 * time.Second); return nil }, nil, func() {}},
		{"expiry", func() error { clk.Advance(2 * time.Second); return nil }, nil, func() {
			p.Shards[0].State = "pending"
			p.Releases++
			st.Releases++
		}},
		{"re-claim", func() (err error) { b, err = c.Claim(id, "b"); return err }, nil, func() {
			p.Shards[0].State, p.Shards[0].Worker = "leased", "b"
			p.Shards[0].Leases++
			st.LeasesGranted++
		}},
		{"stale renew", func() error { _, err := c.Renew(id, a.Shard, a.Token); return err }, ErrLeaseLost, func() {}},
		{"complete", func() error { return c.Complete(id, b.Shard, b.Token, "b", shardBytes(t, b)) }, nil, func() {
			p.Shards[0].State, p.Shards[0].DoneBy = "done", "b"
			p.Done++
			st.ShardsCompleted++
		}},
		{"duplicate", func() error { return c.Complete(id, a.Shard, a.Token, "a", shardBytes(t, a)) }, ErrDuplicate, func() {
			p.Duplicates++
			st.Duplicates++
		}},
		{"claim last", func() (err error) { last, err = c.Claim("", "c"); return err }, nil, func() {
			p.Shards[1] = ShardProgress{Shard: 1, State: "leased", Worker: "c", Leases: 1}
			st.LeasesGranted++
		}},
		{"complete and merge", func() error { return c.Complete(id, last.Shard, last.Token, "c", shardBytes(t, last)) }, nil, func() {
			p.Shards[1].State, p.Shards[1].DoneBy = "done", "c"
			p.Done++
			p.State, p.MergeMS = "done", 1
			st.ShardsCompleted++
			st.JobsActive, st.JobsDone, st.Merges = 0, 1, 1
			st.LastMergeMS, st.MaxMergeMS = 1, 1
		}},
	}
	for _, s := range steps {
		if err := s.do(); !errors.Is(err, s.want) {
			t.Fatalf("%s: got %v, want %v", s.name, err, s.want)
		}
		s.edit()
		got, err := c.Progress(id)
		if err != nil {
			t.Fatalf("%s: Progress: %v", s.name, err)
		}
		if !reflect.DeepEqual(*got, p) {
			t.Fatalf("%s: progress\n got %+v\nwant %+v", s.name, *got, p)
		}
		gotSt := c.StatsSnapshot()
		gotSt.JournalAppends, gotSt.JournalSyncs, gotSt.JournalBytes = 0, 0, 0
		if gotSt != st {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", s.name, gotSt, st)
		}
		journal, err := os.ReadFile(filepath.Join(dir, journalFileName))
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		rec := recoverPrefix(t, journal, nil, clk.Now())
		observeExpiry(t, rec, []string{id})
		if want, got := captureState(t, c), captureState(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered state differs\n--- recovered ---\n%s\n--- live ---\n%s", s.name, got, want)
		}
	}
	if dat, err := c.Result(id); err != nil || string(dat) != goldenDat(t) {
		t.Fatalf("Result: %v", err)
	}
}

func TestAnyJobClaimAndUnknowns(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Now: clk.Now})
	if _, err := c.Claim("", "w"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("Claim with no jobs: %v", err)
	}
	if _, err := c.Claim("nope", "w"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Claim unknown job: %v", err)
	}
	if _, err := c.Progress("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Progress unknown job: %v", err)
	}
	idA, _ := c.Submit(testJob(1))
	idB, _ := c.Submit(testJob(1))
	// Any-job claims drain submission order: job A first, then B.
	l1, err := c.Claim("", "w")
	if err != nil || l1.Job != idA {
		t.Fatalf("first any-claim: %+v err %v", l1, err)
	}
	l2, err := c.Claim("", "w")
	if err != nil || l2.Job != idB {
		t.Fatalf("second any-claim: %+v err %v", l2, err)
	}
}
