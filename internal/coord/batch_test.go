package coord

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// shards lists the shard indexes of leases.
func shards(leases []*Lease) []int {
	out := make([]int, len(leases))
	for i, l := range leases {
		out[i] = l.Shard
	}
	return out
}

// results pairs leases with their cells for CompleteShards.
func results(t *testing.T, leases ...*Lease) []ShardResult {
	t.Helper()
	out := make([]ShardResult, len(leases))
	for i, l := range leases {
		out[i] = ShardResult{Shard: l.Shard, Token: l.Token, Cells: cachedCells(t, l)}
	}
	return out
}

// TestShareRule pins the fair share a share claim takes:
// ⌊pending / (2·holders)⌋ shards, at least one, the lowest pending
// first, where holders counts the distinct workers with a live lease
// on the job and the claimer. A share never spans two jobs, and a plain
// claim stays one lease.
func TestShareRule(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{DefaultLeaseTTL: 10e9, Now: clk.Now})
	small, err := c.Submit(testJob(1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.Submit(testJob(16))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		job, worker string
		want        []int
		wantJob     string
	}{
		// The oldest job has one pending shard: the share is that shard
		// alone, never topped up from the next job.
		{"", "a", []int{0}, small},
		// 16 pending, holders {a}: 8.
		{"", "a", []int{0, 1, 2, 3, 4, 5, 6, 7}, big},
		// 8 pending, holders {a, b}: the claimer counts.
		{big, "b", []int{8, 9}, big},
		// 6 pending, holders {a, b}: 1.
		{big, "a", []int{10}, big},
		// 5 pending, holders {a, b, c}: ⌊5/6⌋ = 0, floored at one.
		{big, "c", []int{11}, big},
	}
	for i, s := range steps {
		got, err := c.ClaimShare(s.job, s.worker)
		if err != nil {
			t.Fatalf("step %d: ClaimShare: %v", i, err)
		}
		if !slices.Equal(shards(got), s.want) || got[0].Job != s.wantJob {
			t.Fatalf("step %d: %s leased shards %v of %s, want %v of %s", i, s.worker, shards(got), got[0].Job, s.want, s.wantJob)
		}
	}
	// A plain claim is one lease whatever the share would be.
	if l, err := c.Claim(big, "d"); err != nil || l.Shard != 12 {
		t.Fatalf("Claim: %+v %v, want shard 12", l, err)
	}
	// Expired leases hold nothing: once every lease expired, all 16 are
	// pending with the claimer the only holder, so the share is 8.
	clk.Advance(11e9)
	got, err := c.ClaimShare(big, "e")
	if err != nil || !slices.Equal(shards(got), []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("after expiry: %v %v, want shards 0-7", shards(got), err)
	}
	if st := c.StatsSnapshot(); st.LeasesGranted != 1+8+2+1+1+1+8 {
		t.Fatalf("leases_granted %d, want 22", st.LeasesGranted)
	}
}

// TestBatchMatchesSingles drives one history twice on durable
// coordinators under the same clock: once with share claims and batch
// completes, once with a Claim and a Complete per shard. Both journals
// must match byte for byte, so a batch writes exactly the records its
// shards would. Each batch adds one fsync where the singles add one per
// shard; the last batch finishes the job and adds the merge's.
func TestBatchMatchesSingles(t *testing.T) {
	clk := newFakeClock()
	batchDir, singleDir := t.TempDir(), t.TempDir()
	bc := openDurable(t, batchDir, clk, nil)
	sc := openDurable(t, singleDir, clk, nil)
	id, err := bc.Submit(testJob(8))
	if err != nil {
		t.Fatal(err)
	}
	if sid, err := sc.Submit(testJob(8)); err != nil || sid != id {
		t.Fatalf("Submit: %s %v", sid, err)
	}
	// claim takes a share on bc and as many single claims on sc.
	claim := func(worker string) []*Lease {
		t.Helper()
		share, err := bc.ClaimShare(id, worker)
		if err != nil {
			t.Fatalf("ClaimShare: %v", err)
		}
		for _, want := range share {
			l, err := sc.Claim(id, worker)
			if err != nil || *l != *want {
				t.Fatalf("single claim %+v %v, want %+v", l, err, want)
			}
		}
		return share
	}
	// complete delivers leases as one batch on bc and one by one on sc,
	// and returns the fsyncs each side added.
	complete := func(worker string, leases ...*Lease) (batch, single int64) {
		t.Helper()
		before := bc.StatsSnapshot().JournalSyncs
		errs, err := bc.CompleteShards(id, worker, results(t, leases...))
		if err != nil {
			t.Fatalf("CompleteShards: %v", err)
		}
		sBefore := sc.StatsSnapshot().JournalSyncs
		for i, l := range leases {
			if err := sc.Complete(id, l.Shard, l.Token, worker, cachedCells(t, l)); !errors.Is(err, errs[i]) {
				t.Fatalf("shard %d: single %v, batch %v", l.Shard, err, errs[i])
			}
		}
		return bc.StatsSnapshot().JournalSyncs - before, sc.StatsSnapshot().JournalSyncs - sBefore
	}

	a := claim("a") // 4 shards
	b := claim("b") // ⌊4/4⌋ = 1
	if len(a) != 4 || len(b) != 1 {
		t.Fatalf("shares %d and %d, want 4 and 1", len(a), len(b))
	}
	if bs, ss := complete("a", a...); bs != 1 || ss != 4 {
		t.Fatalf("4-shard batch: %d fsyncs, singles %d; want 1 and 4", bs, ss)
	}
	rest := claim("a")
	rest = append(rest, claim("a")...)
	rest = append(rest, claim("a")...)
	if len(rest) != 3 {
		t.Fatalf("%d leases left, want 3", len(rest))
	}
	// b's shard and a duplicate of a's first go in the last batch,
	// which finishes the job: the duplicate is journaled after the
	// merge, as the singles journal it.
	last := append(append(rest, b...), a[0])
	if bs, ss := complete("a", last...); bs != 2 || ss != 5 {
		t.Fatalf("finishing batch: %d fsyncs, singles %d; want 2 and 5", bs, ss)
	}
	for _, c := range []*Coordinator{bc, sc} {
		if _, err := c.Result(id); err != nil {
			t.Fatalf("Result: %v", err)
		}
	}
	bst, sst := bc.StatsSnapshot(), sc.StatsSnapshot()
	if bst.JournalAppends != sst.JournalAppends || bst.Duplicates != 1 || bst.ShardsCompleted != 8 {
		t.Fatalf("batch stats %+v, singles %+v", bst, sst)
	}
	read := func(dir string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, journalFileName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if bj, sj := read(batchDir), read(singleDir); !bytes.Equal(bj, sj) {
		t.Fatalf("batch journal differs from the singles' (%d vs %d bytes)", len(bj), len(sj))
	}
}

// faultyFile fails the journal's Writes, once okWrites more have
// succeeded, or its Syncs.
type faultyFile struct {
	walFile
	failWrite, failSync bool
	okWrites            int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.failWrite && f.okWrites == 0 {
		return 0, errors.New("injected write failure")
	}
	f.okWrites = max(0, f.okWrites-1)
	return f.walFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync failure")
	}
	return f.walFile.Sync()
}

// TestBatchJournalFailureAppliesNothing: when a batch's write or fsync
// fails, the whole batch is refused with ErrJournal and the shard table
// is exactly as before; the poisoned journal refuses what follows.
func TestBatchJournalFailureAppliesNothing(t *testing.T) {
	for _, fault := range []faultyFile{{failWrite: true}, {failSync: true}} {
		clk := newFakeClock()
		c := openDurable(t, t.TempDir(), clk, nil)
		id, err := c.Submit(testJob(4))
		if err != nil {
			t.Fatal(err)
		}
		leases, err := c.ClaimShare(id, "a")
		if err != nil || len(leases) != 2 {
			t.Fatalf("ClaimShare: %d leases, %v", len(leases), err)
		}
		before := captureState(t, c)
		f := fault
		f.walFile = c.jnl.f
		c.jnl.f = &f
		errs, err := c.CompleteShards(id, "a", results(t, leases...))
		if !errors.Is(err, ErrJournal) || errs != nil {
			t.Fatalf("%+v: CompleteShards = %v, %v; want ErrJournal", fault, errs, err)
		}
		if after := captureState(t, c); !bytes.Equal(before, after) {
			t.Fatalf("%+v: a refused batch changed the table\n--- before ---\n%s\n--- after ---\n%s", fault, before, after)
		}
		if _, err := c.ClaimShare(id, "a"); !errors.Is(err, ErrJournal) {
			t.Fatalf("%+v: claim after the failure: %v, want ErrJournal", fault, err)
		}
	}
}

// TestBatchTrailingDuplicatesBestEffort: a batch that finishes its job
// journals its duplicates after the last complete once the merge ran.
// When that append fails the batch still answers each item, since
// every complete in it was already durable and merged, and the
// duplicates are counted as a failed merge record is applied.
func TestBatchTrailingDuplicatesBestEffort(t *testing.T) {
	c := openDurable(t, t.TempDir(), newFakeClock(), nil)
	id, err := c.Submit(testJob(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(id, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Claim(id, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(id, a.Shard, a.Token, "a", cachedCells(t, a)); err != nil {
		t.Fatal(err)
	}
	// The batch's complete and the merge record land; the duplicates'
	// append fails.
	c.jnl.f = &faultyFile{walFile: c.jnl.f, failWrite: true, okWrites: 2}
	errs, err := c.CompleteShards(id, "a", results(t, b, a))
	if err != nil || errs[0] != nil || !errors.Is(errs[1], ErrDuplicate) {
		t.Fatalf("CompleteShards = %v, %v; want [nil ErrDuplicate], nil", errs, err)
	}
	if _, err := c.Result(id); err != nil {
		t.Fatalf("Result: %v", err)
	}
	if p, err := c.Progress(id); err != nil || p.Done != 2 || p.Duplicates != 1 {
		t.Fatalf("Progress: %+v, %v; want 2 done and 1 duplicate", p, err)
	}
	if _, err := c.Submit(testJob(1)); !errors.Is(err, ErrJournal) {
		t.Fatalf("Submit after the failed append: %v, want ErrJournal", err)
	}
}

// TestBatchBoundedByShards: a batch may carry at most one result per
// shard of its job. A larger one is refused whole before any result is
// checked or journaled; one at the bound made of duplicates, within
// the batch or of a done shard, answers each of them.
func TestBatchBoundedByShards(t *testing.T) {
	c := openDurable(t, t.TempDir(), newFakeClock(), nil)
	id, err := c.Submit(testJob(4))
	if err != nil {
		t.Fatal(err)
	}
	leases, err := c.ClaimShare(id, "a") // shards 0 and 1
	if err != nil || len(leases) != 2 {
		t.Fatalf("ClaimShare: %d leases, %v", len(leases), err)
	}
	before, appends := captureState(t, c), c.StatsSnapshot().JournalAppends
	over := results(t, leases[0], leases[0], leases[0], leases[0], leases[0])
	if errs, err := c.CompleteShards(id, "a", over); err == nil || errors.Is(err, ErrJournal) || errs != nil {
		t.Fatalf("5 results for 4 shards: %v, %v; want a refusal", errs, err)
	}
	if after := captureState(t, c); !bytes.Equal(before, after) || c.StatsSnapshot().JournalAppends != appends {
		t.Fatalf("an oversized batch changed the coordinator\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}

	errs, err := c.CompleteShards(id, "a", results(t, leases[0], leases[0], leases[0], leases[1]))
	if err != nil {
		t.Fatalf("CompleteShards: %v", err)
	}
	if errs[0] != nil || errs[3] != nil || !errors.Is(errs[1], ErrDuplicate) || !errors.Is(errs[2], ErrDuplicate) {
		t.Fatalf("outcomes %v, want [nil dup dup nil]", errs)
	}
	errs, err = c.CompleteShards(id, "a", results(t, leases[1], leases[1], leases[1], leases[1]))
	if err != nil || slices.ContainsFunc(errs, func(e error) bool { return !errors.Is(e, ErrDuplicate) }) {
		t.Fatalf("four duplicates of a done shard: %v, %v", errs, err)
	}
	if p, err := c.Progress(id); err != nil || p.Done != 2 || p.Duplicates != 6 {
		t.Fatalf("Progress: %+v, %v; want 2 done and 6 duplicates", p, err)
	}
}

// TestBatchMixedOutcomes: one batch holds a valid result, a stale
// token, a duplicate of a done shard, a malformed artifact, an index
// out of range and the valid result again. Each is answered on its own
// — the malformed item keeps its lease — and the valid one lands.
func TestBatchMixedOutcomes(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{DefaultLeaseTTL: 10e9, Now: clk.Now})
	id, err := c.Submit(testJob(8))
	if err != nil {
		t.Fatal(err)
	}
	leases, err := c.ClaimShare(id, "a") // shards 0-3
	if err != nil || len(leases) != 4 {
		t.Fatalf("ClaimShare: %d leases, %v", len(leases), err)
	}
	if err := c.Complete(id, leases[1].Shard, leases[1].Token, "a", cachedCells(t, leases[1])); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	valid := results(t, leases[0])[0]
	stale := results(t, leases[2])[0]
	stale.Token = "t999"
	dup := results(t, leases[1])[0]
	malformed := results(t, leases[3])[0]
	malformed.Cells = []byte("not an artifact")
	outOfRange := ShardResult{Shard: 99, Token: leases[0].Token, Cells: valid.Cells}
	errs, err := c.CompleteShards(id, "a", []ShardResult{valid, stale, dup, malformed, outOfRange, valid})
	if err != nil {
		t.Fatalf("CompleteShards: %v", err)
	}
	want := []error{nil, ErrLeaseLost, ErrDuplicate, nil, ErrLeaseLost, ErrDuplicate}
	for i, w := range want {
		if i == 3 {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "shard 3 cells") {
				t.Fatalf("malformed item: %v", errs[i])
			}
			continue
		}
		if !errors.Is(errs[i], w) || (w == nil) != (errs[i] == nil) {
			t.Fatalf("item %d: %v, want %v", i, errs[i], w)
		}
	}
	p, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Done != 2 || p.Duplicates != 2 || p.Shards[0].State != shardDone ||
		p.Shards[2].State != shardLeased || p.Shards[3].State != shardLeased {
		t.Fatalf("progress after the batch: %+v", p)
	}
}
