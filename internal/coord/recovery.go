package coord

// Recovery: Open replays snapshot + journal back into the exact shard
// table the previous process had, then serves as if the restart never
// happened. The equivalence argument, piece by piece:
//
//   - applyRecord is the only function that changes the shard table.
//     Every live operation validates its input, builds its records,
//     journals them and applies them through commit, under one mutex
//     hold; replay applies the same records through the same function,
//     so the journal is a serialization of the live history and
//     replaying it cannot take a different transition. (Lazy lease
//     expiry is the one state change outside it; see below.) A batch
//     complete or a share claim writes the records its shards would
//     write one by one, so a crash inside a batch recovers the state
//     the same shards reach one request at a time.
//   - Lease deadlines are journaled, and held live, as absolute Unix
//     nanoseconds compared against the wall clock. Recovery does not
//     expire anything itself: a lease whose deadline passed while the
//     coordinator was down is restored as leased and expires lazily on
//     the next Claim/Progress — the same code path, the same observable
//     effect, as a lease that expired with the coordinator up. Stale
//     Renew/Complete calls therefore keep mapping to ErrLeaseLost
//     (409), never to a 500.
//   - Lease expiry itself is never journaled: a claim record over a
//     shard the replay still sees as leased *is* the expiry, and replay
//     counts the release exactly where the live path did.
//   - Tokens are journaled verbatim, and fresh tokens carry the state
//     dir's open count (epoch), so a token issued by a crashed
//     incarnation can never collide with one issued after recovery even
//     if unsynced claim records were lost to a machine crash.
//   - A crash after the last Complete but before its merge record is
//     repaired at open by the same merge the live Complete runs: shard
//     cells are durable and the merge is a pure function of them
//     (byte-identical by the MergeFigure contract).
//
// Sharing the transition means restart equivalence no longer checks
// that a transition is right; the scripted-history test in
// coord_test.go pins every counter for that. The restart-equivalence
// property test (recovery_test.go) checks the rest mechanically at
// every journal prefix.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Open returns a Coordinator, recovering any durable state when
// cfg.StateDir is set (the directory is created if missing). With an
// empty StateDir the coordinator is purely in-memory and Open never
// fails; New is the must-succeed wrapper for that case.
func Open(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, jobs: make(map[string]*job), byKey: make(map[string]string)}
	if cfg.StateDir == "" {
		return c, nil
	}
	if err := c.recover(); err != nil {
		return nil, fmt.Errorf("coord: opening state dir %s: %w", cfg.StateDir, err)
	}
	return c, nil
}

// recover loads the snapshot, replays the journal tail, repairs any
// missing merge, and marks the new epoch. It runs before the
// Coordinator is published but holds mu anyway: the repair merge drops
// and retakes it.
func (c *Coordinator) recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := c.cfg.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var snapLSN uint64
	snap, err := readSnapshot(dir)
	if err != nil {
		return err
	}
	if snap != nil {
		c.restoreSnapshot(snap)
		snapLSN = snap.LSN
	}

	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return err
	}
	recs, valid := decodeJournal(data)
	if valid < len(data) {
		// Torn or corrupt tail: truncate to the last valid record. The
		// dropped bytes were never acknowledged as durable (they lost a
		// race with a crash), so no committed state disappears.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return err
		}
		c.stats.JournalTruncated += int64(len(data) - valid)
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return err
	}

	lsn := snapLSN
	for i := range recs {
		r := &recs[i]
		if r.LSN <= snapLSN {
			continue // the snapshot already absorbed this record
		}
		c.applyRecord(r)
		lsn = r.LSN
		c.stats.JournalReplayed++
	}
	c.jnl = &journal{dir: dir, f: f, lsn: lsn, lastSync: c.cfg.Now()}

	// Crash between the last Complete and its merge record: cells are
	// durable and the merge is deterministic, so finish it now.
	for _, id := range c.order {
		if j := c.jobs[id]; j.Done == len(j.Shards) && !j.finished() {
			c.merge(j)
		}
	}

	for _, id := range c.order {
		j := c.jobs[id]
		if !j.finished() {
			c.stats.JobsRecovered++
		}
		c.stats.ShardsRecovered += j.Done
	}

	// Mark the open. The epoch bump namespaces every future lease token
	// away from any token the dead incarnation handed out.
	if err := c.commit(record{Type: recOpen, Epoch: c.epoch + 1}); err != nil {
		f.Close()
		return err
	}
	return nil
}

// commit journals recs with one write and at most one fsync, and only
// then applies them: the one way a live operation changes coordinator
// state. Called under mu. A failed write or fsync refuses the whole
// operation before anything changes (ErrJournal), so the on-disk
// history never diverges from what clients observed, and no request
// can observe a record that is not yet as durable as its policy says.
func (c *Coordinator) commit(recs ...record) error {
	if err := c.logRecords(recs); err != nil {
		return err
	}
	for i := range recs {
		c.applyRecord(&recs[i])
	}
	c.maybeSnapshotLocked()
	return nil
}

// applyRecord folds one record into the coordinator state — the only
// function that does, for live operations (through commit) and replay
// alike. Records that no longer make sense (unknown job, out-of-range
// shard, completing a done shard) are skipped rather than trusted: the
// WAL fuzz target guarantees replay only sees checksummed records, but
// one bad record must still not corrupt the table.
func (c *Coordinator) applyRecord(r *record) {
	c.seq = max(c.seq, r.Seq)
	j := c.jobs[r.Job]
	var s *shard
	if j != nil && r.Shard >= 0 && r.Shard < len(j.Shards) {
		s = &j.Shards[r.Shard]
	}
	switch r.Type {
	case recOpen:
		c.epoch = max(c.epoch, r.Epoch)
	case recSubmit:
		if j != nil || r.Spec == nil || r.Job == "" {
			return
		}
		c.evict(r.Evict)
		j = &job{ID: r.Job, Spec: *r.Spec, Shards: make([]shard, r.Spec.Shards)}
		for i := range j.Shards {
			j.Shards[i].State = shardPending
		}
		c.addJob(j)
		c.stats.JobsSubmitted++
		c.signalWork()
	case recClaim:
		if s == nil || s.State == shardDone {
			return
		}
		if s.State == shardLeased {
			// The live path expired this lease (lazily) before re-leasing;
			// the re-claim is where replay observes and counts it.
			j.Releases++
			c.stats.Releases++
		}
		s.State = shardLeased
		s.Token = r.Token
		s.Worker = r.Worker
		s.Deadline = r.Deadline
		s.Leases++
		c.stats.LeasesGranted++
	case recRenew:
		if s == nil || s.State != shardLeased || s.Token != r.Token {
			return
		}
		s.Deadline = r.Deadline
		s.Renewals++
		c.stats.Renewals++
	case recComplete:
		if s == nil || s.State == shardDone {
			return
		}
		s.State = shardDone
		s.Token = ""
		s.Cells = r.Cells
		s.decoded = r.decoded
		s.DoneBy = r.Worker
		j.Done++
		c.stats.ShardsCompleted++
	case recDuplicate:
		if s == nil {
			return
		}
		j.Duplicates++
		c.stats.Duplicates++
	case recMerge:
		if j == nil || j.finished() {
			return
		}
		j.MergeNS = r.MergeNS
		releaseCells(j)
		c.signalWork()
		if r.Failed != "" {
			j.Failed = r.Failed
			c.stats.JobsFailed++
			return
		}
		j.Dat = r.Dat
		j.Merged = true
		c.stats.JobsDone++
		c.stats.Merges++
		ms := time.Duration(r.MergeNS).Seconds() * 1e3
		c.stats.LastMergeMS = ms
		c.stats.MaxMergeMS = max(c.stats.MaxMergeMS, ms)
	}
}

// addJob registers a job: a fresh one from its submit record, or one
// restored from a snapshot.
func (c *Coordinator) addJob(j *job) {
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	if j.Spec.JobKey != "" {
		c.byKey[j.Spec.JobKey] = j.ID
	}
}

// evict forgets a finished job, its id and its job key, to make room
// under MaxJobs. An unknown or unfinished job is left alone.
func (c *Coordinator) evict(id string) {
	j := c.jobs[id]
	if j == nil || !j.finished() {
		return
	}
	delete(c.jobs, id)
	c.order = slices.DeleteFunc(c.order, func(o string) bool { return o == id })
	if c.byKey[j.Spec.JobKey] == id {
		delete(c.byKey, j.Spec.JobKey)
	}
}

// releaseCells drops a finished job's shard cells, raw and decoded:
// the merged result, or its failure, supersedes them. Memory and
// snapshots then grow with unfinished jobs' cells only.
func releaseCells(j *job) {
	for i := range j.Shards {
		j.Shards[i].Cells = nil
		j.Shards[i].decoded = nil
	}
}

// restoreSnapshot rebuilds the coordinator from a snapshot document.
// A shard state this build does not know restores as pending. A
// finished job's cells, which older snapshots still carry, are
// dropped.
func (c *Coordinator) restoreSnapshot(doc *snapshotDoc) {
	c.seq = doc.Seq
	c.epoch = doc.Epoch
	c.stats = doc.Stats
	for i := range doc.Jobs {
		j := &doc.Jobs[i]
		for k := range j.Shards {
			if s := &j.Shards[k]; s.State != shardLeased && s.State != shardDone {
				s.State = shardPending
			}
		}
		if j.finished() {
			releaseCells(j)
		}
		c.addJob(j)
	}
}

// snapshotDocLocked serializes the full coordinator state. Called
// under mu. Process-local persistence counters are zeroed in the doc:
// they describe this incarnation, not the durable history.
func (c *Coordinator) snapshotDocLocked() *snapshotDoc {
	doc := &snapshotDoc{
		Version: snapshotVersion,
		Epoch:   c.epoch,
		Seq:     c.seq,
		Stats:   c.stats.durable(),
	}
	if c.jnl != nil {
		doc.LSN = c.jnl.lsn
	}
	for _, id := range c.order {
		js := *c.jobs[id]
		js.Shards = slices.Clone(js.Shards)
		doc.Jobs = append(doc.Jobs, js)
	}
	return doc
}

// snapshotLocked writes a snapshot and truncates the journal it
// absorbs. Called under mu.
func (c *Coordinator) snapshotLocked() error {
	if c.jnl == nil || c.jnl.closed {
		return nil
	}
	// The snapshot must cover everything the journal holds, including
	// batched appends that have not hit the disk yet — sync first so a
	// crash right after the truncate cannot lose them.
	if err := c.jnl.sync(c.cfg.Now()); err != nil {
		return err
	}
	if err := writeSnapshot(c.jnl.dir, c.snapshotDocLocked()); err != nil {
		return err
	}
	if err := c.jnl.reset(); err != nil {
		return err
	}
	c.stats.Snapshots++
	return nil
}

// maybeSnapshotLocked snapshots when enough journal appends piled up
// since the last one. Failures are ignored: the journal remains the
// authority and simply keeps growing until a snapshot succeeds.
func (c *Coordinator) maybeSnapshotLocked() {
	if c.jnl == nil || c.jnl.closed || c.jnl.appends < c.cfg.SnapshotEvery {
		return
	}
	_ = c.snapshotLocked()
}

// Close flushes and seals the coordinator's durable state: batched
// journal appends are fsynced and a final snapshot is written, so the
// next Open recovers from the snapshot alone. In-memory coordinators
// Close as a no-op. Safe to call more than once; operations arriving
// after Close fail with ErrJournal.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jnl == nil || c.jnl.closed {
		return nil
	}
	err := c.snapshotLocked()
	if err != nil {
		// Snapshot failed; the synced journal (if the sync half worked)
		// still recovers everything.
		_ = c.jnl.sync(c.cfg.Now())
	}
	if cerr := c.jnl.f.Close(); err == nil {
		err = cerr
	}
	c.jnl.closed = true
	return err
}

// logRecords appends recs to the journal; a no-op for in-memory
// coordinators. Called under mu. Errors wrap ErrJournal (the HTTP
// layer maps it to 500): the mutation the records describe must not
// proceed, or replay would diverge from the history a client observed.
func (c *Coordinator) logRecords(recs []record) error {
	if c.jnl == nil {
		return nil
	}
	n, synced, err := c.jnl.append(recs, c.cfg.Now())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	c.stats.JournalAppends += int64(len(recs))
	c.stats.JournalBytes += int64(n)
	if synced {
		c.stats.JournalSyncs++
	}
	return nil
}
