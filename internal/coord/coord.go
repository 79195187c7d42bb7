// Package coord is the fault-tolerant distributed sweep coordinator:
// it decomposes a figure-sized Grid run into shard work units, hands
// them to workers as leases with deadlines, re-leases shards whose
// lease expired (worker died, or a straggler that stopped renewing),
// deduplicates double-completions by accepting the first result per
// shard, and folds the completed shard cells into the figure with the
// byte-identical experiments.MergeFigure reduction.
//
// Fault tolerance is nearly free because every shard is idempotent:
// per-cell seeds are pure functions of grid coordinates (rng.SeedFor),
// so any two workers computing the same shard produce cell-for-cell
// identical results and the coordinator may accept whichever lands
// first — a late straggler's duplicate is simply discarded. The state
// machine per shard is
//
//	pending ──Claim──► leased ──Complete──► done
//	   ▲                  │
//	   └──deadline passed─┘   (re-lease; Releases counter)
//
// Workers take shards in fair-share batches: a worker's first claim is
// one lease, and each complete delivers the cells of every lease it
// holds on one job and claims a fair share of a job's pending shards,
// ⌊pending / (2·holders)⌋ (guided self-scheduling), in the same round
// trip. A batch journals the records its shards would journal one at a
// time, with one fsync, so a job costs a few round trips and fsyncs
// instead of one per shard.
//
// The Coordinator is purely reactive bookkeeping: it owns no
// goroutines and no timers (lease expiry is evaluated lazily on every
// claim/progress/renew), so a server embedding one has nothing extra
// to drain on shutdown. A claimer that wants to wait for work, or a
// client waiting for a result, parks on WorkChanged in its own
// goroutine. internal/serve mounts the coordinator under POST
// /v1/sweep and friends; Client and RunWorker are the matching worker
// side.
package coord

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Sentinel errors the HTTP layer maps onto status codes (and Client
// maps back); test with errors.Is.
var (
	// ErrUnknownJob: the job id was never submitted (404).
	ErrUnknownJob = errors.New("coord: unknown job")
	// ErrNoWork: no shard is currently claimable — all leased or done;
	// poll again later (204).
	ErrNoWork = errors.New("coord: no work available")
	// ErrJobDone: the job has finished; per-job workers should exit (410).
	ErrJobDone = errors.New("coord: job is done")
	// ErrLeaseLost: the lease token is not the shard's current lease —
	// it expired and was re-issued, or the shard completed (409).
	ErrLeaseLost = errors.New("coord: lease lost")
	// ErrNotDone: the merged result was requested before every shard
	// landed (409).
	ErrNotDone = errors.New("coord: job not done yet")
	// ErrDuplicate wraps a completion for a shard that already has a
	// result; the coordinator keeps the first and discards this one (200,
	// flagged). Harmless by the determinism contract.
	ErrDuplicate = errors.New("coord: shard already completed")
	// ErrTooManyJobs: every retained job is still running and the
	// bound is hit (429).
	ErrTooManyJobs = errors.New("coord: too many live jobs")
	// ErrJournal wraps a failed journal append on a durable coordinator
	// (500): the operation was refused so the on-disk history never
	// diverges from what clients observed.
	ErrJournal = errors.New("coord: journal append failed")
)

// Config tunes a Coordinator. The zero value is serviceable: 30s
// leases capped at 5m, at most 256 shards per job and 64 retained jobs.
type Config struct {
	// DefaultLeaseTTL applies when a job's spec carries no lease_ttl_ms.
	// Submit rounds a job's TTL up to whole milliseconds.
	DefaultLeaseTTL time.Duration
	// MaxLeaseTTL caps client-requested lease TTLs.
	MaxLeaseTTL time.Duration
	// MaxShards bounds a job's shard count.
	MaxShards int
	// MaxJobs bounds jobs retained in memory (running and finished).
	// At the bound, Submit evicts the oldest finished job; when every
	// retained job is running it refuses with ErrTooManyJobs.
	MaxJobs int
	// Now overrides the clock; nil means time.Now. Tests drive lease
	// expiry deterministically through it.
	Now func() time.Time

	// StateDir, when non-empty, makes job state durable: every
	// submit/claim/renew/complete appends to an append-only journal
	// there, the shard table is snapshotted periodically, and Open
	// replays both back into an identical coordinator after a crash or
	// restart (see journal.go and recovery.go). Empty keeps the
	// coordinator purely in-memory. Durable coordinators must be
	// created with Open, not New.
	StateDir string
	// SnapshotEvery is the number of journal appends between shard-table
	// snapshots (journal truncation points); <= 0 means 256.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.DefaultLeaseTTL <= 0 {
		c.DefaultLeaseTTL = 30 * time.Second
	}
	if c.MaxLeaseTTL <= 0 {
		c.MaxLeaseTTL = 5 * time.Minute
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Shard states of the lease state machine.
const (
	shardPending = "pending"
	shardLeased  = "leased"
	shardDone    = "done"
)

func (j *job) finished() bool { return j.Merged || j.Failed != "" }

func (j *job) ttl() time.Duration { return time.Duration(j.Spec.LeaseTTLMS) * time.Millisecond }

func (j *job) config() experiments.Config {
	return experiments.Config{Seeds: j.Spec.Seeds, BaseSeed: j.Spec.BaseSeed}
}

// Coordinator schedules sweep jobs over leases. Safe for concurrent
// use; create with New (in-memory) or Open (durable).
type Coordinator struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*job
	order []string          // submission order, for any-job claims
	seq   int               // job-id and lease-token counter
	byKey map[string]string // client job key -> job id (idempotent Submit)

	// Durable-state machinery (nil journal = in-memory coordinator).
	// epoch counts Opens of the state dir; it namespaces lease tokens
	// so a recovered coordinator can never re-issue a dead
	// incarnation's token.
	jnl   *journal
	epoch int

	// wake is closed, and cleared, whenever a job is submitted or
	// finishes: the moments a claim that found no work may find some.
	// Nil until WorkChanged asks for it.
	wake chan struct{}

	// lifetime counters (mu-guarded; see StatsSnapshot)
	stats SweepStats
}

// New returns an empty in-memory Coordinator. It panics when cfg
// names a StateDir whose recovery fails — durable coordinators should
// use Open and handle the error.
func New(cfg Config) *Coordinator {
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// maxJobKeyLen bounds client-supplied idempotency keys.
const maxJobKeyLen = 200

// Submit validates and registers a sweep job, returning its id. Shard
// decomposition is immediate: the job's shards are claimable as soon
// as Submit returns.
//
// At the MaxJobs bound, Submit makes room by evicting the oldest
// finished job: its id, result and job key are forgotten.
//
// Submit is idempotent over spec.JobKey: a second submission carrying
// a known key returns the existing job's id without creating
// anything, which makes client retries safe even when a previous
// attempt committed but the response was lost (a dying primary, a
// failover rotation). Client.Submit always attaches a key.
func (c *Coordinator) Submit(spec SweepJob) (string, error) {
	if err := validFigure(spec.Figure); err != nil {
		return "", err
	}
	if spec.Seeds < 0 {
		return "", fmt.Errorf("coord: seeds must be >= 0 (0 means the default 10), got %d", spec.Seeds)
	}
	if spec.Seeds == 0 {
		spec.Seeds = 10 // the experiments.Config default, pinned here so leases are explicit
	}
	if spec.Shards < 1 || spec.Shards > c.cfg.MaxShards {
		return "", fmt.Errorf("coord: shards must be in [1, %d], got %d", c.cfg.MaxShards, spec.Shards)
	}
	if len(spec.JobKey) > maxJobKeyLen {
		return "", fmt.Errorf("coord: job_key longer than %d bytes", maxJobKeyLen)
	}
	ttl := c.cfg.DefaultLeaseTTL
	if spec.LeaseTTLMS > 0 {
		ttl = c.cfg.MaxLeaseTTL
		if spec.LeaseTTLMS < ttl.Milliseconds() {
			ttl = time.Duration(spec.LeaseTTLMS) * time.Millisecond
		}
	}
	// Leases travel and are journaled in whole milliseconds. Rounding up
	// keeps a sub-millisecond TTL from collapsing to 0: a zero heartbeat
	// period for workers, and leases that expire at once after a restart.
	spec.LeaseTTLMS = int64((ttl + time.Millisecond - 1) / time.Millisecond)

	c.mu.Lock()
	defer c.mu.Unlock()
	if spec.JobKey != "" {
		if id, ok := c.byKey[spec.JobKey]; ok {
			c.stats.SubmitsDeduped++
			return id, nil
		}
	}
	evict := ""
	if len(c.jobs) >= c.cfg.MaxJobs {
		i := slices.IndexFunc(c.order, func(id string) bool { return c.jobs[id].finished() })
		if i < 0 {
			return "", ErrTooManyJobs
		}
		evict = c.order[i]
	}
	seq := c.seq + 1
	id := fmt.Sprintf("j%d", seq)
	if err := c.commit(record{Type: recSubmit, Job: id, Spec: &spec, Seq: seq, Evict: evict}); err != nil {
		return "", err
	}
	return id, nil
}

// validFigure rejects unknown figure ids before any worker burns a
// lease on them.
func validFigure(id string) error {
	for _, known := range experiments.FigureIDs() {
		if id == known {
			return nil
		}
	}
	return fmt.Errorf("coord: unknown figure %q (have %v)", id, experiments.FigureIDs())
}

// expireLeases returns every over-deadline lease of j to the pending
// pool. Called under mu with the current time; lazy expiry instead of
// timers keeps the Coordinator goroutine-free.
func (c *Coordinator) expireLeases(j *job, now time.Time) {
	for i := range j.Shards {
		s := &j.Shards[i]
		if s.State == shardLeased && now.UnixNano() > s.Deadline {
			s.State = shardPending
			s.Token = ""
			j.Releases++
			c.stats.Releases++
		}
	}
}

// shardAt resolves a shard index of j: ErrLeaseLost for an index no
// lease can name.
func (j *job) shardAt(idx int) (*shard, error) {
	if idx < 0 || idx >= len(j.Shards) {
		return nil, fmt.Errorf("coord: shard %d out of range [0, %d): %w", idx, len(j.Shards), ErrLeaseLost)
	}
	return &j.Shards[idx], nil
}

// Claim leases the lowest pending shard of jobID — or, with jobID
// empty, of the oldest unfinished job — to worker. The lease must be
// completed or renewed before its deadline or the shard is re-leased.
// Returns ErrNoWork when every shard is leased or done but the job is
// unfinished, and ErrJobDone when a specifically named job finished.
func (c *Coordinator) Claim(jobID, worker string) (*Lease, error) {
	leases, err := c.claim(jobID, worker, false)
	if err != nil {
		return nil, err
	}
	return leases[0], nil
}

// ClaimShare is Claim for a fair share of one job: the lowest
// ⌊pending / (2·holders)⌋ pending shards, at least one, where holders
// counts the distinct workers holding a lease on that job, the
// claimer included. The share shrinks as the job drains, so its tail
// still spreads over every worker (guided self-scheduling). Each
// lease is journaled as the claim record Claim would write for it.
func (c *Coordinator) ClaimShare(jobID, worker string) ([]*Lease, error) {
	return c.claim(jobID, worker, true)
}

// claim is the one claim path: one lease, or with share a fair share
// of the first job that has a pending shard.
func (c *Coordinator) claim(jobID, worker string, share bool) ([]*Lease, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	var candidates []string
	if jobID != "" {
		if _, ok := c.jobs[jobID]; !ok {
			return nil, ErrUnknownJob
		}
		candidates = []string{jobID}
	} else {
		candidates = c.order
	}
	sawRunning := false
	for _, id := range candidates {
		j := c.jobs[id]
		if j.finished() {
			continue
		}
		sawRunning = true
		c.expireLeases(j, now)
		n := 1
		if share {
			n = j.share(worker)
		}
		recs := make([]record, 0, n)
		for i := 0; i < len(j.Shards) && len(recs) < n; i++ {
			if j.Shards[i].State != shardPending {
				continue
			}
			seq := c.seq + len(recs) + 1
			recs = append(recs, record{
				Type: recClaim, Job: j.ID, Shard: i, Seq: seq,
				Token: c.leaseToken(seq), Worker: worker, Deadline: now.Add(j.ttl()).UnixNano(),
			})
		}
		if len(recs) == 0 {
			continue
		}
		if err := c.commit(recs...); err != nil {
			return nil, err
		}
		leases := make([]*Lease, len(recs))
		for i, r := range recs {
			leases[i] = &Lease{
				Job:      j.ID,
				Figure:   j.Spec.Figure,
				Seeds:    j.Spec.Seeds,
				BaseSeed: j.Spec.BaseSeed,
				Shard:    r.Shard,
				Shards:   len(j.Shards),
				Token:    r.Token,
				TTLMS:    j.Spec.LeaseTTLMS,
			}
		}
		return leases, nil
	}
	if jobID != "" && !sawRunning {
		return nil, ErrJobDone
	}
	return nil, ErrNoWork
}

// share is the number of shards a share claim by worker takes of j:
// ⌊pending / (2·holders)⌋, at least one. Called under mu after
// expireLeases, so an expired lease holds nothing.
func (j *job) share(worker string) int {
	pending := 0
	holders := []string{worker}
	for i := range j.Shards {
		switch s := &j.Shards[i]; s.State {
		case shardPending:
			pending++
		case shardLeased:
			if !slices.Contains(holders, s.Worker) {
				holders = append(holders, s.Worker)
			}
		}
	}
	return max(1, pending/(2*len(holders)))
}

// WorkChanged returns a channel that is closed the next time a job is
// submitted or finishes. A claimer that got ErrNoWork, or a result
// request that got ErrNotDone, can wait on it and ask again; taking the
// channel before asking means no wake-up falls between the two. The
// coordinator itself still never blocks: the waiting, and its timeout,
// belong to the caller.
func (c *Coordinator) WorkChanged() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	return c.wake
}

// signalWork wakes every WorkChanged waiter. Called under mu.
func (c *Coordinator) signalWork() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// leaseToken formats the token for the lease consuming counter value
// seq. Durable coordinators qualify tokens with the state dir's open
// count: even if a machine crash lost unsynced claim records (so the
// counter floor regressed), a recovered coordinator can never re-issue
// a token the dead incarnation handed out.
func (c *Coordinator) leaseToken(seq int) string {
	if c.epoch > 0 {
		return fmt.Sprintf("t%d.%d", c.epoch, seq)
	}
	return fmt.Sprintf("t%d", seq)
}

// Renew extends the lease identified by (jobID, shardIdx, token) by a
// full TTL from now and returns the remaining TTL in milliseconds. A
// lease that expired but was not yet re-issued is revived — the worker
// is provably still alive, and reviving beats a wasted recompute.
func (c *Coordinator) Renew(jobID string, shardIdx int, token string) (int64, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return 0, ErrUnknownJob
	}
	s, err := j.shardAt(shardIdx)
	if err != nil {
		return 0, err
	}
	if s.State != shardLeased || s.Token != token {
		return 0, ErrLeaseLost
	}
	if err := c.commit(record{
		Type: recRenew, Job: j.ID, Shard: shardIdx, Token: token, Deadline: now.Add(j.ttl()).UnixNano(),
	}); err != nil {
		return 0, err
	}
	return j.Spec.LeaseTTLMS, nil
}

// ShardResult is one shard's encoded cells, delivered under its lease
// token.
type ShardResult struct {
	Shard int
	Token string
	Cells []byte
}

// Complete records one shard's encoded cells. The first result per
// shard wins; a duplicate (the shard was re-leased and someone else
// finished first — or finished twice) returns ErrDuplicate and is
// discarded, which is sound because shard results are deterministic
// functions of their coordinates. The token must be the shard's
// current lease: a worker whose lease expired unclaimed may still
// land its result (lazy expiry keeps the token current until someone
// else claims), but once re-leased only the new lessee or the final
// state matters. When the last shard lands the merge runs inline and
// the job transitions to done before Complete returns.
func (c *Coordinator) Complete(jobID string, shardIdx int, token, worker string, cells []byte) error {
	errs, err := c.CompleteShards(jobID, worker, []ShardResult{{Shard: shardIdx, Token: token, Cells: cells}})
	if err != nil {
		return err
	}
	return errs[0]
}

// CompleteShards is the one complete path: it records several shards
// of one job at once, each exactly as Complete would. errs holds each
// result's own outcome — nil, ErrDuplicate, ErrLeaseLost or a cells
// error — and a refused result does not refuse the others. The
// records are those the results would write one Complete at a time,
// in the same order; they are written with one fsync and applied only
// after it. err refuses the whole batch, with nothing changed: an
// unknown job, more results than the job has shards, or ErrJournal
// when the write or fsync failed. The one exception is a batch that
// finishes the job: its duplicates after the last complete are
// journaled after the merge, where single completes would put them,
// and like the merge record they are best effort.
func (c *Coordinator) CompleteShards(jobID, worker string, results []ShardResult) (errs []error, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, ErrUnknownJob
	}
	if len(results) > len(j.Shards) {
		return nil, fmt.Errorf("coord: %d results for a job of %d shards", len(results), len(j.Shards))
	}
	errs = make([]error, len(results))
	recs := make([]record, 0, len(results))
	completed := make([]bool, len(j.Shards)) // shards this batch completes
	accepted, last := 0, -1                  // complete records, and the index of the last
	for i, res := range results {
		s, err := j.shardAt(res.Shard)
		if err != nil {
			errs[i] = err
			continue
		}
		if s.State == shardDone || completed[res.Shard] {
			recs = append(recs, record{Type: recDuplicate, Job: j.ID, Shard: res.Shard})
			errs[i] = ErrDuplicate
			continue
		}
		if s.State != shardLeased || s.Token != res.Token {
			errs[i] = ErrLeaseLost
			continue
		}
		// Check before accepting so a malformed or mismatched artifact
		// fails the completing worker and leaves the lease in place,
		// instead of failing the eventual merge for good.
		sc, err := experiments.DecodeShardCells(bytes.NewReader(res.Cells))
		if err == nil {
			err = sc.Check(j.Spec.Figure, j.config(), experiments.Shard{Index: res.Shard, Count: len(j.Shards)})
		}
		if err != nil {
			errs[i] = fmt.Errorf("coord: shard %d cells: %w", res.Shard, err)
			continue
		}
		recs = append(recs, record{Type: recComplete, Job: j.ID, Shard: res.Shard, Worker: worker, Cells: res.Cells, decoded: sc})
		completed[res.Shard] = true
		accepted, last = accepted+1, len(recs)-1
	}
	if accepted == 0 || j.Done+accepted < len(j.Shards) {
		if len(recs) > 0 {
			if err := c.commit(recs...); err != nil {
				return nil, err
			}
		}
		return errs, nil
	}
	// This batch lands the last shard: merge inline on this caller's
	// goroutine. No other complete can race in — every shard is done,
	// so concurrent completions are duplicates. The duplicates after
	// the last complete only bump counters, so a failed append of
	// theirs, like the merge record's, applies them unjournaled.
	if err := c.commit(recs[:last+1]...); err != nil {
		return nil, err
	}
	c.merge(j)
	if dups := recs[last+1:]; len(dups) > 0 && c.commit(dups...) != nil {
		for i := range dups {
			c.applyRecord(&dups[i])
		}
	}
	return errs, nil
}

// merge folds the cells of a job whose every shard is done and commits
// the outcome. Called under mu, which it drops while folding so
// progress polls stay responsive.
func (c *Coordinator) merge(j *job) {
	decoded := make([]*experiments.ShardCells, len(j.Shards))
	raw := make([][]byte, len(j.Shards))
	for i := range j.Shards {
		decoded[i], raw[i] = j.Shards[i].decoded, j.Shards[i].Cells
	}
	c.mu.Unlock()
	start := c.cfg.Now()
	dat, err := mergeParts(j, decoded, raw)
	r := record{Type: recMerge, Job: j.ID, Dat: dat, MergeNS: int64(c.cfg.Now().Sub(start))}
	if err != nil {
		r.Failed = err.Error()
	}
	c.mu.Lock()
	// The merge record is best-effort: every complete is already
	// durable and the merge is a pure function of them, so a lost
	// append merely means the next Open re-merges.
	if c.commit(r) != nil {
		c.applyRecord(&r)
	}
}

// mergeParts folds every shard's cells into the figure's .dat bytes —
// byte-identical to an unsharded BuildFigure run by the MergeFigure
// contract. decoded holds the cells each complete already decoded; a
// shard without them (restored by recovery) is decoded from raw.
func mergeParts(j *job, decoded []*experiments.ShardCells, raw [][]byte) ([]byte, error) {
	for i, sc := range decoded {
		if sc != nil {
			continue
		}
		sc, err := experiments.DecodeShardCells(bytes.NewReader(raw[i]))
		if err != nil {
			return nil, fmt.Errorf("re-decoding shard %d: %w", i, err)
		}
		decoded[i] = sc
	}
	fig, err := experiments.MergeFigure(j.Spec.Figure, j.config(), decoded)
	if err != nil {
		return nil, err
	}
	return []byte(fig.Dat()), nil
}

// Progress snapshots a job: per-shard lease state and counters, plus
// the job-level re-lease/duplicate totals. Expired leases are folded
// back to pending first, so the snapshot never shows a dead lease as
// live.
func (c *Coordinator) Progress(jobID string) (*Progress, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, ErrUnknownJob
	}
	if !j.finished() {
		c.expireLeases(j, now)
	}
	p := &Progress{
		ID:         j.ID,
		Figure:     j.Spec.Figure,
		Seeds:      j.Spec.Seeds,
		BaseSeed:   j.Spec.BaseSeed,
		State:      "running",
		Done:       j.Done,
		Total:      len(j.Shards),
		Releases:   j.Releases,
		Duplicates: j.Duplicates,
		Error:      j.Failed,
	}
	if j.Merged {
		p.State = "done"
		p.MergeMS = time.Duration(j.MergeNS).Seconds() * 1e3
	} else if j.Failed != "" {
		p.State = "failed"
	}
	for i := range j.Shards {
		s := &j.Shards[i]
		p.Shards = append(p.Shards, ShardProgress{
			Shard:    i,
			State:    s.State,
			Worker:   s.Worker,
			Leases:   s.Leases,
			Renewals: s.Renewals,
			DoneBy:   s.DoneBy,
		})
	}
	return p, nil
}

// Result returns the merged figure's .dat bytes once every shard
// landed; ErrNotDone before that, or the recorded merge failure.
func (c *Coordinator) Result(jobID string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.Failed != "" {
		return nil, fmt.Errorf("coord: job %s failed: %s", jobID, j.Failed)
	}
	if !j.Merged {
		return nil, ErrNotDone
	}
	return j.Dat, nil
}

// SweepStats are the coordinator's lifetime counters, exposed on the
// daemon's /statsz. The scheduling counters (jobs, leases, merges) are
// durable: a recovered coordinator restores them from its snapshot and
// journal. The persistence counters below the marker describe this
// process incarnation only — recovery resets them.
type SweepStats struct {
	JobsSubmitted   int     `json:"jobs_submitted"`
	JobsActive      int     `json:"jobs_active"`
	JobsDone        int     `json:"jobs_done"`
	JobsFailed      int     `json:"jobs_failed"`
	LeasesGranted   int     `json:"leases_granted"`
	Renewals        int     `json:"renewals"`
	Releases        int     `json:"releases"` // expired leases re-offered (stragglers, dead workers)
	ShardsCompleted int     `json:"shards_completed"`
	Duplicates      int     `json:"duplicate_completions"`
	Merges          int     `json:"merges"`
	LastMergeMS     float64 `json:"last_merge_ms"`
	MaxMergeMS      float64 `json:"max_merge_ms"`

	// Process-local counters: not restored by recovery. SubmitsDeduped
	// hits append no journal record (dedup changes no state; the byKey
	// table itself is durable, so dedup keeps working after a restart).
	SubmitsDeduped int `json:"submits_deduped"`

	// Persistence counters (durable coordinators only; process-lifetime).
	JobsRecovered    int   `json:"jobs_recovered"`           // unfinished jobs restored at the last Open
	ShardsRecovered  int   `json:"shards_recovered"`         // completed shards restored (recomputes avoided)
	JournalReplayed  int   `json:"journal_records_replayed"` // records applied at the last Open
	JournalAppends   int64 `json:"journal_appends"`
	JournalSyncs     int64 `json:"journal_syncs"` // fsyncs issued (group commit batches appends between them)
	JournalBytes     int64 `json:"journal_bytes"`
	JournalTruncated int64 `json:"journal_truncated_bytes"` // torn/corrupt tail bytes dropped at Open
	Snapshots        int64 `json:"snapshots_written"`
}

// durable returns the stats as written into a snapshot: scheduling
// counters kept, process-local persistence counters zeroed.
func (st SweepStats) durable() SweepStats {
	st.JobsActive = 0
	st.SubmitsDeduped = 0
	st.JobsRecovered = 0
	st.ShardsRecovered = 0
	st.JournalReplayed = 0
	st.JournalAppends = 0
	st.JournalSyncs = 0
	st.JournalBytes = 0
	st.JournalTruncated = 0
	st.Snapshots = 0
	return st
}

// StatsSnapshot returns the current counters.
func (c *Coordinator) StatsSnapshot() SweepStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	for _, j := range c.jobs {
		if !j.finished() {
			st.JobsActive++
		}
	}
	return st
}
