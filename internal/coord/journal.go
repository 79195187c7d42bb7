package coord

// The durable half of the coordinator: an append-only record journal
// plus periodic shard-table snapshots in Config.StateDir, so a
// restarted coordinator replays itself back into exactly the shard
// table it crashed with (see recovery.go).
//
// Journal format (journal.wal): a stream of framed records,
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload    one JSON-encoded record
//
// Records carry a strictly increasing LSN. Decoding stops at the first
// frame that fails the length bound, the checksum, JSON decoding or
// LSN monotonicity — everything before it is the valid prefix, and
// recovery truncates the file there, so a torn tail (machine crash
// mid-write) costs at most the records after the last good one and a
// partial record is never resurrected. FuzzJournalDecode pins this.
//
// Durability policy (group commit): every append is written to the
// file synchronously under the coordinator mutex — which is what makes
// replay equivalent to the live history — but fsync is batched:
// critical records (submit, complete, merge, open) sync immediately,
// while the claim/renew hot path only syncs when the group-commit
// window (syncInterval, 100 ms) has elapsed, when the next critical
// record lands, on snapshot, or on Close. Losing an unsynced
// claim/renew to a machine crash is safe: the shard recovers as
// pending, the re-issued lease gets a fresh token, and the old
// worker's stale token maps to ErrLeaseLost exactly like any other
// lost lease. (A process kill loses nothing: written bytes survive in
// the page cache.) One operation's records — a record per shard of a
// batch complete or a share claim — go out in one write and share one
// fsync, and are applied only once both succeeded.
//
// Snapshots (snapshot.json): after Config.SnapshotEvery journal
// appends the whole shard table is marshalled to snapshot.json.tmp,
// fsynced, renamed over snapshot.json, and the journal is truncated to
// zero — the snapshot's LSN marks how much history it absorbs, so a
// crash between the rename and the truncate merely replays records the
// snapshot already covers (replay skips LSNs <= the snapshot's).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

const (
	journalFileName  = "journal.wal"
	snapshotFileName = "snapshot.json"

	// maxRecordLen bounds a frame's declared payload length so a
	// corrupted length field cannot drive a huge allocation. Complete
	// records embed whole shard-cell artifacts (HTTP-capped well below
	// this), everything else is bookkeeping-sized.
	maxRecordLen = 256 << 20
)

// Record types, in the order they appear in a typical job's history.
const (
	recOpen      = "open"     // coordinator (re)opened the state dir; bumps the epoch
	recSubmit    = "submit"   // job registered
	recClaim     = "claim"    // shard leased (a claim over a still-leased shard implies an expiry)
	recRenew     = "renew"    // lease deadline extended
	recComplete  = "complete" // shard result accepted
	recDuplicate = "dup"      // late duplicate completion discarded
	recMerge     = "merge"    // final merge result (or failure) recorded
)

// record is one journal entry. A single struct covers every type;
// unused fields stay at their zero value and are omitted from the
// JSON payload.
type record struct {
	LSN  uint64 `json:"lsn"`
	Type string `json:"type"`

	// Epoch is the open count of the state dir (recOpen).
	Epoch int `json:"epoch,omitempty"`
	// Seq is the coordinator counter value the event consumed
	// (recSubmit, recClaim); replay raises the counter floor so
	// recovered ids and tokens never collide with pre-crash ones.
	Seq int `json:"seq,omitempty"`

	Job  string    `json:"job,omitempty"`
	Spec *SweepJob `json:"spec,omitempty"` // recSubmit, normalized (Seeds and LeaseTTLMS resolved)
	// Evict names the finished job a submit pushed out at the MaxJobs
	// bound (recSubmit), so replay never depends on the config.
	Evict string `json:"evict,omitempty"`

	Shard  int    `json:"shard,omitempty"`
	Token  string `json:"token,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Deadline is the lease deadline in Unix nanoseconds (recClaim,
	// recRenew). Absolute, so recovery needs no clock arithmetic:
	// recovered leases expire lazily against the live wall clock
	// exactly as they would have without the restart.
	Deadline int64 `json:"deadline,omitempty"`

	Cells []byte `json:"cells,omitempty"` // recComplete: the accepted shard artifact
	// decoded is Cells as CompleteShards decoded them to check them
	// (recComplete, live only). Replayed records leave it nil.
	decoded *experiments.ShardCells

	Dat     []byte `json:"dat,omitempty"`      // recMerge: merged figure bytes
	Failed  string `json:"failed,omitempty"`   // recMerge: merge error, if any
	MergeNS int64  `json:"merge_ns,omitempty"` // recMerge: merge latency
}

// critical reports whether the record must be fsynced before the
// operation that produced it returns (group commit never delays it).
func (r *record) critical() bool {
	switch r.Type {
	case recSubmit, recComplete, recMerge, recOpen:
		return true
	}
	return false
}

// frameRecord appends one framed record (header + payload) to dst.
func frameRecord(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// decodeJournal scans data and returns every valid record plus the
// byte length of the valid prefix. It never fails: a frame with an
// impossible length, a checksum mismatch, undecodable JSON or a
// non-increasing LSN ends the scan, and the caller truncates the file
// there. Records after a corrupt one are unreachable by design — a
// hole in the history would make replay diverge from the live run.
func decodeJournal(data []byte) ([]record, int) {
	var recs []record
	off := 0
	var lastLSN uint64
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n == 0 || n > maxRecordLen || int(n) > len(data)-off-8 {
			break
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		var r record
		if json.Unmarshal(payload, &r) != nil {
			break
		}
		if r.LSN <= lastLSN {
			break
		}
		lastLSN = r.LSN
		recs = append(recs, r)
		off += 8 + int(n)
	}
	return recs, off
}

// errJournalClosed: an append was attempted after Close (or after a
// write error poisoned the file).
var errJournalClosed = errors.New("journal closed")

// syncInterval is the group-commit window for claims and renews.
const syncInterval = 100 * time.Millisecond

// walFile is the journal's file: *os.File in production. Tests put a
// wrapper in its place to make a Write, Sync or Truncate fail.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// journal is the open WAL of a durable coordinator. All access is
// guarded by the coordinator mutex; appends happen inline in the
// operation that they record.
type journal struct {
	dir      string
	f        walFile
	buf      []byte // reused frame buffer
	lsn      uint64 // last LSN written (or absorbed by the snapshot)
	dirty    bool   // written but not yet fsynced
	lastSync time.Time
	appends  int // appends since the last snapshot
	closed   bool
}

// append frames recs (assigning consecutive LSNs), writes them with
// one Write and fsyncs at most once, per the group-commit policy: at
// once when any of them is critical. Returns the framed size and
// whether the batch carried an fsync. A write or sync error closes the
// journal: bytes may have landed torn, and appending after them would
// strand every later record behind an undecodable frame.
func (jn *journal) append(recs []record, now time.Time) (int, bool, error) {
	if jn.closed {
		return 0, false, errJournalClosed
	}
	jn.buf = jn.buf[:0]
	critical := false
	for i := range recs {
		r := &recs[i]
		r.LSN = jn.lsn + uint64(i) + 1
		payload, err := json.Marshal(r)
		if err != nil {
			return 0, false, err
		}
		jn.buf = frameRecord(jn.buf, payload)
		critical = critical || r.critical()
	}
	if _, err := jn.f.Write(jn.buf); err != nil {
		jn.closed = true
		return 0, false, err
	}
	jn.lsn += uint64(len(recs))
	jn.appends += len(recs)
	jn.dirty = true
	synced := false
	if critical || now.Sub(jn.lastSync) >= syncInterval {
		if err := jn.f.Sync(); err != nil {
			jn.closed = true
			return len(jn.buf), false, err
		}
		jn.dirty = false
		jn.lastSync = now
		synced = true
	}
	return len(jn.buf), synced, nil
}

// sync flushes any batched (non-critical) appends to disk.
func (jn *journal) sync(now time.Time) error {
	if jn.closed || !jn.dirty {
		return nil
	}
	if err := jn.f.Sync(); err != nil {
		jn.closed = true
		return err
	}
	jn.dirty = false
	jn.lastSync = now
	return nil
}

// reset truncates the journal to zero after a snapshot absorbed its
// history. The LSN keeps counting — future records must stay above the
// snapshot's LSN so a stale journal tail is skipped on replay.
func (jn *journal) reset() error {
	if err := jn.f.Truncate(0); err != nil {
		return err
	}
	if _, err := jn.f.Seek(0, 0); err != nil {
		return err
	}
	jn.appends = 0
	jn.dirty = false
	return nil
}

// snapshotDoc is the snapshot.json document: the complete durable
// state of a coordinator at one LSN.
type snapshotDoc struct {
	Version int        `json:"version"`
	LSN     uint64     `json:"lsn"`
	Epoch   int        `json:"epoch"`
	Seq     int        `json:"seq"`
	Stats   SweepStats `json:"stats"`
	Jobs    []job      `json:"jobs"` // submission order
}

const snapshotVersion = 1

// job is one submitted sweep with its shard table. The live table
// holds these and a snapshot stores them verbatim, so restoring one is
// just registering it.
type job struct {
	ID         string   `json:"id"`
	Spec       SweepJob `json:"spec"` // normalized: Seeds and LeaseTTLMS resolved
	Done       int      `json:"done"` // shards in state "done"
	Merged     bool     `json:"merged,omitempty"`
	Dat        []byte   `json:"dat,omitempty"`    // merged Figure.Dat bytes
	Failed     string   `json:"failed,omitempty"` // merge error (determinism bug — should never happen)
	MergeNS    int64    `json:"merge_ns,omitempty"`
	Releases   int      `json:"releases,omitempty"`   // leases expired and made claimable again
	Duplicates int      `json:"duplicates,omitempty"` // completions discarded because the shard was done
	Shards     []shard  `json:"shards"`
}

// shard is one work unit's row in a job's table. State is "pending",
// "leased" or "done". Deadline is the current lease deadline in
// absolute Unix nanoseconds, as in claim/renew records: leases expire
// against the wall clock, live and after recovery alike.
type shard struct {
	State    string `json:"state"`
	Token    string `json:"token,omitempty"`  // current lease token (leased only)
	Worker   string `json:"worker,omitempty"` // current or last lessee
	Deadline int64  `json:"deadline,omitempty"`
	Leases   int    `json:"leases,omitempty"` // leases ever granted (>1 means re-leased)
	Renewals int    `json:"renewals,omitempty"`
	Cells    []byte `json:"cells,omitempty"`   // encoded ShardCells once done, until the job finishes
	DoneBy   string `json:"done_by,omitempty"` // worker whose result was accepted
	// decoded is Cells decoded, kept in memory only from the complete
	// that checked them until the job finishes; nil for cells restored
	// from a snapshot or the journal, which the merge decodes itself.
	decoded *experiments.ShardCells
}

// writeSnapshot atomically replaces dir/snapshot.json with doc:
// write to a temp file, fsync it, rename over the target, fsync the
// directory. A crash leaves either the old snapshot or the new one,
// never a torn file.
func writeSnapshot(dir string, doc *snapshotDoc) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, snapshotFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFileName)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// readSnapshot loads dir/snapshot.json; (nil, nil) when none exists.
// Snapshots are rename-atomic, so a decode failure is real disk
// corruption and fails the open loudly rather than silently dropping
// committed jobs.
func readSnapshot(dir string) (*snapshotDoc, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("corrupt snapshot: %w", err)
	}
	if doc.Version != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d, this build reads %d", doc.Version, snapshotVersion)
	}
	return &doc, nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
// Best-effort: some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
