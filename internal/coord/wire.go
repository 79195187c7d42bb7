package coord

import "time"

// Wire types shared by the coordinator, the HTTP layer in
// internal/serve, and Client: the one copy of every sweep message. All
// JSON, all stable; SweepJob, Lease and Progress are re-exported at
// the repo root as the public jobs surface.

// SweepJob is a sweep submission: which figure to build, the
// experiment parameters, and how many shards to decompose it into.
type SweepJob struct {
	// Figure is the figure id to build (see FigureIDs).
	Figure string `json:"figure"`
	// Seeds is the number of repetitions per grid point; 0 means the
	// experiments default (10).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed offsets every derived seed; 0 is the committed default.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Shards is the number of work units to decompose the run into.
	Shards int `json:"shards"`
	// LeaseTTLMS overrides the coordinator's default lease TTL,
	// milliseconds; capped at the coordinator's maximum.
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
	// JobKey is an optional idempotency key (≤ 200 bytes). Submitting
	// the same key twice returns the first submission's job id instead
	// of registering a second job, which makes retrying a Submit over a
	// flaky connection safe — Client fills one in automatically.
	JobKey string `json:"job_key,omitempty"`
}

// Lease is a granted work unit: compute Shard of Shards for the job's
// figure, then Complete with Token before the TTL runs out (or keep
// renewing). Expired leases are re-offered to other workers.
type Lease struct {
	Job      string `json:"job"`
	Figure   string `json:"figure"`
	Seeds    int    `json:"seeds"`
	BaseSeed int64  `json:"base_seed"`
	Shard    int    `json:"shard"`
	Shards   int    `json:"shards"`
	Token    string `json:"token"`
	TTLMS    int64  `json:"ttl_ms"`
}

// ShardProgress is one shard's row in a Progress snapshot.
type ShardProgress struct {
	Shard int `json:"shard"`
	// State is "pending", "leased" or "done".
	State string `json:"state"`
	// Worker is the current or most recent lessee.
	Worker string `json:"worker,omitempty"`
	// Leases counts leases ever granted for this shard; >1 means it was
	// re-leased after an expiry.
	Leases   int `json:"leases"`
	Renewals int `json:"renewals,omitempty"`
	// DoneBy names the worker whose result was accepted.
	DoneBy string `json:"done_by,omitempty"`
}

// Progress is a point-in-time snapshot of a sweep job.
type Progress struct {
	ID       string `json:"id"`
	Figure   string `json:"figure"`
	Seeds    int    `json:"seeds"`
	BaseSeed int64  `json:"base_seed"`
	// State is "running", "done" or "failed".
	State  string          `json:"state"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Shards []ShardProgress `json:"shards"`
	// Releases counts leases that expired and were re-offered
	// (straggler / dead-worker recoveries).
	Releases int `json:"releases"`
	// Duplicates counts completions discarded because the shard already
	// had an accepted result.
	Duplicates int `json:"duplicates"`
	// MergeMS is the final merge latency, set once State is "done".
	MergeMS float64 `json:"merge_ms,omitempty"`
	// Error carries the merge failure when State is "failed".
	Error string `json:"error,omitempty"`
}

// SubmitResponse is POST /v1/sweep's reply.
type SubmitResponse struct {
	ID string `json:"id"`
}

// MaxClaimWait caps ClaimRequest.WaitMS, and the wait_ms of a result
// request: a parked claim answers 204, and a parked result 409, after
// at most this long, so the worker's next claim re-reads its pinned job
// and lease expiries.
const MaxClaimWait = time.Second

// ClaimRequest is the body of POST /v1/sweep/lease and
// POST /v1/sweep/{id}/lease.
type ClaimRequest struct {
	Worker string `json:"worker,omitempty"`
	// WaitMS parks a claim that finds no work for up to this many
	// milliseconds (capped at MaxClaimWait), until a job is submitted or
	// finishes; 0 answers 204 at once.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// RenewRequest is the body of POST /v1/sweep/{id}/renew.
type RenewRequest struct {
	Shard  int    `json:"shard"`
	Token  string `json:"token"`
	Worker string `json:"worker,omitempty"`
}

// RenewResponse is its reply.
type RenewResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// CompleteRequest is the body of POST /v1/sweep/{id}/complete. Cells
// carries the shard's encoded cell artifact (the streamalloc-cells/v1
// text format) verbatim. An absent Shard means shard 0.
type CompleteRequest struct {
	Shard  int    `json:"shard,omitempty"`
	Token  string `json:"token,omitempty"`
	Worker string `json:"worker,omitempty"`
	Cells  string `json:"cells,omitempty"`
	// Items, when non-empty, makes the request a batch: it delivers
	// every listed shard of the job in place of Shard, Token and Cells,
	// which must then be absent from the body, zero values included. It
	// holds at most as many items as the job has shards. The reply
	// answers each item on its own.
	Items []CompleteItem `json:"items,omitempty"`
	// Next, when set, folds the worker's next claim into this round
	// trip: once a result is accepted (a duplicate included), the
	// coordinator claims for Worker and returns the lease in
	// CompleteResponse.Next, exactly as a claim request would. A batch
	// claims a fair share of one job instead, ⌊pending / (2·holders)⌋
	// leases (see Coordinator.ClaimShare), returned in
	// CompleteResponse.Leases.
	Next *NextClaim `json:"next,omitempty"`
}

// CompleteItem is one shard of a batch complete.
type CompleteItem struct {
	Shard int    `json:"shard"`
	Token string `json:"token"`
	Cells string `json:"cells"`
}

// NextClaim names where a folded claim draws from.
type NextClaim struct {
	// Job pins the claim to one job id; empty claims from any running
	// job.
	Job string `json:"job,omitempty"`
}

// Outcomes of one batch complete item.
const (
	OutcomeAccepted  = "accepted"
	OutcomeDuplicate = "duplicate"
	OutcomeLeaseLost = "lease_lost"
	OutcomeInvalid   = "invalid"
)

// ItemOutcome answers one CompleteItem: accepted, duplicate (benign,
// as for a single complete), lease_lost (the token is not the shard's
// lease, or the shard index names none) or invalid (the cells failed
// their check; Error says why, and the lease stays in place).
type ItemOutcome struct {
	Shard   int    `json:"shard"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// CompleteResponse is its reply. Duplicate is set when the result was
// discarded because the shard already completed — benign by the
// determinism contract. It is always sent, false included; a batch
// answers in Items instead, one outcome per item in order. Next is the
// folded claim's lease, and Leases a batch's folded share claim's;
// they are absent when the request asked for none or nothing was
// claimable, and the worker then claims on its own.
type CompleteResponse struct {
	Duplicate bool          `json:"duplicate"`
	Items     []ItemOutcome `json:"items,omitempty"`
	Next      *Lease        `json:"next,omitempty"`
	Leases    []*Lease      `json:"leases,omitempty"`
}
