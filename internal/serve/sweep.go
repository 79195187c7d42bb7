package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/coord"
)

// Sweep endpoints: the distributed sweep coordinator (internal/coord)
// mounted on the daemon. Unlike solve/verify these never borrow a
// solve arena — coordination is cheap mutex-guarded bookkeeping, and
// the actual shard computation happens in external sweepworker
// processes — so sweep traffic can neither occupy an arena nor be shed
// by solve admission. The final merge runs inline on the HTTP goroutine
// of whichever worker completes the last shard.
//
//	POST /v1/sweep                submit a job            -> {"id": ...}
//	GET  /v1/sweep/{id}           progress snapshot
//	GET  /v1/sweep/{id}/result    merged .dat text (409 until done; ?wait_ms=N parks)
//	POST /v1/sweep/lease          claim a shard of any running job
//	POST /v1/sweep/{id}/lease     claim a shard of one job
//	POST /v1/sweep/{id}/renew     heartbeat a lease
//	POST /v1/sweep/{id}/complete  deliver shards' cells (+ next leases)
//
// A claim carrying "wait_ms" parks when no shard is claimable, for up
// to that long (capped at coord.MaxClaimWait), and claims again as soon
// as a job is submitted or finishes; it answers 204 when the wait runs
// out. A result request with the query parameter wait_ms parks the
// same way while its job runs and answers the moment the job merges,
// or 409 when the wait runs out. A claim request always grants one
// lease. A complete carrying "items" is a batch: it delivers every
// listed shard of the job, in at most as many items as the job has
// shards, and answers 200 with one outcome per item (accepted,
// duplicate, lease_lost or invalid), so a stale item does not refuse
// the rest; the records are written with one fsync and applied only
// after it. A batch that also carries "shard", "token" or "cells" is a
// 400. A complete carrying "next"
// claims once a result is accepted (a duplicate included): one lease
// returned as "next", or for a batch a fair share of one job,
// ⌊pending / (2·holders)⌋ leases, returned as "leases" (absent when
// nothing was claimable). A complete without the batch fields answers
// as it always has. Finished jobs and
// their results are kept until a submit at the live-jobs bound evicts
// the oldest one.
//
// Status mapping: 204 no claimable work, 404 unknown job, 409 lease
// lost / result not ready, 410 job finished (per-job claim), 429 too
// many running jobs, 500 a journal write or fsync failed.

// registerSweep mounts the coordinator routes on the server mux.
func (s *Server) registerSweep() {
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweepSubmit)
	s.mux.HandleFunc("POST /v1/sweep/lease", func(w http.ResponseWriter, r *http.Request) {
		s.handleSweepClaim(w, r, "")
	})
	s.mux.HandleFunc("GET /v1/sweep/{id}", s.handleSweepProgress)
	s.mux.HandleFunc("GET /v1/sweep/{id}/result", s.handleSweepResult)
	s.mux.HandleFunc("POST /v1/sweep/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		s.handleSweepClaim(w, r, r.PathValue("id"))
	})
	s.mux.HandleFunc("POST /v1/sweep/{id}/renew", s.handleSweepRenew)
	s.mux.HandleFunc("POST /v1/sweep/{id}/complete", s.handleSweepComplete)
}

// maxSweepBodyBytes caps sweep request bodies. They carry whole
// shard-cell artifacts, so the cap is wider than the solve endpoints'
// maxBodyBytes.
const maxSweepBodyBytes = 64 << 20

// sweepError maps coordinator sentinels onto HTTP statuses.
func (s *Server) sweepError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, coord.ErrUnknownJob):
		s.clientError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, coord.ErrLeaseLost), errors.Is(err, coord.ErrNotDone):
		s.clientError(w, http.StatusConflict, err.Error())
	case errors.Is(err, coord.ErrJobDone):
		s.clientError(w, http.StatusGone, err.Error())
	case errors.Is(err, coord.ErrTooManyJobs):
		s.clientError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, coord.ErrJournal):
		// The durable coordinator could not persist the operation; the
		// client must not believe it happened.
		s.clientError(w, http.StatusInternalServerError, err.Error())
	default:
		s.clientError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec coord.SweepJob
	if !s.decode(w, r, maxSweepBodyBytes, &spec) {
		return
	}
	id, err := s.coord.Submit(spec)
	if err != nil {
		s.sweepError(w, err)
		return
	}
	s.writeOK(w, coord.SubmitResponse{ID: id})
}

func (s *Server) handleSweepProgress(w http.ResponseWriter, r *http.Request) {
	p, err := s.coord.Progress(r.PathValue("id"))
	if err != nil {
		s.sweepError(w, err)
		return
	}
	s.writeOK(w, p)
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	var waitMS uint64
	if q := r.URL.Query(); q.Has("wait_ms") {
		// Past the uint64 range ParseUint answers the maximum, which the
		// cap below takes in as any other long wait.
		var err error
		if waitMS, err = strconv.ParseUint(q.Get("wait_ms"), 10, 64); err != nil && !errors.Is(err, strconv.ErrRange) {
			s.clientError(w, http.StatusBadRequest, "wait_ms must be a non-negative integer of milliseconds")
			return
		}
	}
	wait := time.Duration(min(waitMS, uint64(coord.MaxClaimWait.Milliseconds()))) * time.Millisecond
	id := r.PathValue("id")
	var dat []byte
	err := s.park(r.Context(), wait, coord.ErrNotDone, func() (err error) {
		dat, err = s.coord.Result(id)
		return err
	})
	if err != nil {
		s.sweepError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(dat)
}

func (s *Server) handleSweepClaim(w http.ResponseWriter, r *http.Request, jobID string) {
	var req coord.ClaimRequest
	if !s.decode(w, r, maxSweepBodyBytes, &req) {
		return
	}
	wait := time.Duration(min(req.WaitMS, coord.MaxClaimWait.Milliseconds())) * time.Millisecond
	var lease *coord.Lease
	err := s.park(r.Context(), wait, coord.ErrNoWork, func() (err error) {
		lease, err = s.coord.Claim(jobID, req.Worker)
		return err
	})
	switch {
	case errors.Is(err, coord.ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
		return
	case err != nil:
		s.sweepError(w, err)
		return
	}
	s.writeOK(w, lease)
}

// park runs try, and while it answers notYet parks for up to wait and
// tries again each time a job is submitted or finishes: the one wait
// behind parked claims (notYet is ErrNoWork) and parked results
// (ErrNotDone). When the wait runs out it tries once more, so a lease
// that expired meanwhile is claimed then. It answers try's error at
// once when the client goes away or the server stops parking
// (StopParking). The coordinator owns no goroutine for this: the
// waiting happens on the request's own.
func (s *Server) park(ctx context.Context, wait time.Duration, notYet error, try func() error) error {
	var expired <-chan time.Time
	for {
		var changed <-chan struct{}
		if wait > 0 {
			changed = s.coord.WorkChanged()
		}
		err := try()
		if wait <= 0 || !errors.Is(err, notYet) {
			return err
		}
		if expired == nil {
			t := time.NewTimer(wait)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-changed:
		case <-expired:
			wait = 0
		case <-ctx.Done():
			return err
		case <-s.parkStop:
			return err
		}
	}
}

func (s *Server) handleSweepRenew(w http.ResponseWriter, r *http.Request) {
	var req coord.RenewRequest
	if !s.decode(w, r, maxSweepBodyBytes, &req) {
		return
	}
	ttlMS, err := s.coord.Renew(r.PathValue("id"), req.Shard, req.Token)
	if err != nil {
		s.sweepError(w, err)
		return
	}
	s.writeOK(w, coord.RenewResponse{TTLMS: ttlMS})
}

// completeBody is a complete request as the handler decodes it: the
// single-form fields shadow coord.CompleteRequest's as pointers, so a
// batch that also carries one of them, a zero value included, is told
// apart and refused.
type completeBody struct {
	coord.CompleteRequest
	Shard *int    `json:"shard"`
	Token *string `json:"token"`
	Cells *string `json:"cells"`
}

// deref is *p, or the zero value for an absent field.
func deref[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

func (s *Server) handleSweepComplete(w http.ResponseWriter, r *http.Request) {
	var req completeBody
	if !s.decode(w, r, maxSweepBodyBytes, &req) {
		return
	}
	batch := len(req.Items) > 0
	var results []coord.ShardResult
	switch {
	case !batch:
		results = []coord.ShardResult{{Shard: deref(req.Shard), Token: deref(req.Token), Cells: []byte(deref(req.Cells))}}
	case req.Shard != nil || req.Token != nil || req.Cells != nil:
		s.clientError(w, http.StatusBadRequest, "a batch complete carries its shards in items only")
		return
	default:
		for _, it := range req.Items {
			results = append(results, coord.ShardResult{Shard: it.Shard, Token: it.Token, Cells: []byte(it.Cells)})
		}
	}
	errs, err := s.coord.CompleteShards(r.PathValue("id"), req.Worker, results)
	if err != nil {
		s.sweepError(w, err)
		return
	}
	// A duplicate is benign by the determinism contract: someone else's
	// identical result was already accepted. 200 with a flag, not an
	// error. A batch answers every item in the body instead of with the
	// status, so one stale item does not refuse the rest.
	var resp coord.CompleteResponse
	accepted := false
	if batch {
		resp.Items = make([]coord.ItemOutcome, len(errs))
		for i, e := range errs {
			resp.Items[i] = itemOutcome(results[i].Shard, e)
			accepted = accepted || e == nil || errors.Is(e, coord.ErrDuplicate)
		}
	} else {
		resp.Duplicate = errors.Is(errs[0], coord.ErrDuplicate)
		if errs[0] != nil && !resp.Duplicate {
			s.sweepError(w, errs[0])
			return
		}
		accepted = true
	}
	if req.Next != nil && accepted {
		// The folded claim journals the records a claim request would,
		// right after the complete's. Whatever stops it leaves Next and
		// Leases empty; the worker's own claim then reports it.
		if batch {
			resp.Leases, _ = s.coord.ClaimShare(req.Next.Job, req.Worker)
		} else {
			resp.Next, _ = s.coord.Claim(req.Next.Job, req.Worker)
		}
	}
	s.writeOK(w, resp)
}

// itemOutcome reports one batch item's result on the wire.
func itemOutcome(shard int, err error) coord.ItemOutcome {
	switch {
	case err == nil:
		return coord.ItemOutcome{Shard: shard, Outcome: coord.OutcomeAccepted}
	case errors.Is(err, coord.ErrDuplicate):
		return coord.ItemOutcome{Shard: shard, Outcome: coord.OutcomeDuplicate}
	case errors.Is(err, coord.ErrLeaseLost):
		return coord.ItemOutcome{Shard: shard, Outcome: coord.OutcomeLeaseLost, Error: err.Error()}
	}
	return coord.ItemOutcome{Shard: shard, Outcome: coord.OutcomeInvalid, Error: err.Error()}
}
