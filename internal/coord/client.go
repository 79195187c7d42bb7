package coord

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to a coordinator mounted in a streamalloc daemon
// (cmd/serve). Methods map HTTP statuses back onto the package's
// sentinel errors, so worker loops can branch with errors.Is exactly
// as they would against an in-process Coordinator.
//
// A Client can carry several equivalent coordinator endpoints (a
// restarted daemon, a hot standby behind distinct addresses): a
// transport-level failure — connection refused/reset, DNS, timeout;
// never an HTTP status — rotates to the next endpoint within the same
// call, and the endpoint that answers becomes the new primary. HTTP
// errors never rotate: every replica would answer the same. When every
// endpoint is down the last transport error is returned, and the
// caller's retry loop (RunWorker backs off with jitter between claim
// attempts) provides the pacing before the rotation is probed again.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	// Ignored when Endpoints is set.
	BaseURL string
	// Endpoints is the failover rotation. Empty means BaseURL only.
	Endpoints []string
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client

	// cursor indexes Endpoints at the current primary; atomic because
	// the worker's heartbeat goroutine shares the Client with its
	// solve loop.
	cursor atomic.Int64
}

// NewClient returns a Client for the daemon(s) at baseURL: a single
// root, or a comma-separated failover list such as
// "http://a:8080,http://b:8080" (tried in order, rotating on
// connection errors).
func NewClient(baseURL string) *Client {
	var eps []string
	for _, p := range strings.Split(baseURL, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			eps = append(eps, p)
		}
	}
	c := &Client{}
	if len(eps) > 0 {
		c.BaseURL = eps[0]
	}
	if len(eps) > 1 {
		c.Endpoints = eps
	}
	return c
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// endpoints returns the rotation list (BaseURL alone without failover).
func (c *Client) endpoints() []string {
	if len(c.Endpoints) > 0 {
		return c.Endpoints
	}
	return []string{strings.TrimRight(c.BaseURL, "/")}
}

// send builds the request against the current primary endpoint and
// issues it, rotating across the failover list on transport errors —
// once around at most, stopping early on context cancellation (which
// is the caller's doing, not an endpoint's).
func (c *Client) send(ctx context.Context, build func(base string) (*http.Request, error)) (*http.Response, error) {
	eps := c.endpoints()
	start := c.cursor.Load()
	var lastErr error
	for i := 0; i < len(eps); i++ {
		idx := (start + int64(i)) % int64(len(eps))
		req, err := build(eps[idx])
		if err != nil {
			return nil, err
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			c.cursor.Store(idx) // the answering endpoint is the new primary
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// doJSON issues one request and decodes a JSON reply into out (unless
// out is nil or the status is 204). Non-2xx replies become errors
// carrying the server's {"error": ...} message.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) (int, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	resp, err := c.send(ctx, func(base string) (*http.Request, error) {
		// A fresh reader per attempt: a failed endpoint may have
		// consumed part of the body before the connection dropped.
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s %s: %s", method, path, e.Error)
		}
		return resp.StatusCode, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Submit registers a sweep job and returns its id. When the job
// carries no JobKey, Submit generates one, so a retry after a
// transport failure — including send's own failover rotation, which
// can land on a replica after the primary committed the job but died
// before replying — dedupes on the coordinator instead of registering
// the sweep twice.
func (c *Client) Submit(ctx context.Context, job SweepJob) (string, error) {
	if job.JobKey == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("coord: generating job key: %w", err)
		}
		job.JobKey = "ck-" + hex.EncodeToString(b[:])
	}
	var out SubmitResponse
	if _, err := c.doJSON(ctx, http.MethodPost, "/v1/sweep", job, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Progress fetches a job's progress snapshot.
func (c *Client) Progress(ctx context.Context, jobID string) (*Progress, error) {
	var out Progress
	status, err := c.doJSON(ctx, http.MethodGet, "/v1/sweep/"+jobID, nil, &out)
	if status == http.StatusNotFound {
		return nil, ErrUnknownJob
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Claim asks for a lease — on jobID when non-empty, otherwise on any
// running job. Returns ErrNoWork (204) when nothing is claimable and
// ErrJobDone (410) when a named job has finished.
func (c *Client) Claim(ctx context.Context, jobID, worker string) (*Lease, error) {
	return c.ClaimWait(ctx, jobID, worker, 0)
}

// ClaimWait is Claim that, when nothing is claimable, asks the
// coordinator to park the request for up to wait (whole milliseconds,
// rounded up; capped at MaxClaimWait) until a job is submitted or
// finishes. It returns ErrNoWork when the wait runs out. A coordinator
// that predates wait_ms, or one that is shutting down, answers at once.
func (c *Client) ClaimWait(ctx context.Context, jobID, worker string, wait time.Duration) (*Lease, error) {
	path := "/v1/sweep/lease"
	if jobID != "" {
		path = "/v1/sweep/" + jobID + "/lease"
	}
	req := ClaimRequest{Worker: worker, WaitMS: int64((wait + time.Millisecond - 1) / time.Millisecond)}
	var out Lease
	status, err := c.doJSON(ctx, http.MethodPost, path, req, &out)
	switch status {
	case http.StatusNoContent:
		return nil, ErrNoWork
	case http.StatusGone:
		return nil, ErrJobDone
	case http.StatusNotFound:
		return nil, ErrUnknownJob
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Renew extends a lease, returning the fresh TTL. ErrLeaseLost means
// the shard was re-leased or completed by someone else; abandon it.
func (c *Client) Renew(ctx context.Context, l *Lease) (time.Duration, error) {
	var out RenewResponse
	status, err := c.doJSON(ctx, http.MethodPost, "/v1/sweep/"+l.Job+"/renew",
		RenewRequest{Shard: l.Shard, Token: l.Token}, &out)
	switch status {
	case http.StatusConflict:
		return 0, ErrLeaseLost
	case http.StatusNotFound:
		return 0, ErrUnknownJob
	}
	if err != nil {
		return 0, err
	}
	return time.Duration(out.TTLMS) * time.Millisecond, nil
}

// Complete submits a shard's encoded cells under the lease. A
// duplicate (someone else's result was already accepted) returns
// ErrDuplicate; ErrLeaseLost means the lease was re-issued and the
// result was refused. It sends the single-shard body every coordinator
// version accepts.
func (c *Client) Complete(ctx context.Context, l *Lease, worker string, cells []byte) error {
	return c.complete(ctx, l.Job, worker, ShardResult{Shard: l.Shard, Token: l.Token, Cells: cells})
}

func (c *Client) complete(ctx context.Context, jobID, worker string, r ShardResult) error {
	var out CompleteResponse
	status, err := c.doJSON(ctx, http.MethodPost, "/v1/sweep/"+jobID+"/complete",
		CompleteRequest{Shard: r.Shard, Token: r.Token, Worker: worker, Cells: string(r.Cells)}, &out)
	switch status {
	case http.StatusConflict:
		return ErrLeaseLost
	case http.StatusNotFound:
		return ErrUnknownJob
	}
	if err != nil {
		return err
	}
	if out.Duplicate {
		return ErrDuplicate
	}
	return nil
}

// errNoBatch: the coordinator answered a batch complete as a single
// one, because it predates batch completes. It then read shard 0 with
// an empty token and refused it, or, with shard 0 already done, counted
// a duplicate; either way none of the batch's results landed.
var errNoBatch = errors.New("coord: coordinator predates batch completes")

// CompleteAndClaimShare delivers the results of several leases of one
// job in one batch complete and, once one is accepted (a duplicate
// included), claims the worker's next fair share of a job in the same
// round trip — from nextJob when non-empty, otherwise from any running
// job. outcomes holds each result's own outcome as Complete would
// return it: nil, ErrDuplicate, ErrLeaseLost, or the coordinator's
// reason for refusing the cells. next is empty when nothing was
// claimable; the caller then claims on its own. A coordinator that
// predates batch completes refuses the whole batch with errNoBatch.
func (c *Client) CompleteAndClaimShare(ctx context.Context, jobID, worker string, results []ShardResult, nextJob string) (outcomes []error, next []*Lease, err error) {
	req := CompleteRequest{Worker: worker, Items: make([]CompleteItem, len(results)), Next: &NextClaim{Job: nextJob}}
	for i, r := range results {
		req.Items[i] = CompleteItem{Shard: r.Shard, Token: r.Token, Cells: string(r.Cells)}
	}
	var out CompleteResponse
	status, err := c.doJSON(ctx, http.MethodPost, "/v1/sweep/"+jobID+"/complete", req, &out)
	switch status {
	case http.StatusConflict:
		// Only a single complete answers 409.
		return nil, nil, errNoBatch
	case http.StatusNotFound:
		return nil, nil, ErrUnknownJob
	}
	if err != nil {
		return nil, nil, err
	}
	if len(out.Items) == 0 {
		// The old coordinator may have claimed for the folded "next".
		if out.Next != nil {
			next = []*Lease{out.Next}
		}
		return nil, next, errNoBatch
	}
	if len(out.Items) != len(results) {
		return nil, nil, fmt.Errorf("POST /v1/sweep/%s/complete: reply answers %d of %d items", jobID, len(out.Items), len(results))
	}
	outcomes = make([]error, len(results))
	for i, it := range out.Items {
		switch it.Outcome {
		case OutcomeAccepted:
		case OutcomeDuplicate:
			outcomes[i] = ErrDuplicate
		case OutcomeLeaseLost:
			outcomes[i] = ErrLeaseLost
		default:
			outcomes[i] = fmt.Errorf("coord: shard %d %s: %s", it.Shard, it.Outcome, it.Error)
		}
	}
	return outcomes, out.Leases, nil
}

// Result fetches the merged figure's .dat text; ErrNotDone while
// shards are still outstanding.
func (c *Client) Result(ctx context.Context, jobID string) (string, error) {
	return c.resultWait(ctx, jobID, 0)
}

// resultWait is Result that, while the job runs, asks the coordinator
// to park the request for up to wait (whole milliseconds, rounded up;
// capped at MaxClaimWait) until the job finishes. It returns ErrNotDone
// when the wait runs out, and at once from a coordinator that predates
// the wait.
func (c *Client) resultWait(ctx context.Context, jobID string, wait time.Duration) (string, error) {
	path := "/v1/sweep/" + jobID + "/result"
	if wait > 0 {
		path += "?wait_ms=" + strconv.FormatInt(int64((wait+time.Millisecond-1)/time.Millisecond), 10)
	}
	resp, err := c.send(ctx, func(base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return string(raw), nil
	case http.StatusConflict:
		return "", ErrNotDone
	case http.StatusNotFound:
		return "", ErrUnknownJob
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return "", errors.New(e.Error)
	}
	return "", fmt.Errorf("GET /v1/sweep/%s/result: status %d", jobID, resp.StatusCode)
}

// Await waits for a job to finish and returns the merged .dat text. It
// long-polls the result: each request parks at the coordinator for up
// to MaxClaimWait and answers the moment the job merges. A coordinator
// that predates the long poll answers at once while the job runs;
// Await then asks again poll (default 250ms) after its previous
// request started, so it never spins. A failed job returns its merge
// error. It respects ctx for cancellation.
func (c *Client) Await(ctx context.Context, jobID string, poll time.Duration) (string, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		start := time.Now()
		dat, err := c.resultWait(ctx, jobID, MaxClaimWait)
		if !errors.Is(err, ErrNotDone) {
			return dat, err
		}
		if d := poll - time.Since(start); d > 0 && !sleepCtx(ctx, d) {
			return "", ctx.Err()
		}
	}
}
