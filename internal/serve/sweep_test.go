package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
)

// TestSweepEndpointStatusMapping exercises the HTTP surface of the
// sweep coordinator: submit, claim through the lease lifecycle, and
// the status codes each coordinator sentinel maps to. (The full
// worker-driven path, including fault injection, lives in
// internal/coord's e2e test.)
func TestSweepEndpointStatusMapping(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// Bad submissions are 400 with the error envelope.
	rec := do(t, s, "POST", "/v1/sweep", []byte(`{"figure":"nope","shards":2}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown figure") {
		t.Fatalf("bad figure: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep", []byte(`not json`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", rec.Code)
	}

	// Valid submission returns an id.
	rec = do(t, s, "POST", "/v1/sweep", []byte(`{"figure":"fig2a","seeds":2,"base_seed":1,"shards":1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body: %v %s", err, rec.Body.String())
	}

	// Unknown job ids are 404 on every job-scoped route.
	for _, r := range [][2]string{
		{"GET", "/v1/sweep/zzz"},
		{"GET", "/v1/sweep/zzz/result"},
		{"POST", "/v1/sweep/zzz/lease"},
		{"POST", "/v1/sweep/zzz/renew"},
		{"POST", "/v1/sweep/zzz/complete"},
	} {
		body := []byte(`{}`)
		if r[0] == "GET" {
			body = nil
		}
		if rec := do(t, s, r[0], r[1], body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", r[0], r[1], rec.Code)
		}
	}

	// Result before completion is 409.
	if rec := do(t, s, "GET", "/v1/sweep/"+sub.ID+"/result", nil); rec.Code != http.StatusConflict {
		t.Fatalf("early result: %d", rec.Code)
	}

	// Claim the only shard; a second claim finds nothing (204).
	rec = do(t, s, "POST", "/v1/sweep/"+sub.ID+"/lease", []byte(`{"worker":"a"}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("claim: %d %s", rec.Code, rec.Body.String())
	}
	var lease coord.Lease
	if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil || lease.Token == "" {
		t.Fatalf("lease body: %v %s", err, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/v1/sweep/"+sub.ID+"/lease", []byte(`{"worker":"b"}`)); rec.Code != http.StatusNoContent {
		t.Fatalf("claim while leased: %d", rec.Code)
	}
	// Any-job claim route agrees.
	if rec := do(t, s, "POST", "/v1/sweep/lease", []byte(`{"worker":"b"}`)); rec.Code != http.StatusNoContent {
		t.Fatalf("any-job claim while leased: %d", rec.Code)
	}

	// Renew with the right token works, wrong token is 409.
	rec = do(t, s, "POST", "/v1/sweep/"+sub.ID+"/renew",
		[]byte(`{"shard":0,"token":"`+lease.Token+`"}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("renew: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep/"+sub.ID+"/renew", []byte(`{"shard":0,"token":"bogus"}`))
	if rec.Code != http.StatusConflict {
		t.Fatalf("renew with bogus token: %d", rec.Code)
	}

	// Progress reflects the live lease and the statsz sweep section
	// carries coordinator counters.
	rec = do(t, s, "GET", "/v1/sweep/"+sub.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("progress: %d", rec.Code)
	}
	var p coord.Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("progress body: %v", err)
	}
	if p.State != "running" || p.Shards[0].State != "leased" || p.Shards[0].Worker != "a" {
		t.Fatalf("progress: %+v", p)
	}
	rec = do(t, s, "GET", "/statsz", nil)
	var st statszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Sweep.JobsSubmitted != 1 || st.Sweep.JobsActive != 1 || st.Sweep.LeasesGranted != 1 || st.Sweep.Renewals != 1 {
		t.Fatalf("statsz sweep section: %+v", st.Sweep)
	}
}

// TestSweepCompleteRejectsIncompleteArtifact: a shard artifact with a
// valid header but none of the shard's cells answers 400 and leaves
// the job running with the lease intact; the real artifact then lands
// and the merged result equals the unsharded golden.
func TestSweepCompleteRejectsIncompleteArtifact(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "POST", "/v1/sweep", []byte(`{"figure":"fig2a","seeds":2,"base_seed":1,"shards":1}`))
	var sub coord.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep/"+sub.ID+"/lease", []byte(`{"worker":"a"}`))
	var lease coord.Lease
	if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil || lease.Token == "" {
		t.Fatalf("claim: %d %s", rec.Code, rec.Body.String())
	}
	complete := func(cells string) *httptest.ResponseRecorder {
		body, err := json.Marshal(coord.CompleteRequest{Shard: lease.Shard, Token: lease.Token, Worker: "a", Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		return do(t, s, "POST", "/v1/sweep/"+sub.ID+"/complete", body)
	}

	bad := "# streamalloc-cells/v1 fig=fig2a shard=0/1 seeds=2 baseseed=1 units=1\n"
	if rec := complete(bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("incomplete artifact: %d %s, want 400", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "GET", "/v1/sweep/"+sub.ID, nil)
	var p coord.Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("progress body: %v", err)
	}
	if p.State != "running" || p.Shards[0].State != "leased" {
		t.Fatalf("after a refused artifact: %+v", p)
	}

	cfg := experiments.Config{Seeds: 2, BaseSeed: 1}
	sc, err := experiments.RunFigureShard(t.Context(), "fig2a", cfg, experiments.Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cells bytes.Buffer
	if err := sc.Encode(&cells); err != nil {
		t.Fatal(err)
	}
	if rec := complete(cells.String()); rec.Code != http.StatusOK || rec.Body.String() != "{\"duplicate\":false}\n" {
		t.Fatalf("real artifact: %d %q", rec.Code, rec.Body.String())
	}
	full, err := experiments.BuildFigure(t.Context(), "fig2a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "GET", "/v1/sweep/"+sub.ID+"/result", nil); rec.Code != http.StatusOK || rec.Body.String() != full.Dat() {
		t.Fatalf("result: %d, merge differs from the unsharded golden", rec.Code)
	}
}

// shardCells computes and encodes one shard of fig2a at 2 seeds, base
// seed 1, as a worker would.
func shardCells(t testing.TB, l *coord.Lease) []byte {
	t.Helper()
	sc, err := experiments.RunFigureShard(t.Context(), l.Figure, experiments.Config{Seeds: l.Seeds, BaseSeed: l.BaseSeed},
		experiments.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var parkJob = coord.SweepJob{Figure: "fig2a", Seeds: 2, BaseSeed: 1, Shards: 1}

// claimResult is one ClaimWait's outcome and when it arrived.
type claimResult struct {
	lease *coord.Lease
	err   error
	at    time.Time
}

// parkClaim starts a ClaimWait and returns its outcome channel. It
// checks that the claim is still parked after parkSettle, so whatever
// answers it afterwards happened while it waited.
func parkClaim(t *testing.T, ctx context.Context, cl *coord.Client, jobID string, wait time.Duration) <-chan claimResult {
	t.Helper()
	got := make(chan claimResult, 1)
	go func() {
		l, err := cl.ClaimWait(ctx, jobID, "parked", wait)
		got <- claimResult{l, err, time.Now()}
	}()
	time.Sleep(parkSettle)
	select {
	case r := <-got:
		t.Fatalf("claim answered before anything happened: lease %+v err %v", r.lease, r.err)
	default:
	}
	return got
}

// parkSettle is how long a test lets a claim reach the handler and park.
const parkSettle = 100 * time.Millisecond

// TestParkedClaimWakesOnSubmit: a parked any-job claim gets the lease
// of a job submitted during its wait within milliseconds, not when the
// wait runs out.
func TestParkedClaimWakesOnSubmit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	got := parkClaim(t, t.Context(), coord.NewClient(ts.URL), "", coord.MaxClaimWait)
	submitted := time.Now()
	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.lease == nil || r.lease.Job != id {
		t.Fatalf("parked claim: lease %+v err %v, want a lease on %s", r.lease, r.err, id)
	}
	if d := r.at.Sub(submitted); d > coord.MaxClaimWait/4 {
		t.Fatalf("parked claim answered %v after the submit", d)
	}
}

// TestParkedClaimJobDone: a claim parked on a job whose every shard is
// leased answers 410 (ErrJobDone) as soon as the job merges.
func TestParkedClaimJobDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.coord.Claim(id, "w")
	if err != nil {
		t.Fatal(err)
	}
	cells := shardCells(t, l)
	got := parkClaim(t, t.Context(), coord.NewClient(ts.URL), id, coord.MaxClaimWait)
	merged := time.Now()
	if err := s.coord.Complete(id, l.Shard, l.Token, "w", cells); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if !errors.Is(r.err, coord.ErrJobDone) {
		t.Fatalf("parked per-job claim: lease %+v err %v, want ErrJobDone", r.lease, r.err)
	}
	if d := r.at.Sub(merged); d > coord.MaxClaimWait/4 {
		t.Fatalf("parked claim answered %v after the merge", d)
	}
}

// TestParkedClaimTimesOut: a park that sees no new work answers 204
// (ErrNoWork) when its wait runs out; a lease that expired meanwhile is
// picked up by that last claim; a cancelled request returns at once.
func TestParkedClaimTimesOut(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SweepLeaseTTL: 150 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := coord.NewClient(ts.URL)

	start := time.Now()
	if _, err := cl.ClaimWait(t.Context(), "", "w", 200*time.Millisecond); !errors.Is(err, coord.ErrNoWork) {
		t.Fatalf("idle park: %v, want ErrNoWork", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > coord.MaxClaimWait {
		t.Fatalf("idle park answered after %v, want the 200ms wait", d)
	}

	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.coord.Claim(id, "dead")
	if err != nil {
		t.Fatal(err)
	}
	l, err := cl.ClaimWait(t.Context(), id, "w", 300*time.Millisecond)
	if err != nil || l.Shard != dead.Shard || l.Token == dead.Token {
		t.Fatalf("park over an expiring lease: lease %+v err %v, want the shard re-leased", l, err)
	}

	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := cl.ClaimWait(ctx, id, "w", coord.MaxClaimWait); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled park: %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > coord.MaxClaimWait/2 {
		t.Fatalf("cancelled park returned after %v", d)
	}
}

// TestSweepResultWaitParam: wait_ms on the result route must be a
// non-negative integer, or the request is a 400 in the error envelope;
// any larger wait, one past the integer range included, is capped at
// MaxClaimWait; and a job that is already done answers at once.
func TestSweepResultWaitParam(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/sweep/" + id + "/result"
	for _, v := range []string{"", "-1", "+5", "1.5", "1e3", "abc", "0x10", "1_000"} {
		rec := do(t, s, "GET", path+"?wait_ms="+v, nil)
		var e errorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("wait_ms=%q: %d %q, want 400 with an error envelope", v, rec.Code, rec.Body.String())
		}
	}
	for _, v := range []string{"0", "1"} {
		if rec := do(t, s, "GET", path+"?wait_ms="+v, nil); rec.Code != http.StatusConflict {
			t.Fatalf("wait_ms=%s on a running job: %d, want 409", v, rec.Code)
		}
	}
	start := time.Now()
	rec := do(t, s, "GET", path+"?wait_ms=99999999999999999999999", nil)
	if d := time.Since(start); rec.Code != http.StatusConflict || d < coord.MaxClaimWait || d > 3*coord.MaxClaimWait {
		t.Fatalf("huge wait_ms: %d after %v, want 409 after the %v cap", rec.Code, d, coord.MaxClaimWait)
	}
	if rec := do(t, s, "GET", "/v1/sweep/j99/result?wait_ms=1000", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404 at once", rec.Code)
	}
	l, err := s.coord.Claim(id, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.coord.Complete(id, l.Shard, l.Token, "w", shardCells(t, l)); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if rec := do(t, s, "GET", path+"?wait_ms=1000", nil); rec.Code != http.StatusOK || time.Since(start) > coord.MaxClaimWait/2 {
		t.Fatalf("done job: %d after %v, want 200 at once", rec.Code, time.Since(start))
	}
}

// TestParkedResultWakesOnMerge: Await parks on the result route and
// answers within milliseconds of the merge, with the merged text, even
// at a poll interval far longer than the test.
func TestParkedResultWakesOnMerge(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.coord.Claim(id, "w")
	if err != nil {
		t.Fatal(err)
	}
	cells := shardCells(t, l)
	type awaited struct {
		dat string
		err error
		at  time.Time
	}
	// A result that does not park would leave Await asleep for its
	// poll; the deadline turns that into a failure.
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	got := make(chan awaited, 1)
	go func() {
		dat, err := coord.NewClient(ts.URL).Await(ctx, id, time.Hour)
		got <- awaited{dat, err, time.Now()}
	}()
	time.Sleep(parkSettle)
	merged := time.Now()
	if err := s.coord.Complete(id, l.Shard, l.Token, "w", cells); err != nil {
		t.Fatal(err)
	}
	r := <-got
	want, err := s.coord.Result(id)
	if r.err != nil || r.dat != string(want) {
		t.Fatalf("Await: %v (merged text equal %v)", r.err, r.dat == string(want))
	}
	if d := r.at.Sub(merged); d > coord.MaxClaimWait/4 {
		t.Fatalf("parked result answered %v after the merge", d)
	}
}

// TestParkedResultReleased: a parked result answers 409 at once when
// its client goes away or the server stops parking, and later result
// requests no longer park.
func TestParkedResultReleased(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/sweep/" + id + "/result?wait_ms=1000"
	// park serves one parked result request on its own goroutine and
	// returns when it answered, after checking it is still parked.
	park := func(ctx context.Context) <-chan int {
		t.Helper()
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, "GET", path, nil))
			done <- rec.Code
		}()
		time.Sleep(parkSettle)
		select {
		case code := <-done:
			t.Fatalf("result answered %d before anything happened", code)
		default:
		}
		return done
	}
	ctx, cancel := context.WithCancel(t.Context())
	done := park(ctx)
	start := time.Now()
	cancel()
	if code := <-done; code != http.StatusConflict || time.Since(start) > coord.MaxClaimWait/4 {
		t.Fatalf("disconnected result: %d after %v, want 409 at once", code, time.Since(start))
	}
	done = park(t.Context())
	start = time.Now()
	s.StopParking()
	if code := <-done; code != http.StatusConflict || time.Since(start) > coord.MaxClaimWait/4 {
		t.Fatalf("result at StopParking: %d after %v, want 409 at once", code, time.Since(start))
	}
	start = time.Now()
	if rec := do(t, s, "GET", path, nil); rec.Code != http.StatusConflict || time.Since(start) > coord.MaxClaimWait/4 {
		t.Fatalf("result after StopParking: %d after %v, want 409 at once", rec.Code, time.Since(start))
	}
}

// TestShutdownWakesParkedClaims: with a claim and a result parked, an
// http.Server wired as cmd/serve wires it drains in well under their
// wait, the claim answers 204 and the result 409, later claims do not
// park, and nothing outlives the drain.
func TestShutdownWakesParkedClaims(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	hs.RegisterOnShutdown(s.StopParking)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{}
	cl := &coord.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: tr}}

	id, err := s.coord.Submit(parkJob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.coord.Claim(id, "dead"); err != nil {
		t.Fatal(err)
	}
	result := make(chan int, 1)
	go func() {
		resp, err := cl.HTTPClient.Get(cl.BaseURL + "/v1/sweep/" + id + "/result?wait_ms=1000")
		if err != nil {
			result <- 0
			return
		}
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	got := parkClaim(t, t.Context(), cl, id, coord.MaxClaimWait)
	start := time.Now()
	if err := hs.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > coord.MaxClaimWait/2 {
		t.Fatalf("Shutdown took %v with a claim and a result parked", d)
	}
	if r := <-got; !errors.Is(r.err, coord.ErrNoWork) {
		t.Fatalf("parked claim at shutdown: lease %+v err %v, want ErrNoWork", r.lease, r.err)
	}
	if code := <-result; code != http.StatusConflict {
		t.Fatalf("parked result at shutdown: status %d, want 409", code)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	start = time.Now()
	if rec := do(t, s, "POST", "/v1/sweep/lease", []byte(`{"wait_ms":1000}`)); rec.Code != http.StatusNoContent || time.Since(start) > coord.MaxClaimWait/2 {
		t.Fatalf("claim after shutdown: %d after %v, want 204 at once", rec.Code, time.Since(start))
	}
	s.Close()
	tr.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzSweepSubmit posts arbitrary bodies to POST /v1/sweep on one
// long-lived server. Every body gets a 4xx, or a job id whose Progress
// is consistent: a known figure, the body's parameters normalized, and
// every shard pending. No body panics the handler or grows the retained
// jobs past the coordinator's bound; none of these jobs finishes, so
// the bound then answers 429.
func FuzzSweepSubmit(f *testing.F) {
	for _, body := range []string{
		`{"figure":"fig2a","seeds":2,"base_seed":1,"shards":4}`,
		`{"figure":"fig2a","shards":1,"lease_ttl_ms":1,"job_key":"k1"}`,
		`{"figure":"fig2a","shards":1,"lease_ttl_ms":-5,"job_key":"k1"}`,
		`{"figure":"fig3","seeds":1,"shards":256,"base_seed":-9}`,
		`{"figure":"fig2a","shards":257}`,
		`{"figure":"fig2a","seeds":-1,"shards":2}`,
		`{"figure":"nope","shards":2}`,
		`{"figure":"fig2a","shards":0}`,
		`{}`,
		`[]`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	const maxJobs = 64 // the coordinator's default bound
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	var ids []string // distinct accepted job ids, in order
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(t, s, "POST", "/v1/sweep", body)
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("%q: status %d (%s), want 200 or 4xx", body, rec.Code, rec.Body.String())
			}
			return
		}
		var sub coord.SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
			t.Fatalf("%q: submit reply %q: %v", body, rec.Body.String(), err)
		}
		rec = do(t, s, "GET", "/v1/sweep/"+sub.ID, nil)
		var p coord.Progress
		if err := json.Unmarshal(rec.Body.Bytes(), &p); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%q: progress of %s: %d %v", body, sub.ID, rec.Code, err)
		}
		if p.ID != sub.ID || p.State != "running" || p.Done != 0 || p.Seeds < 1 ||
			p.Total < 1 || p.Total > 256 || len(p.Shards) != p.Total || !slices.Contains(experiments.FigureIDs(), p.Figure) {
			t.Fatalf("%q: inconsistent progress %+v", body, p)
		}
		for i, sp := range p.Shards {
			if sp.Shard != i || sp.State != "pending" {
				t.Fatalf("%q: shard row %d: %+v", body, i, sp)
			}
		}
		var spec coord.SweepJob
		if json.Unmarshal(body, &spec) == nil && spec.JobKey == "" {
			wantSeeds := spec.Seeds
			if wantSeeds == 0 {
				wantSeeds = 10
			}
			if p.Figure != spec.Figure || p.Total != spec.Shards || p.BaseSeed != spec.BaseSeed || p.Seeds != wantSeeds {
				t.Fatalf("%q: progress %+v does not match the spec", body, p)
			}
		}
		if !slices.Contains(ids, sub.ID) {
			ids = append(ids, sub.ID)
		}
		retained := 0
		for _, id := range ids {
			if do(t, s, "GET", "/v1/sweep/"+id, nil).Code == http.StatusOK {
				retained++
			}
		}
		if retained > maxJobs {
			t.Fatalf("%d jobs retained, bound %d", retained, maxJobs)
		}
	})
}

// FuzzSweepComplete posts batch complete bodies against one live job
// on a durable coordinator. The seeds mix valid, stale, duplicate and
// malformed items, and a folded share claim. Every body answers 200
// with one outcome per item, or a 4xx; none panics or answers 5xx, and
// the job's Progress.Done always equals the items accepted so far.
func FuzzSweepComplete(f *testing.F) {
	s, err := Open(Config{Workers: 1, CoordStateDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	job := parkJob
	job.Shards = 16
	id, err := s.coord.Submit(job)
	if err != nil {
		f.Fatal(err)
	}
	leases, err := s.coord.ClaimShare(id, "w") // shards 0-7
	if err != nil {
		f.Fatal(err)
	}
	item := func(l *coord.Lease, token, cells string) coord.CompleteItem {
		return coord.CompleteItem{Shard: l.Shard, Token: token, Cells: cells}
	}
	cells := make([]string, 3)
	for i := range cells {
		cells[i] = string(shardCells(f, leases[i]))
	}
	for _, req := range []coord.CompleteRequest{
		{Worker: "w", Items: []coord.CompleteItem{item(leases[0], leases[0].Token, cells[0])}},
		{Worker: "w", Items: []coord.CompleteItem{
			item(leases[1], leases[1].Token, cells[1]),
			item(leases[2], "t9.9", cells[2]),
			item(leases[0], leases[0].Token, cells[0]),
			item(leases[3], leases[3].Token, "# streamalloc-cells/v1 fig=fig2a shard=3/16 seeds=2 baseseed=1 units=1\n"),
			item(leases[2], leases[2].Token, cells[1]),
			{Shard: 99, Token: leases[0].Token, Cells: cells[0]},
		}},
		{Worker: "w", Items: []coord.CompleteItem{item(leases[2], leases[2].Token, cells[2])}, Next: &coord.NextClaim{}},
		{Shard: leases[2].Shard, Token: leases[2].Token, Cells: cells[2], Items: []coord.CompleteItem{item(leases[2], leases[2].Token, cells[2])}},
		{Shard: leases[1].Shard, Token: leases[1].Token, Cells: cells[1]},
		{Items: []coord.CompleteItem{{}}},
		{Worker: "w", Items: slices.Repeat([]coord.CompleteItem{item(leases[4], leases[4].Token, cells[0])}, job.Shards+1)},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"worker":"w","shard":0,"items":[{"shard":5,"token":"t9.9","cells":""}]}`))
	f.Add([]byte(`{"items":null}`))
	f.Add([]byte(`{"items":[{"shard":-1}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}}`)) // trailing data after a valid body
	accepted := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(t, s, "POST", "/v1/sweep/"+id+"/complete", body)
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("%q: status %d (%s), want 200 or 4xx", body, rec.Code, rec.Body.String())
			}
		} else {
			var req coord.CompleteRequest
			var resp coord.CompleteResponse
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("%q: answered 200 but does not decode: %v", body, err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: reply %q: %v", body, rec.Body.String(), err)
			}
			switch {
			case len(req.Items) == 0 && !resp.Duplicate:
				accepted++
			case len(req.Items) > 0 && len(resp.Items) != len(req.Items):
				t.Fatalf("%q: %d outcomes for %d items", body, len(resp.Items), len(req.Items))
			}
			for i, o := range resp.Items {
				switch o.Outcome {
				case coord.OutcomeAccepted:
					accepted++
				case coord.OutcomeDuplicate, coord.OutcomeLeaseLost, coord.OutcomeInvalid:
				default:
					t.Fatalf("%q: item %d outcome %q", body, i, o.Outcome)
				}
				if o.Shard != req.Items[i].Shard {
					t.Fatalf("%q: outcome %d answers shard %d, want %d", body, i, o.Shard, req.Items[i].Shard)
				}
			}
		}
		p, err := s.coord.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Done != accepted {
			t.Fatalf("%q: %d shards done, %d items accepted", body, p.Done, accepted)
		}
	})
}

// TestSweepBatchCompleteWire: a batch complete answers one outcome per
// item and its folded claim as a fair share in "leases"; a single
// complete's folded claim still answers one lease in "next". A batch
// with more items than the job has shards, or with the single-form
// fields set, is a 400 that changes nothing.
func TestSweepBatchCompleteWire(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	job := parkJob
	job.Shards = 8
	id, err := s.coord.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	post := func(req coord.CompleteRequest) (*httptest.ResponseRecorder, coord.CompleteResponse) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := do(t, s, "POST", "/v1/sweep/"+id+"/complete", body)
		var resp coord.CompleteResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("reply %q: %v", rec.Body.String(), err)
			}
		}
		return rec, resp
	}
	l, err := s.coord.Claim(id, "w") // shard 0
	if err != nil {
		t.Fatal(err)
	}
	it := coord.CompleteItem{Shard: l.Shard, Token: l.Token, Cells: string(shardCells(t, l))}
	for _, req := range []coord.CompleteRequest{
		{Worker: "w", Items: slices.Repeat([]coord.CompleteItem{it}, job.Shards+1)},
		{Worker: "w", Token: l.Token, Items: []coord.CompleteItem{it}},
	} {
		if rec, _ := post(req); rec.Code != http.StatusBadRequest {
			t.Fatalf("%d items: status %d (%s), want 400", len(req.Items), rec.Code, rec.Body.String())
		}
	}
	// A single-form field beside items is refused by its presence, its
	// zero value included.
	items, err := json.Marshal([]coord.CompleteItem{it})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"shard":0`, `"token":""`, `"cells":""`} {
		body := `{"worker":"w",` + field + `,"items":` + string(items) + `}`
		if rec := do(t, s, "POST", "/v1/sweep/"+id+"/complete", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("batch with %s: status %d (%s), want 400", field, rec.Code, rec.Body.String())
		}
	}
	if p, err := s.coord.Progress(id); err != nil || p.Done != 0 || p.Duplicates != 0 {
		t.Fatalf("refused batches changed the job: %+v, %v", p, err)
	}

	// Shard 0 and a duplicate of it; the share for a lone holder of 7
	// pending shards is ⌊7/2⌋ = 3.
	rec, resp := post(coord.CompleteRequest{Worker: "w", Items: []coord.CompleteItem{it, it}, Next: &coord.NextClaim{Job: id}})
	if rec.Code != http.StatusOK || resp.Next != nil || len(resp.Leases) != 3 ||
		len(resp.Items) != 2 || resp.Items[0].Outcome != coord.OutcomeAccepted || resp.Items[1].Outcome != coord.OutcomeDuplicate {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	l = resp.Leases[0]
	rec, resp = post(coord.CompleteRequest{Worker: "w", Shard: l.Shard, Token: l.Token, Cells: string(shardCells(t, l)), Next: &coord.NextClaim{Job: id}})
	if rec.Code != http.StatusOK || resp.Next == nil || resp.Leases != nil || resp.Items != nil {
		t.Fatalf("single: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFoldedClaimJournalIdentical drives one scripted history twice
// through the HTTP handlers, each time on a durable coordinator under
// the same fake clock: once with a complete request and then a claim
// request per shard, once with the claim folded into the complete. The
// history takes every kind of complete — refused, accepted, duplicate,
// the last one that merges — and claims that find a lease, no work, or
// their pinned job done. Both journals must match byte for byte.
func TestFoldedClaimJournalIdentical(t *testing.T) {
	run := func(fold bool) []byte {
		dir := t.TempDir()
		now := time.Unix(1_000_000, 0)
		s := newTestServer(t, Config{Workers: 1})
		s.coord.Close()
		var err error
		s.coord, err = coord.Open(coord.Config{
			DefaultLeaseTTL: 10 * time.Second,
			StateDir:        dir,
			Now:             func() time.Time { return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		post := func(path string, body any) *httptest.ResponseRecorder {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			return do(t, s, "POST", path, raw)
		}
		claim := func(job, worker string) (*coord.Lease, int) {
			path := "/v1/sweep/lease"
			if job != "" {
				path = "/v1/sweep/" + job + "/lease"
			}
			rec := post(path, coord.ClaimRequest{Worker: worker})
			if rec.Code != http.StatusOK {
				return nil, rec.Code
			}
			var l coord.Lease
			if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
			return &l, rec.Code
		}
		// step completes l for worker and claims its next lease from job.
		step := func(name string, l *coord.Lease, worker, job string, wantDup bool, wantClaim int) *coord.Lease {
			t.Helper()
			req := coord.CompleteRequest{Shard: l.Shard, Token: l.Token, Worker: worker, Cells: string(shardCells(t, l))}
			if fold {
				req.Next = &coord.NextClaim{Job: job}
			}
			rec := post("/v1/sweep/"+l.Job+"/complete", req)
			var resp coord.CompleteResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || resp.Duplicate != wantDup {
				t.Fatalf("fold=%v %s: complete %d %s", fold, name, rec.Code, rec.Body.String())
			}
			next, code := resp.Next, http.StatusOK
			if !fold {
				next, code = claim(job, worker)
			} else if next == nil {
				code = wantClaim // a folded claim does not say why it found nothing
			}
			if code != wantClaim {
				t.Fatalf("fold=%v %s: claim answered %d, want %d", fold, name, code, wantClaim)
			}
			return next
		}
		two := parkJob
		two.Shards = 2
		three := parkJob
		three.Shards = 3
		a, err := s.coord.Submit(two)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.coord.Submit(three)
		if err != nil {
			t.Fatal(err)
		}
		// A refused complete claims nothing, folded or not: here a claim
		// would find a pending shard and journal it.
		refused := coord.CompleteRequest{Shard: 0, Token: "bogus", Worker: "w1", Cells: "x"}
		if fold {
			refused.Next = &coord.NextClaim{}
		}
		if rec := post("/v1/sweep/"+a+"/complete", refused); rec.Code != http.StatusConflict || strings.Contains(rec.Body.String(), "next") {
			t.Fatalf("fold=%v refused complete: %d %s", fold, rec.Code, rec.Body.String())
		}
		slow, _ := claim(a, "slow")
		now = now.Add(11 * time.Second) // slow's lease expires
		l0, _ := claim(a, "w1")
		a1 := step("complete, pinned claim", l0, "w1", a, false, http.StatusOK)
		b0 := step("duplicate, any-job claim", slow, "slow", "", true, http.StatusOK)
		b1 := step("merge a, any-job claim", a1, "w1", "", false, http.StatusOK)
		b2 := step("complete, pinned claim", b0, "slow", b, false, http.StatusOK)
		step("complete, pinned job has no work", b1, "w1", b, false, http.StatusNoContent)
		step("merge b, pinned job done", b2, "slow", b, false, http.StatusGone)
		step("late duplicate, nothing running", a1, "w1", "", true, http.StatusNoContent)
		for _, id := range []string{a, b} {
			if rec := do(t, s, "GET", "/v1/sweep/"+id+"/result", nil); rec.Code != http.StatusOK {
				t.Fatalf("fold=%v: result of %s: %d", fold, id, rec.Code)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sep, fold := run(false), run(true)
	if len(sep) == 0 || !bytes.Equal(sep, fold) {
		t.Fatalf("folded claims wrote a different journal (%d vs %d bytes)", len(fold), len(sep))
	}
}
