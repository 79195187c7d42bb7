package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
