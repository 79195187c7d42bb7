package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestNewClientParsesFailoverList(t *testing.T) {
	c := NewClient("http://a:8080")
	if c.BaseURL != "http://a:8080" {
		t.Fatalf("BaseURL = %q", c.BaseURL)
	}
	if c.Endpoints != nil {
		t.Fatalf("single URL must leave Endpoints nil, got %v", c.Endpoints)
	}

	c = NewClient(" http://a:8080/ , http://b:9090 ")
	if c.BaseURL != "http://a:8080" {
		t.Fatalf("BaseURL = %q", c.BaseURL)
	}
	want := []string{"http://a:8080", "http://b:9090"}
	if len(c.Endpoints) != len(want) {
		t.Fatalf("Endpoints = %v, want %v", c.Endpoints, want)
	}
	for i := range want {
		if c.Endpoints[i] != want[i] {
			t.Fatalf("Endpoints[%d] = %q, want %q", i, c.Endpoints[i], want[i])
		}
	}
}

// TestClientFailover points a Client at a dead endpoint followed by a
// live daemon and requires the call to succeed by rotating — and the
// answering endpoint to become the sticky primary for the next call.
func TestClientFailover(t *testing.T) {
	live := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live++
		w.WriteHeader(http.StatusNotFound) // any HTTP answer proves the transport worked
	}))
	defer srv.Close()

	// 127.0.0.1:1 refuses connections essentially everywhere.
	c := NewClient("http://127.0.0.1:1," + srv.URL)
	if len(c.Endpoints) != 2 {
		t.Fatalf("Endpoints = %v", c.Endpoints)
	}

	_, err := c.Progress(context.Background(), "nope")
	if err != ErrUnknownJob {
		t.Fatalf("Progress after rotation: err = %v, want ErrUnknownJob", err)
	}
	if live != 1 {
		t.Fatalf("live endpoint hit %d times, want 1", live)
	}
	if got := c.cursor.Load(); got != 1 {
		t.Fatalf("cursor = %d after failover, want 1 (sticky primary)", got)
	}

	// The second call must go straight to the live endpoint.
	if _, err := c.Progress(context.Background(), "nope"); err != ErrUnknownJob {
		t.Fatalf("second Progress: err = %v", err)
	}
	if live != 2 {
		t.Fatalf("live endpoint hit %d times, want 2", live)
	}
}

// TestClientAllEndpointsDown requires the last transport error back
// when the whole rotation is unreachable.
func TestClientAllEndpointsDown(t *testing.T) {
	c := NewClient("http://127.0.0.1:1,http://127.0.0.1:1")
	if _, err := c.Progress(context.Background(), "x"); err == nil {
		t.Fatal("want a transport error when every endpoint is down")
	}
}

// TestClientSubmitIdempotentAcrossFailover is the double-submit
// regression: the primary commits a Submit but dies before answering,
// the client rotates and retries against a replica sharing the same
// coordinator — the auto-generated job key must dedupe, leaving
// exactly one job.
func TestClientSubmitIdempotentAcrossFailover(t *testing.T) {
	co := New(Config{Now: newFakeClock().Now})
	submitHandler := func(kill *bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var spec SweepJob
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				t.Errorf("decoding submit: %v", err)
			}
			if spec.JobKey == "" {
				t.Error("Client.Submit sent no job_key")
			}
			id, err := co.Submit(spec)
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
			if *kill {
				*kill = false
				// Commit happened; die before the response reaches the
				// client, like a crashing primary.
				panic(http.ErrAbortHandler)
			}
			json.NewEncoder(w).Encode(SubmitResponse{ID: id})
		}
	}
	killNext := true
	primary := httptest.NewServer(submitHandler(&killNext))
	defer primary.Close()
	noKill := false
	replica := httptest.NewServer(submitHandler(&noKill))
	defer replica.Close()

	c := NewClient(primary.URL + "," + replica.URL)
	id, err := c.Submit(context.Background(), testJob(2))
	if err != nil {
		t.Fatalf("Submit across failover: %v", err)
	}
	st := co.StatsSnapshot()
	if st.JobsSubmitted != 1 {
		t.Fatalf("jobs_submitted = %d after failover retry, want 1 (double-submit)", st.JobsSubmitted)
	}
	if st.SubmitsDeduped != 1 {
		t.Fatalf("submits_deduped = %d, want 1", st.SubmitsDeduped)
	}
	if _, err := co.Progress(id); err != nil {
		t.Fatalf("returned id %q unknown to the coordinator: %v", id, err)
	}

	// Distinct Submit calls must still create distinct jobs: the key is
	// per-call, not per-client.
	if _, err := c.Submit(context.Background(), testJob(2)); err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if st := co.StatsSnapshot(); st.JobsSubmitted != 2 {
		t.Fatalf("jobs_submitted = %d after a distinct Submit, want 2", st.JobsSubmitted)
	}
}

// TestClientFailoverResendsBody verifies a POST body survives rotation:
// the live endpoint must receive the full JSON payload even though the
// first endpoint failed mid-flight.
func TestClientFailoverResendsBody(t *testing.T) {
	var gotWorker string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding rotated body: %v", err)
		}
		gotWorker = req.Worker
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	c := NewClient("http://127.0.0.1:1," + srv.URL)
	if _, err := c.Claim(context.Background(), "job", "w1"); err != ErrNoWork {
		t.Fatalf("Claim: err = %v, want ErrNoWork", err)
	}
	if gotWorker != "w1" {
		t.Fatalf("rotated request body lost: worker = %q, want %q", gotWorker, "w1")
	}
}
