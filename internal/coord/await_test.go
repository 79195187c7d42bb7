package coord

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestAwaitLongPolls: Await asks for the result with wait_ms set to
// MaxClaimWait and returns the merged text; it does not fetch
// Progress. A 409 that took longer than poll (a wait that ran out) is
// asked again at once, not a poll later.
func TestAwaitLongPolls(t *testing.T) {
	const poll, parked = 100 * time.Millisecond, 120 * time.Millisecond
	var (
		calls    atomic.Int32
		answered atomic.Int64 // when the last 409 went out, Unix ns
		gap      atomic.Int64 // the longest pause between a 409 and the next request
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if r.URL.Path != "/v1/sweep/j1/result" || r.URL.Query().Get("wait_ms") != "1000" {
			t.Errorf("request %d: %s %s, want the result with wait_ms=1000", n, r.Method, r.URL)
		}
		if last := answered.Load(); last > 0 {
			gap.Store(max(gap.Load(), time.Now().UnixNano()-last))
		}
		if n < 3 {
			time.Sleep(parked)
			answered.Store(time.Now().UnixNano())
			http.Error(w, `{"error":"coord: job not done yet"}`, http.StatusConflict)
			return
		}
		w.Write([]byte("merged\n"))
	}))
	defer srv.Close()
	dat, err := NewClient(srv.URL).Await(t.Context(), "j1", poll)
	if err != nil || dat != "merged\n" || calls.Load() != 3 {
		t.Fatalf("Await: %q, %v after %d requests", dat, err, calls.Load())
	}
	if d := time.Duration(gap.Load()); d > poll/2 {
		t.Fatalf("Await paused %v after a parked 409", d)
	}
}

// TestAwaitOlderDaemon: a daemon that ignores wait_ms answers 409 at
// once while the job runs. Await then asks once per poll interval and
// never spins: at most elapsed/poll + 1 requests.
func TestAwaitOlderDaemon(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"coord: job not done yet"}`, http.StatusConflict)
	}))
	defer srv.Close()
	const poll = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(t.Context(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewClient(srv.URL).Await(ctx, "j1", poll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await: %v, want context.DeadlineExceeded", err)
	}
	if n, most := int(calls.Load()), int(elapsed/poll)+1; n > most || n < 2 {
		t.Fatalf("%d requests in %v at a %v poll, want 2 to %d", n, elapsed, poll, most)
	}
}

// TestAwaitErrors: a failed job returns the coordinator's merge error
// text as it is, and an unknown job ErrUnknownJob.
func TestAwaitErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/sweep/j1/result":
			http.Error(w, `{"error":"coord: job j1 failed: boom"}`, http.StatusBadRequest)
		default:
			http.Error(w, `{"error":"coord: unknown job"}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()
	cl := NewClient(srv.URL)
	if _, err := cl.Await(t.Context(), "j1", time.Millisecond); err == nil || err.Error() != "coord: job j1 failed: boom" {
		t.Fatalf("failed job: %v", err)
	}
	if _, err := cl.Await(t.Context(), "j9", time.Millisecond); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}
}
