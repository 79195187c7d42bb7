package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/instance"
)

// -update regenerates the committed golden responses (shared with the
// serve-smoke CI script): go test ./internal/serve -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do posts body (or GETs when body is nil) against the server's handler.
func do(t *testing.T, s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == nil {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (run with -update to create)", path, err)
	}
	return data
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestSolveGolden pins the solve endpoint byte-for-byte against the
// committed golden (the same file the serve-smoke CI script diffs
// against a live daemon), so the response can never drift between the
// in-process handler and the HTTP surface.
func TestSolveGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	reqBody := readFile(t, filepath.Join("testdata", "solve_request.json"))
	rec := do(t, s, "POST", "/v1/solve", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	golden := filepath.Join("testdata", "solve_golden.json")
	if *update {
		if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readFile(t, golden); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("solve response differs from %s:\n got: %s\nwant: %s", golden, rec.Body.Bytes(), want)
	}
}

// TestVerifyGolden closes the loop: the committed verify request embeds
// the mapping from the solve golden, and the stream engine's verdict is
// pinned byte-for-byte too.
func TestVerifyGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	reqBody := readFile(t, filepath.Join("testdata", "verify_request.json"))
	rec := do(t, s, "POST", "/v1/verify", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("verify = %d: %s", rec.Code, rec.Body.String())
	}
	golden := filepath.Join("testdata", "verify_golden.json")
	if *update {
		if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readFile(t, golden); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("verify response differs from %s:\n got: %s\nwant: %s", golden, rec.Body.Bytes(), want)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("golden mapping failed verification: %+v", resp)
	}
}

// TestVerifyRequestMatchesSolveGolden pins the testdata consistency:
// the committed verify request must carry exactly the mapping the solve
// golden reports, so regenerating one without the other fails loudly.
func TestVerifyRequestMatchesSolveGolden(t *testing.T) {
	var solveResp SolveResponse
	if err := json.Unmarshal(readFile(t, filepath.Join("testdata", "solve_golden.json")), &solveResp); err != nil {
		t.Fatal(err)
	}
	var verifyReq VerifyRequest
	if err := json.Unmarshal(readFile(t, filepath.Join("testdata", "verify_request.json")), &verifyReq); err != nil {
		t.Fatal(err)
	}
	if solveResp.Best == nil || verifyReq.Mapping == nil {
		t.Fatal("goldens incomplete")
	}
	got, _ := json.Marshal(verifyReq.Mapping)
	want, _ := json.Marshal(&solveResp.Best.Mapping)
	if !bytes.Equal(got, want) {
		t.Fatalf("verify_request.json mapping drifted from solve_golden.json:\n got: %s\nwant: %s", got, want)
	}
}

// TestSolveDeterministicAcrossWorkerCounts is the worker-count
// determinism pin: the same request body must produce byte-identical
// responses at 1, 2 and 8 workers, repeatedly, under concurrency.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	reqs := [][]byte{
		[]byte(`{"ref":{"n":40,"alpha":0.9,"seed":7}}`),
		[]byte(`{"ref":{"n":25,"alpha":1.1,"seed":3},"heuristic":"Comp-Greedy","seed":5}`),
		[]byte(`{"ref":{"n":60,"alpha":1.7,"seed":2}}`), // infeasible cells answer deterministically too
	}
	var want [][]byte
	{
		s := newTestServer(t, Config{Workers: 1})
		for _, body := range reqs {
			rec := do(t, s, "POST", "/v1/solve", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("workers=1: %d: %s", rec.Code, rec.Body.String())
			}
			want = append(want, rec.Body.Bytes())
		}
	}
	for _, workers := range []int{2, 8} {
		s := newTestServer(t, Config{Workers: workers, QueueDepth: 64})
		// Hammer every request a few times concurrently so jobs really
		// spread over distinct workers and reused arenas.
		var wg sync.WaitGroup
		errs := make(chan string, len(reqs)*6)
		for round := 0; round < 6; round++ {
			for i, body := range reqs {
				wg.Add(1)
				go func(i int, body []byte) {
					defer wg.Done()
					rec := do(t, s, "POST", "/v1/solve", body)
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("workers=%d req %d: status %d", workers, i, rec.Code)
						return
					}
					if !bytes.Equal(rec.Body.Bytes(), want[i]) {
						errs <- fmt.Sprintf("workers=%d req %d: body differs from workers=1", workers, i)
					}
				}(i, body)
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

func TestSolveInlineInstance(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Round-trip an instance through its JSON form and solve it inline;
	// the response must match the equivalent ref-derived request.
	recRef := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":20,"alpha":0.9,"seed":4}}`))
	if recRef.Code != http.StatusOK {
		t.Fatalf("ref solve: %d: %s", recRef.Code, recRef.Body.String())
	}
	inst := genInstanceJSON(t, 20, 0.9, 4)
	inline := []byte(`{"instance":` + string(inst) + `}`)
	recInline := do(t, s, "POST", "/v1/solve", inline)
	if recInline.Code != http.StatusOK {
		t.Fatalf("inline solve: %d: %s", recInline.Code, recInline.Body.String())
	}
	if !bytes.Equal(recRef.Body.Bytes(), recInline.Body.Bytes()) {
		t.Fatalf("inline instance solve differs from ref solve:\n ref: %s\n inl: %s",
			recRef.Body.Bytes(), recInline.Body.Bytes())
	}
}

func TestSolveBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxOps: 100})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both ref and instance", `{"ref":{"n":5,"seed":1},"instance":{}}`, http.StatusBadRequest},
		{"malformed JSON", `{"ref":`, http.StatusBadRequest},
		{"unknown field", `{"ref":{"n":5,"seed":1},"heuristics":"all"}`, http.StatusBadRequest},
		{"unknown heuristic", `{"ref":{"n":5,"seed":1},"heuristic":"Simulated-Annealing"}`, http.StatusBadRequest},
		{"n too small", `{"ref":{"n":0,"seed":1}}`, http.StatusBadRequest},
		{"n over cap", `{"ref":{"n":101,"seed":1}}`, http.StatusRequestEntityTooLarge},
		{"get method", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var rec *httptest.ResponseRecorder
		if tc.name == "get method" {
			rec = do(t, s, "GET", "/v1/solve", nil)
		} else {
			rec = do(t, s, "POST", "/v1/solve", []byte(tc.body))
		}
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestVerifyRejectsInvalidMapping(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Structurally broken: operator assigned to a processor that does
	// not exist.
	bad := `{"ref":{"n":5,"alpha":0.9,"seed":1},"mapping":{"procs":[{"cpu":4,"nic":4}],"assign":[0,0,0,0,9],"downloads":[]}}`
	rec := do(t, s, "POST", "/v1/verify", []byte(bad))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid proc index: %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	// Well-formed but infeasible: everything on the weakest processor
	// with no downloads selected.
	weak := `{"ref":{"n":20,"alpha":0.9,"seed":1},"mapping":{"procs":[{"cpu":0,"nic":0}],"assign":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"downloads":[]}}`
	rec = do(t, s, "POST", "/v1/verify", []byte(weak))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible mapping: %d, want 422 (%s)", rec.Code, rec.Body.String())
	}
}

// TestQueueFullSheds429 pins the admission contract: with the single
// worker held busy and the queue full, the next request is shed
// immediately with 429 + Retry-After rather than waiting.
func TestQueueFullSheds429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	started := make(chan struct{}, 8)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}
	defer once.Do(func() { close(release) })

	body := []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1}}`)
	type result struct{ code int }
	results := make(chan result, 2)
	post := func() {
		rec := do(t, s, "POST", "/v1/solve", body)
		results <- result{rec.Code}
	}
	go post() // occupies the worker
	<-started // worker is now provably busy
	go post() // occupies the queue's single slot
	// The queued job never reaches the hook; give the enqueue a moment.
	waitFor(t, func() bool { return len(s.queue) == 1 })

	rec := do(t, s, "POST", "/v1/solve", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.stats.rejectedFull.Load(); got != 1 {
		t.Fatalf("rejected_429 = %d, want 1", got)
	}

	once.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("held request %d finished with %d", i, r.code)
		}
	}
}

// TestDeadlineExceeded covers both timeout paths: a request whose
// deadline expires while the worker is busy (answered 504 by the
// handler) and one that expires before a worker picks it up (the worker
// skips the solve).
func TestDeadlineExceeded(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	started := make(chan struct{}, 8)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}
	defer once.Do(func() { close(release) })

	slow := []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1}}`)
	go func() {
		do(t, s, "POST", "/v1/solve", slow)
	}()
	<-started

	// This request can only wait in the queue; its 1ms budget expires
	// there and the handler must answer 504 without a worker.
	rec := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1},"timeout_ms":1}`))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued timeout: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if got := s.stats.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	once.Do(func() { close(release) })
	// The worker eventually drains the expired job and skips its solve;
	// the skip is visible as a job without a solve.
	waitFor(t, func() bool {
		return s.workers[0].jobs.Load() >= 2
	})
}

// TestDrainGoroutineLeak is the graceful-drain pin, patterned on the
// par/core leak tests: requests complete, Close returns, and no pool or
// handler goroutine survives.
func TestDrainGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"ref":{"n":20,"alpha":0.9,"seed":%d}}`, i%4+1)
			do(t, s, "POST", "/v1/solve", []byte(body))
		}(i)
	}
	wg.Wait()
	s.Close()
	s.Close() // idempotent

	// Requests arriving after Close are refused, not queued.
	rec := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":5,"seed":1}}`))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", rec.Code)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatszCounters drives every counter class and checks the JSON.
func TestStatszCounters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	if rec := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":20,"alpha":0.9,"seed":1}}`)); rec.Code != http.StatusOK {
		t.Fatalf("solve: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/solve", []byte(`not json`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad solve: %d", rec.Code)
	}
	rec := do(t, s, "GET", "/statsz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz: %d", rec.Code)
	}
	var st statszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, rec.Body.String())
	}
	if st.Workers != 2 || st.QueueDepth != 4 {
		t.Fatalf("statsz config echo: %+v", st)
	}
	if st.SolveRequests != 2 || st.OK != 1 || st.ClientErrors != 1 {
		t.Fatalf("statsz counters: %+v", st)
	}
	if st.Latency.Count != 1 || st.Latency.P50MS <= 0 {
		t.Fatalf("statsz latency: %+v", st.Latency)
	}
	var jobs, solves, reuses int64
	for _, w := range st.PerWorker {
		jobs += w.Jobs
		solves += w.Solves
		reuses += w.ArenaReuses
	}
	// A feasible portfolio request solves each of the six heuristics
	// once; the winner is kept, not solved again.
	if jobs != 1 || solves != 6 || reuses < 1 {
		t.Fatalf("statsz per-worker: %+v", st.PerWorker)
	}
}

// waitFor polls cond with a deadline; used where the interesting state
// is reached asynchronously but promptly.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// genInstanceJSON produces the JSON form of the same generated
// instance a {n, alpha, seed} ref resolves to on the server.
func genInstanceJSON(t testing.TB, n int, alpha float64, seed int64) []byte {
	t.Helper()
	var gen instance.Generator
	in := gen.Generate(instance.Config{NumOps: n, Alpha: alpha}, seed)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
