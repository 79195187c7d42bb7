package serve

import (
	"bytes"
	"context"
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
		{"trailing value", `{"ref":{"n":5,"seed":1}} {}`, http.StatusBadRequest},
		{"trailing brace", `{"ref":{"n":5,"seed":1}}}`, http.StatusBadRequest},
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
// arena held busy and the queue full, the next request is shed
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
	go post() // holds the only arena
	<-started // the arena is now provably busy
	go post() // takes the queue's single slot, waiting for the arena
	// The waiting request never reaches the hook; give its admission a
	// moment.
	waitFor(t, func() bool { return statsz(t, s).Queued == 1 })

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

// TestDeadlineExceeded covers a request whose deadline expires while it
// waits for the only arena, held busy: it is answered 504 without ever
// running.
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

	// This request can only wait for the arena; its 1ms budget expires
	// there and the handler must answer 504 without running.
	rec := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1},"timeout_ms":1}`))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued timeout: status %d, want 504 (%s)", rec.Code, rec.Body.String())
	}
	if got := s.stats.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

// TestRequestDeadlines pins the one deadline rule of every route: a
// request's timeout_ms, or DefaultTimeout when it sets none, capped at
// MaxTimeout — the default included, for solves and scenario events
// alike.
func TestRequestDeadlines(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultTimeout: 90 * time.Second, MaxTimeout: 60 * time.Second})
	var got time.Duration
	s.testHookDeadline = func(ctx context.Context) {
		dl, _ := ctx.Deadline()
		got = time.Until(dl)
	}
	id := scenarioStatus(t, do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":4}`)).Body.Bytes()).ID
	cases := []struct {
		name, path, body string
		want             time.Duration
	}{
		{"solve, default", "/v1/solve", `{"ref":{"n":5,"seed":1}}`, 60 * time.Second},
		{"solve, over the cap", "/v1/solve", `{"ref":{"n":5,"seed":1},"timeout_ms":120000}`, 60 * time.Second},
		{"solve, under the cap", "/v1/solve", `{"ref":{"n":5,"seed":1},"timeout_ms":500}`, 500 * time.Millisecond},
		{"event, default", "/v1/scenario/" + id + "/event", `{"kind":"drift","slot":0,"factor":1.1}`, 60 * time.Second},
		{"event, over the cap", "/v1/scenario/" + id + "/event", `{"kind":"drift","slot":0,"factor":1.1,"timeout_ms":120000}`, 60 * time.Second},
		{"event, under the cap", "/v1/scenario/" + id + "/event", `{"kind":"drift","slot":0,"factor":1.1,"timeout_ms":500}`, 500 * time.Millisecond},
	}
	for _, tc := range cases {
		got = 0
		if rec := do(t, s, "POST", tc.path, []byte(tc.body)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.name, rec.Code, rec.Body.String())
		}
		if got > tc.want || got < tc.want-time.Second {
			t.Errorf("%s: deadline %s from now, want %s", tc.name, got, tc.want)
		}
	}
}

// TestArenaAlwaysReturns runs one arena through every way a run can
// end — a panic, a deadline passed mid-run, a 422 — and then requires
// a plain solve to be answered promptly: an arena lost on any path
// would leave it waiting out its deadline.
func TestArenaAlwaysReturns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var hook func()
	s.testHookJobStart = func() {
		if hook != nil {
			hook()
		}
	}
	solve := []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1}}`)

	hook = func() { panic("injected run failure") }
	if rec := do(t, s, "POST", "/v1/solve", solve); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking solve: %d (%s), want 500", rec.Code, rec.Body.String())
	}

	before := statsz(t, s)
	hook = func() { time.Sleep(40 * time.Millisecond) }
	rec := do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1},"timeout_ms":20}`))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("solve past its deadline: %d (%s), want 504", rec.Code, rec.Body.String())
	}
	after := statsz(t, s)
	if after.Timeouts != before.Timeouts+1 || after.ServerErrors != before.ServerErrors+1 {
		t.Fatalf("timeouts %d -> %d, server_errors %d -> %d; want each up by 1",
			before.Timeouts, after.Timeouts, before.ServerErrors, after.ServerErrors)
	}

	hook = nil
	weak := `{"ref":{"n":20,"alpha":0.9,"seed":1},"mapping":{"procs":[{"cpu":0,"nic":0}],"assign":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"downloads":[]}}`
	if rec := do(t, s, "POST", "/v1/verify", []byte(weak)); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible verify: %d (%s), want 422", rec.Code, rec.Body.String())
	}

	rec = do(t, s, "POST", "/v1/solve", []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1},"timeout_ms":1000}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("solve after every exit path: %d (%s), want 200", rec.Code, rec.Body.String())
	}
}

// TestCloseWaitsForInFlight calls Close with a solve held on the only
// arena: Close must wait for it, refuse new requests meanwhile, and
// return once the held solve is answered, leaving no goroutine behind.
func TestCloseWaitsForInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	s.testHookJobStart = func() {
		close(started)
		<-release
	}
	solve := []byte(`{"ref":{"n":5,"alpha":0.9,"seed":1}}`)
	held := make(chan int)
	go func() { held <- do(t, s, "POST", "/v1/solve", solve).Code }()
	<-started
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, func() bool { return statsz(t, s).Draining })
	select {
	case <-closed:
		t.Fatal("Close returned while a solve was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if rec := do(t, s, "POST", "/v1/solve", solve); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: %d (%s), want 503", rec.Code, rec.Body.String())
	}

	close(release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held solve: %d, want 200", code)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the held solve was answered")
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestDrainGoroutineLeak is the graceful-drain pin, patterned on the
// par and Solver leak tests: requests complete, Close returns, and no pool or
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

// statsz fetches and decodes GET /statsz.
func statsz(t *testing.T, s *Server) statszResponse {
	t.Helper()
	var st statszResponse
	rec := do(t, s, "GET", "/statsz", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, rec.Body.String())
	}
	return st
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
