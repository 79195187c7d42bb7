// Package serve is the allocation daemon behind cmd/serve: it turns the
// repository's near-zero-alloc solve pipeline into a long-running HTTP
// service. Every request runs on its own HTTP goroutine. A solve or
// verify borrows one of a fixed set of warmed arenas
// (instance.Generator, heuristics.SolveContext, stream.Runner) for the
// length of its run — never shared, mirroring the per-worker isolation
// of par.ForEachWorker — and gives it back before writing its answer.
// At most Workers+QueueDepth solve/verify requests are admitted at
// once; beyond that the server sheds load with 429 + Retry-After
// instead of building an unbounded backlog. Per-request deadlines ride
// the standard context cancellation, checked while waiting for an
// arena and between the portfolio's heuristics; Close drains
// gracefully (stop admitting, finish in-flight, no goroutine outlives
// the call).
//
// Endpoints:
//
//	POST /v1/solve   instance spec or corpus ref -> best mapping + cost
//	                 + per-heuristic breakdown (deterministic JSON:
//	                 byte-identical at any worker count)
//	POST /v1/verify  instance + mapping -> stream-engine verification
//	POST /v1/sweep   submit a distributed figure sweep; plus lease
//	                 claim/renew/complete and progress/result routes —
//	                 see sweep.go and internal/coord
//	POST /v1/scenario  create a churn session: a live incumbent
//	                 allocation answering dynamic events (application
//	                 arrivals/departures, rate drift) by journaled
//	                 local repair; plus per-session event/status/delete
//	                 routes — see scenario.go and internal/churn. A
//	                 session that could exceed the operator cap, or an
//	                 arrival that would, is refused with 413
//	GET  /healthz    liveness ("ok")
//	GET  /statsz     JSON counters: requests, rejections, in-flight,
//	                 p50/p99 latency, per-arena reuse stats,
//	                 sweep coordinator lease/re-lease/merge counters,
//	                 churn session/outcome/migration counters
//
// Every response the solve and verify endpoints produce is a pure
// function of the request body: arenas carry no identity into results,
// randomness is reseeded per request from the request's seed, and
// portfolio ties break in the paper's fixed heuristic order.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/heuristics"
)

// Config tunes the daemon. The zero value serves with one arena per
// CPU, room for four waiting requests per arena, a 10s default / 60s
// maximum per-request deadline and a 2000-operator instance cap.
type Config struct {
	// Workers is the number of warmed solve arenas, and so of solve and
	// verify requests that run at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many admitted solve and verify requests may
	// wait for an arena; beyond it the server sheds load with 429. <= 0
	// means 4*Workers.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// <= 0 means 10s. MaxTimeout caps it like any other deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every request's deadline; <= 0 means 60s.
	MaxTimeout time.Duration
	// MaxOps rejects instances larger than this many operators with
	// 413 before they reach an arena; it also refuses scenario sessions
	// whose applications, or whose most live operators at once, could
	// exceed it (judged after the generator's defaults), and arrivals
	// that would take a session past it. <= 0 means 2000.
	MaxOps int
	// SweepLeaseTTL is the default lease deadline the sweep coordinator
	// grants workers; <= 0 means the coordinator's 30s default. Jobs may
	// override per submission via lease_ttl_ms.
	SweepLeaseTTL time.Duration
	// CoordStateDir, when set, makes the sweep coordinator durable:
	// job state is journaled + snapshotted there and recovered on the
	// next start (see internal/coord). Empty means in-memory only.
	CoordStateDir string
}

// maxBodyBytes bounds request bodies; an inline 2000-operator instance
// with full holder tables marshals well under this.
const maxBodyBytes = 8 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	c.DefaultTimeout = min(c.DefaultTimeout, c.MaxTimeout)
	if c.MaxOps <= 0 {
		c.MaxOps = 2000
	}
	return c
}

// Server is the allocation service: an http.Handler whose solve and
// verify requests borrow warmed arenas. Create with New, serve via any
// http.Server, then Close to drain. Safe for concurrent use by any
// number of HTTP goroutines.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	envs chan *env // idle arenas; a solve or verify borrows one

	mu       sync.Mutex // orders admission against Close
	draining bool
	admitted int            // solve and verify requests admitted, not yet answered
	active   sync.WaitGroup // admitted requests and arena warmers

	stats   counters
	lat     latencyWindow
	workers []workerStats // one per arena

	// coord schedules distributed sweep jobs (see sweep.go). It owns no
	// goroutines — lease expiry is lazy — so Close only has to flush its
	// durable state (final snapshot + journal fsync), never to drain.
	// Claims and results parked on it live on their HTTP goroutines;
	// parkStop, closed by StopParking, sends them home.
	coord    *coord.Coordinator
	parkStop chan struct{}
	parkOnce sync.Once

	// scenarios are the live churn sessions (see scenario.go). Sessions
	// own no goroutines — events run inline on HTTP goroutines — so
	// Close has nothing extra to drain here either. scenSlots holds one
	// token per live session and per create still solving.
	scenMu    sync.Mutex
	scenarios map[string]*scenarioSession
	scenSeq   int64
	scenSlots chan struct{}

	// testHookJobStart, when set before any request arrives, runs on the
	// HTTP goroutine of every solve and verify once it holds an arena;
	// tests use it to hold arenas busy deterministically (queue-full,
	// deadline and drain paths).
	testHookJobStart func()
	// testHookEventStep, when set, runs on the HTTP goroutine just before
	// every churn-session engine step, under the session mutex; tests use
	// it to inject a panic into the step.
	testHookEventStep func()
	// testHookDeadline, when set, sees every request context
	// requestContext bounds; tests read its deadline.
	testHookDeadline func(context.Context)
}

// New opens the Server and returns it ready to serve. It panics when
// Config asks for a durable coordinator whose state dir cannot be
// opened — use Open to handle that error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns the ready-to-serve Server. Its Workers arenas warm in
// the background, so Open does not wait for them and the first
// requests do not pay cold-buffer growth; a request that arrives
// before any arena is warm waits for one as it would for a busy one.
// When Config.CoordStateDir is set, the sweep coordinator recovers any
// journaled job state from it before the first request is served; an
// unreadable or corrupt state dir fails the open rather than silently
// dropping committed jobs.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		envs:     make(chan *env, cfg.Workers),
		workers:  make([]workerStats, cfg.Workers),
		parkStop: make(chan struct{}),
	}
	s.stats.started = time.Now()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		s.stats.solveReqs.Add(1)
		s.dispatch(w, r, jobSolve)
	})
	s.mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		s.stats.verifyReqs.Add(1)
		s.dispatch(w, r, jobVerify)
	})
	var err error
	s.coord, err = coord.Open(coord.Config{
		DefaultLeaseTTL: cfg.SweepLeaseTTL,
		StateDir:        cfg.CoordStateDir,
	})
	if err != nil {
		return nil, fmt.Errorf("opening sweep coordinator state: %w", err)
	}
	s.registerSweep()
	s.registerScenario()
	s.active.Add(cfg.Workers)
	for i := range s.workers {
		go func() {
			defer s.active.Done()
			e := &env{stats: &s.workers[i]}
			e.warm()
			s.envs <- e
		}()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StopParking answers every parked sweep claim with 204, and every
// parked result with 409, at once, and makes later ones answer without
// parking. Register it with http.Server.RegisterOnShutdown, so a drain
// never waits out a parked request; Close calls it too. Safe to call
// more than once.
func (s *Server) StopParking() {
	s.parkOnce.Do(func() { close(s.parkStop) })
}

// Close drains the server: no further solve or verify request is
// admitted (they get 503), every admitted one finishes and is
// answered, and Close returns only once every admitted request and
// every arena warmer has finished. A durable sweep coordinator then
// takes a final snapshot and fsyncs its journal, so a clean shutdown
// recovers without replay. Safe to call more than once.
func (s *Server) Close() {
	s.StopParking()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.active.Wait()
	_ = s.coord.Close()
}

// admit counts a solve or verify request in and returns 0, or returns
// why it is refused: 503 while draining, 429 when Workers+QueueDepth
// requests are already admitted. Counting in under the mutex orders it
// against Close, so no request is admitted once Close waits.
func (s *Server) admit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return http.StatusServiceUnavailable
	case s.admitted >= s.cfg.Workers+s.cfg.QueueDepth:
		return http.StatusTooManyRequests
	}
	s.admitted++
	s.active.Add(1)
	return 0
}

// release counts an answered request out.
func (s *Server) release() {
	s.mu.Lock()
	s.admitted--
	s.mu.Unlock()
	s.active.Done()
}

// requestContext bounds a request by its timeout_ms, or by
// DefaultTimeout when it sets none, never beyond MaxTimeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, time.Duration) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = min(time.Duration(timeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	if s.testHookDeadline != nil {
		s.testHookDeadline(ctx)
	}
	return ctx, cancel, timeout
}

// dispatch parses, admits and runs one solve/verify request on its own
// HTTP goroutine. Validation that needs no arena (JSON shape, heuristic
// names, size caps) happens before admission, so malformed traffic
// never occupies an arena.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind jobKind) {
	body, herr := readBody(r, maxBodyBytes)
	var (
		solve     *solveRequest
		verify    *verifyRequest
		timeoutMS int64
	)
	switch {
	case herr != nil:
	case kind == jobSolve:
		if solve, herr = parseSolveRequest(body, s.cfg.MaxOps); herr == nil {
			timeoutMS = solve.TimeoutMS
		}
	default:
		if verify, herr = parseVerifyRequest(body, s.cfg.MaxOps); herr == nil {
			timeoutMS = verify.TimeoutMS
		}
	}
	if herr != nil {
		s.clientError(w, herr.status, herr.msg)
		return
	}
	ctx, cancel, timeout := s.requestContext(r, timeoutMS)
	defer cancel()

	start := time.Now()
	switch s.admit() {
	case http.StatusServiceUnavailable:
		s.stats.rejectedDrain.Add(1)
		w.Header().Set("Connection", "close")
		s.clientError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case http.StatusTooManyRequests:
		s.stats.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		s.clientError(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	defer s.release()
	resp, herr, ok := s.run(ctx, solve, verify)
	switch {
	case !ok:
		s.stats.timeouts.Add(1)
		s.clientError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("deadline exceeded after %s", timeout))
		return
	case herr != nil:
		s.clientError(w, herr.status, herr.msg)
	default:
		s.writeOK(w, resp)
	}
	s.lat.record(time.Since(start))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// clientError writes a uniform JSON error envelope and counts it.
func (s *Server) clientError(w http.ResponseWriter, status int, msg string) {
	if status >= 500 {
		s.stats.serverErr.Add(1)
	} else {
		s.stats.clientErr.Add(1)
	}
	body, _ := json.Marshal(errorResponse{Error: msg})
	writeJSON(w, status, append(body, '\n'))
}

// writeOK marshals and writes one 200 reply, counting it.
func (s *Server) writeOK(w http.ResponseWriter, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		s.clientError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.stats.ok.Add(1)
	writeJSON(w, http.StatusOK, append(buf, '\n'))
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// errorResponse is the uniform error envelope of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// httpError carries a status+message pair out of request parsing.
type httpError struct {
	status int
	msg    string
}

// readBody reads a request body of at most limit bytes: 400 when the
// read fails, 413 when the body is longer.
func readBody(r *http.Request, limit int) ([]byte, *httpError) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("reading body: %v", err)}
	}
	if len(body) > limit {
		return nil, &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	return body, nil
}

// decodeStrict is the one JSON decoder behind every request body: it
// refuses unknown fields and trailing data, so a typo'd request fails
// loudly instead of running with defaults.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Only whitespace may follow. (Decoder.More is no test here: it
	// answers false before a stray '}' or ']'.)
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// decode is readBody followed by decodeStrict into dst. On failure it
// answers readBody's status, or 400 when the body is not valid JSON for
// dst, and returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int, dst any) bool {
	body, herr := readBody(r, limit)
	if herr != nil {
		s.clientError(w, herr.status, herr.msg)
		return false
	}
	if err := decodeStrict(body, dst); err != nil {
		s.clientError(w, http.StatusBadRequest, fmt.Sprintf("decoding JSON: %v", err))
		return false
	}
	return true
}

// heuristicsFor resolves a request's heuristic field: empty or "all"
// means the paper's full portfolio, anything else one named heuristic.
func heuristicsFor(name string) ([]heuristics.Heuristic, *httpError) {
	if name == "" || name == "all" {
		return heuristics.All(), nil
	}
	h, err := heuristics.ByName(name)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return []heuristics.Heuristic{h}, nil
}
