// Package serve is the allocation daemon behind cmd/serve: it turns the
// repository's near-zero-alloc solve pipeline into a long-running HTTP
// service. A fixed-size pool of workers — each owning a warmed
// per-worker arena (instance.Generator, heuristics.SolveContext,
// stream.Runner), never shared, mirroring the per-worker
// isolation of par.ForEachWorker — drains a bounded admission queue fed
// by the HTTP handlers. When the queue is full the server sheds load
// with 429 + Retry-After instead of building an unbounded backlog;
// per-request deadlines ride the standard context cancellation, checked
// between the portfolio's heuristics; Close drains gracefully (stop
// admitting, finish in-flight, no goroutine outlives the call).
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
//	                 p50/p99 latency, per-worker arena reuse stats,
//	                 sweep coordinator lease/re-lease/merge counters,
//	                 churn session/outcome/migration counters
//
// Every response the solve and verify endpoints produce is a pure
// function of the request body: workers carry no identity into results,
// randomness is reseeded per request from the request's seed, and
// portfolio ties break in the paper's fixed heuristic order.
package serve

import (
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

// Config tunes the daemon. The zero value serves with one worker per
// CPU, a queue of four waiting requests per worker, a 10s default /
// 60s maximum per-request deadline and a 2000-operator instance cap.
type Config struct {
	// Workers is the number of solve workers (and warmed arenas);
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker; beyond it the server sheds load with 429. <= 0 means
	// 4*Workers.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// <= 0 means 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; <= 0 means 60s.
	MaxTimeout time.Duration
	// MaxOps rejects instances larger than this many operators with
	// 413 before they reach a worker; it also refuses scenario sessions
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
	if c.MaxOps <= 0 {
		c.MaxOps = 2000
	}
	return c
}

// Server is the allocation service: an http.Handler backed by the
// worker pool. Create with New, serve via any http.Server, then Close
// to drain. Safe for concurrent use by any number of HTTP goroutines.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job

	mu       sync.RWMutex // guards draining vs. enqueue races
	draining bool
	wg       sync.WaitGroup // worker goroutines

	stats   counters
	lat     latencyWindow
	workers []workerStats

	// coord schedules distributed sweep jobs (see sweep.go). It owns no
	// goroutines — lease expiry is lazy — so Close only has to flush its
	// durable state (final snapshot + journal fsync), never to drain.
	// Claims parked on it live on their HTTP goroutines; parkStop,
	// closed by StopParking, sends them home.
	coord    *coord.Coordinator
	parkStop chan struct{}
	parkOnce sync.Once

	// scenarios are the live churn sessions (see scenario.go). Sessions
	// own no goroutines — events run inline on HTTP goroutines — so
	// Close has nothing extra to drain here either.
	scenMu    sync.Mutex
	scenarios map[string]*scenarioSession
	scenSeq   int64

	// testHookJobStart, when set before any request arrives, runs on the
	// worker goroutine at the start of every job; tests use it to hold
	// workers busy deterministically (queue-full and deadline paths).
	testHookJobStart func()
	// testHookEventStep, when set, runs on the HTTP goroutine just before
	// every churn-session engine step, under the session mutex; tests use
	// it to inject a panic into the step.
	testHookEventStep func()
}

// New starts the worker pool and returns the ready-to-serve Server.
// It panics when Config asks for a durable coordinator whose state dir
// cannot be opened — use Open to handle that error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts the worker pool and returns the ready-to-serve Server.
// Each worker owns its arenas exclusively and warms them immediately,
// so the first requests do not pay cold-buffer growth. When
// Config.CoordStateDir is set, the sweep coordinator recovers any
// journaled job state from it before the first request is served; an
// unreadable or corrupt state dir fails the open rather than silently
// dropping committed jobs.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		workers:  make([]workerStats, cfg.Workers),
		parkStop: make(chan struct{}),
	}
	s.stats.started = time.Now()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		s.dispatch(w, r, jobSolve)
	})
	s.mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
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
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker(w)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Handler returns the server's route mux (identical to using the
// Server itself as an http.Handler).
func (s *Server) Handler() http.Handler { return s.mux }

// StopParking answers every parked sweep claim with 204 at once and
// makes later claims answer without parking. Register it with
// http.Server.RegisterOnShutdown, so a drain never waits out a parked
// claim; Close calls it too. Safe to call more than once.
func (s *Server) StopParking() {
	s.parkOnce.Do(func() { close(s.parkStop) })
}

// Close drains the pool: no further requests are admitted (they get
// 503), queued and in-flight requests finish and are answered, and
// every worker goroutine has exited when Close returns. A durable
// sweep coordinator then takes a final snapshot and fsyncs its
// journal, so a clean shutdown recovers without replay. Safe to call
// more than once.
func (s *Server) Close() {
	s.StopParking()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	_ = s.coord.Close()
}

// admission is the outcome of trying to hand a job to the pool.
type admission int

const (
	admitted admission = iota
	admitFull
	admitDraining
)

// enqueue offers the job to the pool without blocking. The read lock
// orders it against Close: the queue can only be closed while no
// enqueue is in flight, so sends never hit a closed channel.
func (s *Server) enqueue(jb *job) admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return admitDraining
	}
	select {
	case s.queue <- jb:
		return admitted
	default:
		return admitFull
	}
}

// dispatch parses, admits and awaits one solve/verify request. Request
// validation that needs no solver state (JSON shape, heuristic names,
// size caps) happens here on the HTTP goroutine, so malformed traffic
// never occupies a worker.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind jobKind) {
	switch kind {
	case jobSolve:
		s.stats.solveReqs.Add(1)
	case jobVerify:
		s.stats.verifyReqs.Add(1)
	}
	body, herr := readBody(r, maxBodyBytes)
	if herr != nil {
		s.clientError(w, herr.status, herr.msg)
		return
	}
	jb := &job{kind: kind, done: make(chan jobResult, 1)}
	var timeoutMS int64
	switch kind {
	case jobSolve:
		req, herr := parseSolveRequest(body, s.cfg.MaxOps)
		if herr != nil {
			s.clientError(w, herr.status, herr.msg)
			return
		}
		jb.solve = req
		timeoutMS = req.TimeoutMS
	case jobVerify:
		req, herr := parseVerifyRequest(body, s.cfg.MaxOps)
		if herr != nil {
			s.clientError(w, herr.status, herr.msg)
			return
		}
		jb.verify = req
		timeoutMS = req.TimeoutMS
	}
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	jb.ctx = ctx

	start := time.Now()
	switch s.enqueue(jb) {
	case admitDraining:
		s.stats.rejectedDrain.Add(1)
		w.Header().Set("Connection", "close")
		s.clientError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case admitFull:
		s.stats.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		s.clientError(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	select {
	case res := <-jb.done:
		s.lat.record(time.Since(start))
		if res.status >= 500 {
			s.stats.serverErr.Add(1)
		} else if res.status >= 400 {
			s.stats.clientErr.Add(1)
		} else {
			s.stats.ok.Add(1)
		}
		writeJSON(w, res.status, res.body)
	case <-ctx.Done():
		// The worker may still pick the job up; it will see the expired
		// context, skip the solve and discard its buffered reply.
		s.stats.timeouts.Add(1)
		s.clientError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("deadline exceeded after %s", timeout))
	}
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

// writeOK marshals and writes one 200 reply of the sweep and scenario
// routes, counting it.
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

// decodeBody is readBody followed by a JSON decode into dst (400 when
// the body is not valid JSON for dst).
func decodeBody(r *http.Request, limit int, dst any) *httpError {
	body, herr := readBody(r, limit)
	if herr != nil {
		return herr
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return &httpError{http.StatusBadRequest, fmt.Sprintf("decoding JSON: %v", err)}
	}
	return nil
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
