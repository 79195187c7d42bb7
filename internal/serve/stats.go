package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
)

// counters are the server-wide monotonic counters behind /statsz.
// Written with atomics from HTTP goroutines; read without
// coordination (a statsz snapshot need not be a consistent cut).
type counters struct {
	started       time.Time
	solveReqs     atomic.Int64
	verifyReqs    atomic.Int64
	ok            atomic.Int64
	clientErr     atomic.Int64
	serverErr     atomic.Int64
	rejectedFull  atomic.Int64
	rejectedDrain atomic.Int64
	timeouts      atomic.Int64
	inFlight      atomic.Int64

	// Churn-session counters (see scenario.go): session creations,
	// events answered, per-outcome splits, total operator migrations
	// and events whose engine step panicked, across every session's
	// lifetime.
	scenarioReqs   atomic.Int64
	scenarioEvents atomic.Int64
	churnRepaired  atomic.Int64
	churnResolved  atomic.Int64
	churnRejected  atomic.Int64
	churnMoved     atomic.Int64
	churnPanics    atomic.Int64
}

// workerStats are one arena's counters, written only by the request
// holding the arena.
type workerStats struct {
	jobs   atomic.Int64 // solve and verify requests run on the arena
	solves atomic.Int64 // heuristic solves executed
	sims   atomic.Int64 // stream-engine simulations executed
}

// latencyWindow keeps the last windowSize request latencies (admitted
// requests that completed, in milliseconds) and answers percentile
// queries by copy-and-sort — cheap at this size, and the write path is
// a single indexed store under the mutex.
type latencyWindow struct {
	mu    sync.Mutex
	ring  [latencyWindowSize]float64
	n     int   // filled entries, <= len(ring)
	next  int   // write cursor
	total int64 // lifetime completions
}

const latencyWindowSize = 1024

func (l *latencyWindow) record(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	l.mu.Lock()
	l.ring[l.next] = ms
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// quantiles returns the window's p50 and p99 plus the lifetime count.
func (l *latencyWindow) quantiles() (p50, p99 float64, total int64) {
	l.mu.Lock()
	buf := make([]float64, l.n)
	copy(buf, l.ring[:l.n])
	total = l.total
	l.mu.Unlock()
	if len(buf) == 0 {
		return 0, 0, total
	}
	sort.Float64s(buf)
	idx := func(q float64) float64 {
		i := int(q * float64(len(buf)-1))
		return buf[i]
	}
	return idx(0.50), idx(0.99), total
}

// statszResponse is the GET /statsz JSON document.
type statszResponse struct {
	UptimeS    float64 `json:"uptime_s"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	Queued     int     `json:"queued"` // admitted, waiting for an arena
	InFlight   int64   `json:"in_flight"`
	Draining   bool    `json:"draining"`

	SolveRequests    int64 `json:"solve_requests"`
	VerifyRequests   int64 `json:"verify_requests"`
	OK               int64 `json:"ok"`
	ClientErrors     int64 `json:"client_errors"`
	ServerErrors     int64 `json:"server_errors"`
	Rejected429      int64 `json:"rejected_429"`
	RejectedDraining int64 `json:"rejected_draining"`
	Timeouts         int64 `json:"timeouts"`

	Latency struct {
		Count int64   `json:"count"`
		P50MS float64 `json:"p50_ms"`
		P99MS float64 `json:"p99_ms"`
	} `json:"latency"`

	PerWorker []workerStatsJSON `json:"per_worker"` // one entry per arena

	// Sweep carries the distributed sweep coordinator's lifetime
	// counters: jobs, leases granted, renewals, releases (expired leases
	// re-offered — straggler and dead-worker recoveries), duplicate
	// completions discarded, and merge latency.
	Sweep coord.SweepStats `json:"sweep"`

	// Churn carries the scenario sessions' lifetime counters: how many
	// sessions were created and are live, events answered, the
	// repair/re-solve/reject outcome split, total surviving operators
	// migrated — the number local repair exists to minimize — and
	// events whose engine step panicked (answered 500).
	Churn struct {
		Live     int   `json:"live"`
		Created  int64 `json:"created"`
		Events   int64 `json:"events"`
		Repaired int64 `json:"repaired"`
		Resolved int64 `json:"resolved"`
		Rejected int64 `json:"rejected"`
		Moved    int64 `json:"operators_moved"`
		Panics   int64 `json:"panics"`
	} `json:"churn"`
}

// workerStatsJSON is one arena's counters. Arenas are warmed before
// they are first lent, so every solve reuses a warm arena and
// arena_reuses equals solves.
type workerStatsJSON struct {
	Worker      int   `json:"worker"`
	Jobs        int64 `json:"jobs"`
	Solves      int64 `json:"solves"`
	Sims        int64 `json:"sims"`
	ArenaReuses int64 `json:"arena_reuses"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	inFlight := s.stats.inFlight.Load()
	s.mu.Lock()
	draining, admitted := s.draining, s.admitted
	s.mu.Unlock()
	resp := statszResponse{
		UptimeS:    time.Since(s.stats.started).Seconds(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     max(0, admitted-int(inFlight)),
		InFlight:   inFlight,
		Draining:   draining,

		SolveRequests:    s.stats.solveReqs.Load(),
		VerifyRequests:   s.stats.verifyReqs.Load(),
		OK:               s.stats.ok.Load(),
		ClientErrors:     s.stats.clientErr.Load(),
		ServerErrors:     s.stats.serverErr.Load(),
		Rejected429:      s.stats.rejectedFull.Load(),
		RejectedDraining: s.stats.rejectedDrain.Load(),
		Timeouts:         s.stats.timeouts.Load(),
	}
	resp.Latency.P50MS, resp.Latency.P99MS, resp.Latency.Count = s.lat.quantiles()
	resp.Sweep = s.coord.StatsSnapshot()
	s.scenMu.Lock()
	resp.Churn.Live = len(s.scenarios)
	s.scenMu.Unlock()
	resp.Churn.Created = s.stats.scenarioReqs.Load()
	resp.Churn.Events = s.stats.scenarioEvents.Load()
	resp.Churn.Repaired = s.stats.churnRepaired.Load()
	resp.Churn.Resolved = s.stats.churnResolved.Load()
	resp.Churn.Rejected = s.stats.churnRejected.Load()
	resp.Churn.Moved = s.stats.churnMoved.Load()
	resp.Churn.Panics = s.stats.churnPanics.Load()
	for i := range s.workers {
		ws := &s.workers[i]
		solves := ws.solves.Load()
		resp.PerWorker = append(resp.PerWorker, workerStatsJSON{
			Worker:      i,
			Jobs:        ws.jobs.Load(),
			Solves:      solves,
			Sims:        ws.sims.Load(),
			ArenaReuses: solves,
		})
	}
	body, err := json.MarshalIndent(&resp, "", "  ")
	if err != nil {
		s.clientError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, append(body, '\n'))
}
