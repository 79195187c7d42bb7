package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/churn"
	"repro/internal/heuristics"
	"repro/internal/instance"
)

// Scenario endpoints: stateful churn sessions (internal/churn) mounted
// on the daemon. A session holds a live incumbent allocation and
// answers dynamic events — applications arriving and departing,
// throughput targets drifting — by journaled local repair (or, for
// comparison, a from-scratch portfolio re-solve), so a client can drive
// a long-lived deployment through workload changes without ever
// re-shipping the platform state. Like the sweep routes these never
// borrow a solve arena: a single event's repair is far cheaper than a
// cold solve, sessions are serialized by their own mutex, and the work
// runs inline on the HTTP goroutine, so churn traffic can neither
// occupy an arena nor be shed by solve admission.
//
//	POST   /v1/scenario              create a session (initial solve; optional
//	                                 generated event stream) -> {"id": ...}
//	POST   /v1/scenario/{id}/event   apply one dynamic event to the incumbent
//	GET    /v1/scenario/{id}         incumbent + lifetime outcome counters
//	DELETE /v1/scenario/{id}         close the session
//
// Status mapping: 404 unknown session, 409 session busy (an event is
// in flight; one writer at a time), 422 no feasible initial mapping,
// 429 too many live sessions, 504 deadline expired mid-answer (the
// engine rolls the event back; the incumbent is untouched).

// maxScenarios bounds live sessions; beyond it creation sheds load
// with 429 until a client DELETEs one.
const maxScenarios = 64

// scenarioSession is one live churn engine plus its lifetime counters.
// The mutex serializes events: the engine mutates its incumbent in
// place, so a session admits one writer at a time and status reads
// take the same lock for a consistent snapshot.
type scenarioSession struct {
	mu       sync.Mutex
	id       string
	eng      *churn.Engine
	events   int
	repaired int
	resolved int
	rejected int
	moved    int
}

// registerScenario mounts the churn-session routes on the server mux.
func (s *Server) registerScenario() {
	s.scenarios = make(map[string]*scenarioSession)
	s.scenSlots = make(chan struct{}, maxScenarios)
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenarioCreate)
	s.mux.HandleFunc("POST /v1/scenario/{id}/event", s.handleScenarioEvent)
	s.mux.HandleFunc("GET /v1/scenario/{id}", s.handleScenarioStatus)
	s.mux.HandleFunc("DELETE /v1/scenario/{id}", s.handleScenarioDelete)
}

// ScenarioSpec is the generator half of a create request: the knobs of
// churn.ScenarioConfig a client may set, JSON-shaped. Events > 0
// additionally generates that many seeded events and applies them all
// at creation, returning their per-event trace — the one-shot
// benchmark shape; Events == 0 creates a session holding only the
// initial allocation, to be driven by POSTed events.
type ScenarioSpec struct {
	InitialApps int     `json:"initial_apps,omitempty"`
	Events      int     `json:"events,omitempty"`
	MinOps      int     `json:"min_ops,omitempty"`
	MaxOps      int     `json:"max_ops,omitempty"`
	Rho         float64 `json:"rho,omitempty"`
	ArriveFrac  float64 `json:"arrive_frac,omitempty"`
	DepartFrac  float64 `json:"depart_frac,omitempty"`
	MaxApps     int     `json:"max_apps,omitempty"`
	Drift       string  `json:"drift,omitempty"` // "both" (default), "up", "down"
	DriftMax    float64 `json:"drift_max,omitempty"`
	RhoMin      float64 `json:"rho_min,omitempty"`
	RhoMax      float64 `json:"rho_max,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"` // object-universe skew of the base instance
}

// ScenarioRequest is the POST /v1/scenario body. Policy is "repair"
// (default) or "resolve"; Seed drives the scenario generator, the
// initial solve and every per-event random stream, so one (body) pair
// is one reproducible trajectory. BudgetMS optionally bounds each
// event's refinement pass by wall clock; TimeoutMS bounds the whole
// request (initial solve plus any generated events) like the solve
// endpoints.
type ScenarioRequest struct {
	Scenario  ScenarioSpec `json:"scenario"`
	Policy    string       `json:"policy,omitempty"`
	Seed      int64        `json:"seed,omitempty"`
	BudgetMS  int64        `json:"budget_ms,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// ScenarioEventRequest is the POST /v1/scenario/{id}/event body. Kind
// selects which remaining fields are read, mirroring churn.Event:
// arrivals carry num_ops/tree_seed/rho, departures slot, drifts
// slot/factor.
type ScenarioEventRequest struct {
	Kind      string  `json:"kind"`
	NumOps    int     `json:"num_ops,omitempty"`
	TreeSeed  int64   `json:"tree_seed,omitempty"`
	Rho       float64 `json:"rho,omitempty"`
	Slot      int     `json:"slot,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// ScenarioEventResult is one answered event on the wire.
type ScenarioEventResult struct {
	Kind    string  `json:"kind"`
	Outcome string  `json:"outcome"` // "repaired", "resolved", "rejected"
	Cost    float64 `json:"cost"`    // incumbent platform cost after the event
	Procs   int     `json:"procs"`
	Moved   int     `json:"moved"` // surviving operators migrated
	Ops     int     `json:"ops"`
	Apps    int     `json:"apps"`
	WallMS  float64 `json:"wall_ms"`
	Error   string  `json:"error,omitempty"` // rejection reason
}

// ScenarioStatus is the GET /v1/scenario/{id} document and the
// create response (which adds the generated events' trace).
type ScenarioStatus struct {
	ID       string                `json:"id"`
	Policy   string                `json:"policy"`
	Cost     float64               `json:"cost"`
	Procs    int                   `json:"procs"`
	Apps     int                   `json:"apps"`
	Ops      int                   `json:"ops"`
	Events   int                   `json:"events"`
	Repaired int                   `json:"repaired"`
	Resolved int                   `json:"resolved"`
	Rejected int                   `json:"rejected"`
	Moved    int                   `json:"moved"`
	Trace    []ScenarioEventResult `json:"trace,omitempty"`
}

// driftModelFor parses the wire drift-model name.
func driftModelFor(name string) (churn.DriftModel, *httpError) {
	switch name {
	case "", "both":
		return churn.DriftBoth, nil
	case "up":
		return churn.DriftUp, nil
	case "down":
		return churn.DriftDown, nil
	}
	return 0, &httpError{http.StatusBadRequest,
		fmt.Sprintf("unknown drift model %q (want both, up or down)", name)}
}

// scenarioCreate is a validated POST /v1/scenario body.
type scenarioCreate struct {
	req    ScenarioRequest
	policy churn.Policy
	cfg    churn.ScenarioConfig
}

// parseScenarioCreate decodes and validates a create body against the
// server's operator cap. It runs on the HTTP goroutine before any
// generation or solve.
func parseScenarioCreate(body []byte, maxOps int) (*scenarioCreate, *httpError) {
	sc := &scenarioCreate{}
	if err := decodeStrict(body, &sc.req); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("decoding JSON: %v", err)}
	}
	var herr *httpError
	if sc.policy, herr = policyFor(sc.req.Policy); herr != nil {
		return nil, herr
	}
	if sc.cfg, herr = scenarioConfigFor(sc.req.Scenario, maxOps); herr != nil {
		return nil, herr
	}
	return sc, nil
}

// scenarioConfigFor validates a spec and converts it to the generator's
// config. The operator cap applies to the configuration the generator
// will actually use, defaults included: no application may exceed
// maxOps, and neither may the most operators the session can hold at
// once — max(initial_apps, max_apps) applications of max_ops each.
func scenarioConfigFor(spec ScenarioSpec, maxOps int) (churn.ScenarioConfig, *httpError) {
	var cc churn.ScenarioConfig
	if spec.Events < 0 || spec.Events > 10_000 {
		return cc, &httpError{http.StatusBadRequest,
			fmt.Sprintf("events must be in [0, 10000], got %d", spec.Events)}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"initial_apps", float64(spec.InitialApps)}, {"min_ops", float64(spec.MinOps)},
		{"max_ops", float64(spec.MaxOps)}, {"max_apps", float64(spec.MaxApps)},
		{"rho", spec.Rho}, {"drift_max", spec.DriftMax},
		{"rho_min", spec.RhoMin}, {"rho_max", spec.RhoMax},
		{"arrive_frac", spec.ArriveFrac}, {"depart_frac", spec.DepartFrac},
		{"alpha", spec.Alpha},
	} {
		if f.v < 0 {
			return cc, &httpError{http.StatusBadRequest,
				fmt.Sprintf("%s must be >= 0, got %g", f.name, f.v)}
		}
	}
	if spec.MinOps > 0 && spec.MaxOps > 0 && spec.MinOps > spec.MaxOps {
		return cc, &httpError{http.StatusBadRequest,
			fmt.Sprintf("min_ops %d exceeds max_ops %d", spec.MinOps, spec.MaxOps)}
	}
	if spec.ArriveFrac > 1 || spec.DepartFrac > 1 || spec.ArriveFrac+spec.DepartFrac > 1 {
		return cc, &httpError{http.StatusBadRequest,
			"arrive_frac + depart_frac must not exceed 1"}
	}
	drift, herr := driftModelFor(spec.Drift)
	if herr != nil {
		return cc, herr
	}
	cc = churn.ScenarioConfig{
		InitialApps: spec.InitialApps,
		Events:      spec.Events,
		MinOps:      spec.MinOps,
		MaxOps:      spec.MaxOps,
		Rho:         spec.Rho,
		ArriveFrac:  spec.ArriveFrac,
		DepartFrac:  spec.DepartFrac,
		MaxApps:     spec.MaxApps,
		Drift:       drift,
		DriftMax:    spec.DriftMax,
		RhoMin:      spec.RhoMin,
		RhoMax:      spec.RhoMax,
		Base:        instance.Config{Alpha: spec.Alpha},
	}
	eff := cc.WithDefaults()
	if eff.MaxOps > maxOps {
		return cc, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("applications of up to %d operators exceed the server's limit of %d operators", eff.MaxOps, maxOps)}
	}
	if apps := max(eff.InitialApps, eff.MaxApps); apps > maxOps/eff.MaxOps {
		return cc, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("up to %d live applications of up to %d operators exceed the server's limit of %d operators",
				apps, eff.MaxOps, maxOps)}
	}
	return cc, nil
}

// policyFor parses the wire policy name.
func policyFor(name string) (churn.Policy, *httpError) {
	switch name {
	case "", "repair":
		return churn.PolicyRepair, nil
	case "resolve":
		return churn.PolicyResolve, nil
	}
	return 0, &httpError{http.StatusBadRequest,
		fmt.Sprintf("unknown policy %q (want repair or resolve)", name)}
}

// eventResultJSON renders one engine answer for the wire.
func eventResultJSON(er churn.EventResult) ScenarioEventResult {
	out := ScenarioEventResult{
		Kind:    er.Event.Kind.String(),
		Outcome: er.Outcome.String(),
		Cost:    er.Cost,
		Procs:   er.Procs,
		Moved:   er.Moved,
		Ops:     er.Ops,
		Apps:    er.Apps,
		WallMS:  float64(er.Wall.Nanoseconds()) / 1e6,
	}
	if er.Err != nil {
		out.Error = er.Err.Error()
	}
	return out
}

// statusLocked snapshots a session; callers hold ses.mu.
func (ses *scenarioSession) statusLocked() ScenarioStatus {
	return ScenarioStatus{
		ID:       ses.id,
		Policy:   ses.eng.Policy().String(),
		Cost:     ses.eng.Cost(),
		Procs:    ses.eng.Procs(),
		Apps:     ses.eng.Apps(),
		Ops:      ses.eng.Ops(),
		Events:   ses.events,
		Repaired: ses.repaired,
		Resolved: ses.resolved,
		Rejected: ses.rejected,
		Moved:    ses.moved,
	}
}

// noteEvent folds one answered event into the session's and the
// server's counters; callers hold ses.mu.
func (s *Server) noteEvent(ses *scenarioSession, er churn.EventResult) {
	ses.events++
	s.stats.scenarioEvents.Add(1)
	switch er.Outcome {
	case churn.Repaired:
		ses.repaired++
		s.stats.churnRepaired.Add(1)
	case churn.Resolved:
		ses.resolved++
		s.stats.churnResolved.Add(1)
	case churn.Rejected:
		ses.rejected++
		s.stats.churnRejected.Add(1)
	}
	ses.moved += er.Moved
	s.stats.churnMoved.Add(int64(er.Moved))
}

// handleScenarioCreate runs the initial solve (plus any generated
// events) and registers the session.
func (s *Server) handleScenarioCreate(w http.ResponseWriter, r *http.Request) {
	body, herr := readBody(r, maxBodyBytes)
	var create *scenarioCreate
	if herr == nil {
		create, herr = parseScenarioCreate(body, s.cfg.MaxOps)
	}
	if herr != nil {
		s.clientError(w, herr.status, herr.msg)
		return
	}
	// Take a session slot before the work, so that at the cap a create
	// answers 429 without generating events or solving. Every exit
	// before registration hands the slot back.
	select {
	case s.scenSlots <- struct{}{}:
	default:
		s.clientError(w, http.StatusTooManyRequests,
			fmt.Sprintf("at most %d live scenario sessions; DELETE one first", maxScenarios))
		return
	}
	ses := &scenarioSession{}
	defer func() {
		if ses.id == "" {
			<-s.scenSlots
		}
	}()

	req := create.req
	sc := churn.NewScenario(create.cfg, req.Seed)
	// events == 0 on the wire means "no generated stream" (a session
	// driven purely by POSTed events), but the generator's zero-value
	// default is a nonempty stream — truncate it away.
	if req.Scenario.Events == 0 {
		sc.Events = nil
	}
	ses.eng = churn.NewEngine(churn.Options{
		Policy: create.policy,
		Seed:   req.Seed,
		Budget: time.Duration(req.BudgetMS) * time.Millisecond,
	})

	ctx, cancel, _ := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	var trace []ScenarioEventResult
	if err := ses.eng.Start(sc); err != nil {
		if errors.Is(err, heuristics.ErrInfeasible) {
			s.clientError(w, http.StatusUnprocessableEntity, err.Error())
		} else {
			s.clientError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	for _, ev := range sc.Events {
		er, err := ses.eng.Step(ctx, ev)
		if err != nil {
			s.stats.timeouts.Add(1)
			s.clientError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("generated event stream: %v (session not created)", err))
			return
		}
		s.noteEvent(ses, er)
		trace = append(trace, eventResultJSON(er))
	}

	s.scenMu.Lock()
	s.scenSeq++
	ses.id = fmt.Sprintf("c%06d", s.scenSeq)
	s.scenarios[ses.id] = ses
	s.scenMu.Unlock()
	s.stats.scenarioReqs.Add(1)

	ses.mu.Lock()
	status := ses.statusLocked()
	status.Trace = trace
	ses.mu.Unlock()
	s.writeOK(w, status)
}

// lookupScenario resolves {id} or answers 404.
func (s *Server) lookupScenario(w http.ResponseWriter, r *http.Request) *scenarioSession {
	s.scenMu.Lock()
	ses := s.scenarios[r.PathValue("id")]
	s.scenMu.Unlock()
	if ses == nil {
		s.clientError(w, http.StatusNotFound,
			fmt.Sprintf("unknown scenario session %q", r.PathValue("id")))
	}
	return ses
}

// eventFor converts a wire event; the engine re-validates against the
// live application list under the session lock.
func eventFor(req ScenarioEventRequest) (churn.Event, *httpError) {
	switch req.Kind {
	case "arrive":
		return churn.Event{Kind: churn.Arrive, NumOps: req.NumOps, TreeSeed: req.TreeSeed, Rho: req.Rho}, nil
	case "depart":
		return churn.Event{Kind: churn.Depart, Slot: req.Slot}, nil
	case "drift":
		return churn.Event{Kind: churn.Drift, Slot: req.Slot, Factor: req.Factor}, nil
	}
	return churn.Event{}, &httpError{http.StatusBadRequest,
		fmt.Sprintf("unknown event kind %q (want arrive, depart or drift)", req.Kind)}
}

func (s *Server) handleScenarioEvent(w http.ResponseWriter, r *http.Request) {
	var req ScenarioEventRequest
	if !s.decode(w, r, maxBodyBytes, &req) {
		return
	}
	ev, herr := eventFor(req)
	if herr != nil {
		s.clientError(w, herr.status, herr.msg)
		return
	}
	ses := s.lookupScenario(w, r)
	if ses == nil {
		return
	}
	ctx, cancel, _ := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// One writer at a time: the engine mutates the incumbent in place,
	// and queueing writers behind a long repair would stack deadlines,
	// so a busy session answers 409 immediately instead.
	if !ses.mu.TryLock() {
		s.clientError(w, http.StatusConflict,
			fmt.Sprintf("scenario session %q has an event in flight", ses.id))
		return
	}
	// An arrival may not take the session past the operator cap.
	if ev.Kind == churn.Arrive && ev.NumOps > s.cfg.MaxOps-ses.eng.Ops() {
		ses.mu.Unlock()
		s.clientError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("num_ops %d on top of %d live operators exceeds the server's limit of %d operators",
				ev.NumOps, ses.eng.Ops(), s.cfg.MaxOps))
		return
	}
	er, perr, err := s.step(ctx, ses, ev)
	if perr != nil {
		ses.mu.Unlock()
		s.stats.churnPanics.Add(1)
		s.clientError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", perr))
		return
	}
	if err != nil {
		ses.mu.Unlock()
		// The engine rolled the event back; the incumbent is untouched
		// and the session stays usable.
		s.stats.timeouts.Add(1)
		s.clientError(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	s.noteEvent(ses, er)
	ses.mu.Unlock()
	s.writeOK(w, eventResultJSON(er))
}

// step runs one engine step for a handler holding ses.mu and recovers a
// panic into perr, so a poisoned event answers 500 instead of killing
// the daemon with the session mutex held. The engine commits an event
// only after answering it, so a panicking step leaves the pre-event
// incumbent as the session's state, and the next event proceeds from
// it.
func (s *Server) step(ctx context.Context, ses *scenarioSession, ev churn.Event) (er churn.EventResult, perr any, err error) {
	defer func() { perr = recover() }()
	if s.testHookEventStep != nil {
		s.testHookEventStep()
	}
	er, err = ses.eng.Step(ctx, ev)
	return er, nil, err
}

func (s *Server) handleScenarioStatus(w http.ResponseWriter, r *http.Request) {
	ses := s.lookupScenario(w, r)
	if ses == nil {
		return
	}
	ses.mu.Lock()
	status := ses.statusLocked()
	ses.mu.Unlock()
	s.writeOK(w, status)
}

func (s *Server) handleScenarioDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.scenMu.Lock()
	ses := s.scenarios[id]
	delete(s.scenarios, id)
	s.scenMu.Unlock()
	if ses == nil {
		s.clientError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario session %q", id))
		return
	}
	<-s.scenSlots
	s.writeOK(w, struct {
		ID     string `json:"id"`
		Closed bool   `json:"closed"`
	}{id, true})
}
