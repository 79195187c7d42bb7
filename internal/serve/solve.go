package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/stream"
)

// jobKind selects what a solve or verify request runs on its arena.
type jobKind int

const (
	jobSolve jobKind = iota
	jobVerify
)

// CorpusRef names a generated instance by its coordinates: the same
// (n, alpha, seed) triple the canonical corpus and every sweep derive
// instances from (instance.Generate with the paper's defaults), so a
// request can reference a reproducible workload without shipping it.
type CorpusRef struct {
	N     int     `json:"n"`
	Alpha float64 `json:"alpha,omitempty"`
	Seed  int64   `json:"seed"`
}

// SolveRequest is the POST /v1/solve body. Exactly one of Ref and
// Instance must be set. Heuristic is empty or "all" for the full paper
// portfolio, or one heuristic name (see GET /statsz for the list the
// binary was built with). Seed feeds the placement/selection random
// streams; TimeoutMS bounds the request's deadline.
type SolveRequest struct {
	Ref       *CorpusRef         `json:"ref,omitempty"`
	Instance  *instance.Instance `json:"instance,omitempty"`
	Heuristic string             `json:"heuristic,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
	TimeoutMS int64              `json:"timeout_ms,omitempty"`
}

// solveRequest is the parsed, validated form run on an arena.
type solveRequest struct {
	inst      *instance.Instance // inline instance, nil when ref-derived
	ref       *CorpusRef
	hs        []heuristics.Heuristic
	Seed      int64
	TimeoutMS int64
}

// ProcSpec is one purchased processor configuration by catalog indices.
type ProcSpec struct {
	CPU int `json:"cpu"`
	NIC int `json:"nic"`
}

// DownloadSpec pins one basic-object download: processor p (compact
// numbering) downloads object type k from server l.
type DownloadSpec struct {
	Proc   int `json:"proc"`
	Object int `json:"object"`
	Server int `json:"server"`
}

// MappingSpec is the wire form of a complete mapping: the purchased
// processors in compact numbering, the operator->processor assignment
// and the chosen download servers. /v1/solve emits it and /v1/verify
// accepts it back unchanged.
type MappingSpec struct {
	Procs     []ProcSpec     `json:"procs"`
	Assign    []int          `json:"assign"`
	Downloads []DownloadSpec `json:"downloads"`
}

// OutcomeJSON is one heuristic's result in a solve response. Error is
// empty on success; Cost/Procs are zero on failure.
type OutcomeJSON struct {
	Heuristic string  `json:"heuristic"`
	Cost      float64 `json:"cost,omitempty"`
	Procs     int     `json:"procs,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// BestJSON is the cheapest feasible solution of a solve response.
type BestJSON struct {
	Heuristic string      `json:"heuristic"`
	Cost      float64     `json:"cost"`
	Procs     int         `json:"procs"`
	Mapping   MappingSpec `json:"mapping"`
}

// SolveResponse is the POST /v1/solve answer. Outcomes always lists
// every requested heuristic in the paper's fixed order; Best is nil
// when none was feasible. The body is a pure function of the request:
// identical bytes at any worker count.
type SolveResponse struct {
	Feasible   bool          `json:"feasible"`
	Best       *BestJSON     `json:"best,omitempty"`
	LowerBound float64       `json:"lower_bound"`
	Outcomes   []OutcomeJSON `json:"outcomes"`
}

// VerifyRequest is the POST /v1/verify body: the instance (by ref or
// inline, as in SolveRequest) plus the mapping to execute on the
// stream engine. Results optionally overrides the simulated root
// results (default 120).
type VerifyRequest struct {
	Ref       *CorpusRef         `json:"ref,omitempty"`
	Instance  *instance.Instance `json:"instance,omitempty"`
	Mapping   *MappingSpec       `json:"mapping"`
	Results   int                `json:"results,omitempty"`
	TimeoutMS int64              `json:"timeout_ms,omitempty"`
}

// inlineInstance is instance.Instance without its UnmarshalJSON. The
// wire structs below decode an inline instance straight into its fields,
// in the one pass that decodes the whole body, with unknown fields
// rejected at every depth; derive then fills in W and Delta.
type inlineInstance instance.Instance

// derive returns the decoded instance with W and Delta derived when its
// tree is sound (see instance.RefreshIfSound), or nil when the body had
// none.
func (w *inlineInstance) derive() *instance.Instance {
	in := (*instance.Instance)(w)
	if in != nil {
		in.RefreshIfSound()
	}
	return in
}

// solveWire and verifyWire are SolveRequest and VerifyRequest as
// parsed: the same fields and tags, with the instance decoded inline.
type solveWire struct {
	Ref       *CorpusRef      `json:"ref,omitempty"`
	Instance  *inlineInstance `json:"instance,omitempty"`
	Heuristic string          `json:"heuristic,omitempty"`
	Seed      int64           `json:"seed,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

type verifyWire struct {
	Ref       *CorpusRef      `json:"ref,omitempty"`
	Instance  *inlineInstance `json:"instance,omitempty"`
	Mapping   *MappingSpec    `json:"mapping"`
	Results   int             `json:"results,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

type verifyRequest struct {
	inst      *instance.Instance
	ref       *CorpusRef
	spec      MappingSpec
	Results   int
	TimeoutMS int64
}

// VerifyResponse is the POST /v1/verify answer: the stream engine's
// measurement plus the pass verdict (stream.MeetsTarget, the verdict of
// streamalloc.Verify). Simulated time is virtual, so the body is
// deterministic like SolveResponse's.
type VerifyResponse struct {
	OK         bool    `json:"ok"`
	Throughput float64 `json:"throughput"`
	Target     float64 `json:"target"`
	Analytic   float64 `json:"analytic"`
	Completed  int     `json:"completed"`
	SimTime    float64 `json:"sim_time"`
	Events     int64   `json:"events"`
}

// checkInstanceSpec validates the shared ref-or-inline instance choice.
func checkInstanceSpec(ref *CorpusRef, inst *instance.Instance, maxOps int) *httpError {
	switch {
	case ref == nil && inst == nil:
		return &httpError{http.StatusBadRequest, "one of ref and instance is required"}
	case ref != nil && inst != nil:
		return &httpError{http.StatusBadRequest, "ref and instance are mutually exclusive"}
	case ref != nil:
		if ref.N < 1 {
			return &httpError{http.StatusBadRequest, fmt.Sprintf("ref.n must be >= 1, got %d", ref.N)}
		}
		if ref.N > maxOps {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("ref.n %d exceeds the server's limit of %d operators", ref.N, maxOps)}
		}
	default:
		if err := inst.Validate(); err != nil {
			return &httpError{http.StatusBadRequest, fmt.Sprintf("invalid instance: %v", err)}
		}
		if n := inst.Tree.NumOps(); n > maxOps {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("instance has %d operators, exceeding the server's limit of %d", n, maxOps)}
		}
	}
	return nil
}

func parseSolveRequest(body []byte, maxOps int) (*solveRequest, *httpError) {
	var wire solveWire
	if err := decodeStrict(body, &wire); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err)}
	}
	inst := wire.Instance.derive()
	if herr := checkInstanceSpec(wire.Ref, inst, maxOps); herr != nil {
		return nil, herr
	}
	hs, herr := heuristicsFor(wire.Heuristic)
	if herr != nil {
		return nil, herr
	}
	return &solveRequest{
		inst:      inst,
		ref:       wire.Ref,
		hs:        hs,
		Seed:      wire.Seed,
		TimeoutMS: wire.TimeoutMS,
	}, nil
}

func parseVerifyRequest(body []byte, maxOps int) (*verifyRequest, *httpError) {
	var wire verifyWire
	if err := decodeStrict(body, &wire); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err)}
	}
	inst := wire.Instance.derive()
	if herr := checkInstanceSpec(wire.Ref, inst, maxOps); herr != nil {
		return nil, herr
	}
	if wire.Mapping == nil {
		return nil, &httpError{http.StatusBadRequest, "mapping is required"}
	}
	if wire.Results < 0 {
		return nil, &httpError{http.StatusBadRequest, "results must be >= 0"}
	}
	if err := (stream.Options{Results: wire.Results}).Check(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return &verifyRequest{
		inst:      inst,
		ref:       wire.Ref,
		spec:      *wire.Mapping,
		Results:   wire.Results,
		TimeoutMS: wire.TimeoutMS,
	}, nil
}

// env is one arena set, mirroring the sweep engine's WorkerEnv: an
// instance generator, a solve context on its mapping arena, a dedicated
// mapping for verify reconstruction and a stream runner, plus the
// arena's /statsz counters. Never shared: one request holds it at a
// time.
type env struct {
	gen    instance.Generator
	sc     heuristics.SolveContext
	vmap   mapping.Mapping
	runner stream.Runner
	stats  *workerStats
}

// warm exercises every arena once on a small pinned instance so the
// first real request pays no cold-buffer growth: a generate, a
// portfolio and a short simulation. The portfolio solves one heuristic
// twice; the second run only ties the first, so the winner is copied
// onto the solve context's best arena and that arena is warmed too.
func (e *env) warm() {
	in := e.gen.Generate(instance.Config{NumOps: 8, Alpha: 0.9}, 1)
	h := heuristics.SubtreeBottomUp{}
	res, _ := e.sc.Portfolio(context.Background(), in, []heuristics.Heuristic{h, h},
		heuristics.Options{}, math.Inf(1), nil)
	if res != nil {
		e.runner.Simulate(res.Mapping, stream.Options{Results: 30})
	}
}

// run borrows an arena, runs one solve (or, when solve is nil, verify)
// on it and gives it back on every exit path. It returns the response
// to render, or the error to answer with; neither refers to the arena.
// A panic becomes a 500, so a poisoned request cannot take the arena
// down. ok is false when the deadline passed first: while waiting for
// an arena or during the run, in which case a solve stopped at its next
// heuristic.
func (s *Server) run(ctx context.Context, solve *solveRequest, verify *verifyRequest) (resp any, herr *httpError, ok bool) {
	var e *env
	select {
	case e = <-s.envs:
	case <-ctx.Done():
		return nil, nil, false
	}
	s.stats.inFlight.Add(1)
	defer func() {
		if r := recover(); r != nil {
			herr = &httpError{http.StatusInternalServerError, fmt.Sprintf("internal error: %v", r)}
		}
		s.stats.inFlight.Add(-1)
		s.envs <- e
		ok = ctx.Err() == nil
	}()
	if s.testHookJobStart != nil {
		s.testHookJobStart()
	}
	e.stats.jobs.Add(1)
	if solve != nil {
		return e.runSolve(ctx, solve), nil, true
	}
	resp, herr = e.runVerify(verify)
	return resp, herr, true
}

// instanceFor materializes the request's instance: inline ones pass
// through, refs are generated on the arena (valid until its next
// generate — i.e. for the rest of this run, which renders the response
// before the arena goes back).
func (e *env) instanceFor(ref *CorpusRef, inline *instance.Instance) *instance.Instance {
	if inline != nil {
		return inline
	}
	return e.gen.Generate(instance.Config{NumOps: ref.N, Alpha: ref.Alpha}, ref.Seed)
}

// runSolve executes the requested heuristics serially on this arena
// through SolveContext.Portfolio, which keeps the winner on the
// context's second arena for rendering. Ties break in the paper's fixed
// heuristic order, so the response never depends on scheduling. It
// returns nil when the deadline passed mid-portfolio.
func (e *env) runSolve(ctx context.Context, req *solveRequest) *SolveResponse {
	in := e.instanceFor(req.ref, req.inst)
	resp := SolveResponse{
		LowerBound: bounds.CostLowerBound(in),
		Outcomes:   make([]OutcomeJSON, 0, len(req.hs)),
	}
	bestRes, err := e.sc.Portfolio(ctx, in, req.hs, heuristics.Options{Seed: req.Seed}, math.Inf(1),
		func(h heuristics.Heuristic, res *heuristics.Result, err error) {
			e.stats.solves.Add(1)
			o := OutcomeJSON{Heuristic: h.Name()}
			if err != nil {
				o.Error = err.Error()
			} else {
				o.Cost, o.Procs = res.Cost, res.Procs
			}
			resp.Outcomes = append(resp.Outcomes, o)
		})
	if err != nil {
		return nil
	}
	if bestRes != nil {
		resp.Feasible = true
		resp.Best = &BestJSON{
			Heuristic: bestRes.Heuristic,
			Cost:      bestRes.Cost,
			Procs:     bestRes.Procs,
			Mapping:   buildMappingSpec(bestRes.Mapping),
		}
	}
	return &resp
}

// runVerify rebuilds the mapping on this arena's verify mapping and
// executes it on the stream engine.
func (e *env) runVerify(req *verifyRequest) (*VerifyResponse, *httpError) {
	in := e.instanceFor(req.ref, req.inst)
	if herr := rebuildMapping(&e.vmap, in, &req.spec); herr != nil {
		return nil, herr
	}
	e.stats.sims.Add(1)
	rep, err := e.runner.Simulate(&e.vmap, stream.Options{Results: req.Results})
	if err != nil {
		return nil, &httpError{http.StatusUnprocessableEntity, fmt.Sprintf("simulation failed: %v", err)}
	}
	resp := VerifyResponse{
		OK:         stream.MeetsTarget(rep.Throughput, in.Rho),
		Throughput: rep.Throughput,
		Target:     in.Rho,
		Analytic:   rep.Analytic,
		Completed:  rep.Completed,
		SimTime:    rep.SimTime,
		Events:     rep.Events,
	}
	return &resp, nil
}

// buildMappingSpec renders a solved mapping in compact processor
// numbering with downloads sorted by (proc, object) — a canonical form,
// so equal mappings render to equal bytes.
func buildMappingSpec(m *mapping.Mapping) MappingSpec {
	spec := MappingSpec{
		Procs:     []ProcSpec{},
		Assign:    make([]int, len(m.Assign)),
		Downloads: []DownloadSpec{},
	}
	compact := make([]int, len(m.Procs))
	for p := range m.Procs {
		compact[p] = -1
		if m.Procs[p].Alive {
			compact[p] = len(spec.Procs)
			spec.Procs = append(spec.Procs, ProcSpec{CPU: m.Procs[p].Config.CPU, NIC: m.Procs[p].Config.NIC})
		}
	}
	for op, p := range m.Assign {
		if p == mapping.Unassigned {
			spec.Assign[op] = -1
			continue
		}
		spec.Assign[op] = compact[p]
	}
	var objs []int
	for p := range m.Procs {
		if !m.Procs[p].Alive || len(m.DL[p]) == 0 {
			continue
		}
		objs = objs[:0]
		for k := range m.DL[p] {
			objs = append(objs, k)
		}
		sort.Ints(objs)
		for _, k := range objs {
			spec.Downloads = append(spec.Downloads, DownloadSpec{
				Proc: compact[p], Object: k, Server: m.DL[p][k],
			})
		}
	}
	return spec
}

// rebuildMapping reconstructs a MappingSpec onto the arena's verify
// mapping and validates it against the full steady-state constraint
// system. Index errors are 400s; a well-formed but infeasible mapping
// is a 422.
func rebuildMapping(arena *mapping.Mapping, in *instance.Instance, spec *MappingSpec) *httpError {
	cat := in.Platform.Catalog
	arena.Reset(in)
	for i, pc := range spec.Procs {
		if pc.CPU < 0 || pc.CPU >= len(cat.CPUs) || pc.NIC < 0 || pc.NIC >= len(cat.NICs) {
			return &httpError{http.StatusBadRequest,
				fmt.Sprintf("proc %d: config (cpu=%d, nic=%d) outside the catalog", i, pc.CPU, pc.NIC)}
		}
		arena.Buy(platform.Config{CPU: pc.CPU, NIC: pc.NIC})
	}
	if len(spec.Assign) != in.Tree.NumOps() {
		return &httpError{http.StatusBadRequest,
			fmt.Sprintf("assign lists %d operators, instance has %d", len(spec.Assign), in.Tree.NumOps())}
	}
	for op, p := range spec.Assign {
		if p < 0 || p >= len(spec.Procs) {
			return &httpError{http.StatusBadRequest,
				fmt.Sprintf("operator %d assigned to invalid processor %d", op, p)}
		}
		arena.Place(op, p)
	}
	for i, d := range spec.Downloads {
		if d.Proc < 0 || d.Proc >= len(spec.Procs) {
			return &httpError{http.StatusBadRequest, fmt.Sprintf("download %d: invalid proc %d", i, d.Proc)}
		}
		if d.Object < 0 || d.Object >= in.NumTypes {
			return &httpError{http.StatusBadRequest, fmt.Sprintf("download %d: invalid object %d", i, d.Object)}
		}
		if d.Server < 0 || d.Server >= len(in.Platform.Servers) {
			return &httpError{http.StatusBadRequest, fmt.Sprintf("download %d: invalid server %d", i, d.Server)}
		}
		arena.SelectServer(d.Proc, d.Object, d.Server)
	}
	if err := arena.Validate(); err != nil {
		return &httpError{http.StatusUnprocessableEntity, fmt.Sprintf("mapping infeasible: %v", err)}
	}
	return nil
}
