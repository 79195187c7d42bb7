package churn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/apptree"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/multiapp"
	"repro/internal/platform"
	"repro/internal/refine"
	"repro/internal/rng"
	"repro/internal/xslice"
)

// Policy selects how the engine answers events.
type Policy int

const (
	// PolicyRepair answers events by journaled local repair: transplant
	// the incumbent onto the post-event instance, unplace only what the
	// event invalidated, re-place greedily through the move journal and
	// refine within the step/time budget. Falls back to PolicyResolve
	// when repair finds no feasible completion.
	PolicyRepair Policy = iota
	// PolicyResolve answers every event with a from-scratch six-way
	// constructive portfolio solve (the paper's static method re-run).
	PolicyResolve
)

// String names the policy for figure series and serve responses.
func (p Policy) String() string {
	if p == PolicyResolve {
		return "resolve"
	}
	return "repair"
}

// Options tunes an Engine. The zero value is the repair policy with the
// default per-event refinement budget.
type Options struct {
	Policy Policy
	// Seed drives every random choice (refinement proposals, portfolio
	// sub-seeds). Same seed, same scenario, same trajectory.
	Seed int64
	// SAIters bounds the per-event refinement annealing steps; <= 0
	// means 400 + 20 per merged-tree operator.
	SAIters int
	// LNSRounds bounds the per-event destroy/repair rounds; <= 0 means 3.
	LNSRounds int
	// Budget additionally bounds each event's refinement pass by wall
	// clock (anytime: the best incumbent at the deadline wins; see
	// refine.Options.Budget). 0 means no deadline. A wall-clock budget
	// trades bit-exact reproducibility for latency control — sweeps
	// that must merge byte-identically leave it 0 and bound steps
	// instead.
	Budget time.Duration
}

// Outcome reports how one event was answered.
type Outcome int

const (
	// Repaired: journaled local repair produced the installed mapping.
	Repaired Outcome = iota
	// Resolved: a full constructive re-solve produced the installed
	// mapping (always under PolicyResolve; as the infeasibility
	// fallback under PolicyRepair).
	Resolved
	// Rejected: no feasible mapping exists for the post-event workload,
	// or the context was cancelled mid-event. The pre-event incumbent
	// stands and the event was not applied.
	Rejected
)

// String names the outcome for logs and serve responses.
func (o Outcome) String() string {
	switch o {
	case Repaired:
		return "repaired"
	case Resolved:
		return "resolved"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// EventResult describes the engine's answer to one event.
type EventResult struct {
	Event   Event
	Outcome Outcome
	Cost    float64       // incumbent platform cost after the event
	Procs   int           // processors purchased
	Moved   int           // surviving operators migrated by this answer
	Ops     int           // live application operators (combiners excluded)
	Apps    int           // live applications
	Wall    time.Duration // time spent answering
	Err     error         // rejection reason when Outcome == Rejected
}

// Result aggregates one scenario run. Engine.Run returns engine-owned
// storage, valid until the next Run or Start on the same engine.
type Result struct {
	Events      []EventResult
	InitialCost float64
	FinalCost   float64
	FinalProcs  int
	Moved       int // total surviving-operator migrations
	Repaired    int
	Resolved    int
	Rejected    int
	Wall        time.Duration
}

// errRejected prefixes every infeasibility rejection reason carried in
// EventResult.Err.
var errRejected = errors.New("churn: event rejected")

// snapshot is the engine's incumbent allocation, decoupled from any
// Mapping storage: processor configurations in dense id order plus, per
// live application, each operator's dense processor. It is exactly what
// transplanting the incumbent onto the next combined instance needs,
// and what the operators-moved metric diffs.
type snapshot struct {
	cfgs  []platform.Config // dense processor id -> configuration
	ops   []int             // slot-major operator assignments (dense ids)
	off   []int             // len(apps)+1 prefix offsets into ops
	comb  []int             // virtual combiner assignments, len(apps)-1
	remap []int             // scratch: mapping proc id -> dense id
	cost  float64
	procs int
}

// appState is one live application; the engine owns its tree arena.
type appState struct {
	tree *apptree.Tree
	b    *apptree.Builder // recycled on departure
	rho  float64
}

// movePair is one candidate (new processor, old processor) identity in
// the operators-moved matching.
type movePair struct{ np, op, cnt int }

// Engine holds the live incumbent allocation of a churning workload and
// answers events under one Options policy. All per-event state — the
// combined instance, the working mapping, both snapshots, every scratch
// buffer — lives on reusable arenas, so steady-state stepping allocates
// almost nothing. An Engine is not safe for concurrent use.
type Engine struct {
	opts Options
	w    multiapp.Workload

	apps  []appState
	freeB []*apptree.Builder // recycled tree builders

	combiner multiapp.Builder
	sc       heuristics.SolveContext
	work     mapping.Mapping
	improveR *rand.Rand // refinement stream, reseeded per event
	treeR    *rand.Rand // arrival-tree stream, reseeded per arrival

	snap, next snapshot
	started    bool
	nev        int   // events answered since Start (seed derivation)
	impSeed    int64 // per-event refinement seed base
	resSeed    int64 // per-event portfolio seed base

	// Per-event scratch.
	mapps  []multiapp.App // candidate application list
	opOff  []int          // per-slot operator offsets in the merged tree
	opsBuf []int          // unplace gather
	oldAs  []int          // surviving-op assignments, incumbent side
	newAs  []int          // surviving-op assignments, answer side
	counts []int          // movedOps overlap matrix, flat new-major
	match  []int          // new dense proc -> matched old dense proc
	claim  []int          // old dense proc -> claiming new dense proc
	pairs  []movePair
	res    Result
}

// NewEngine returns an engine with a warmed, reusable solve arena; call
// Start (or Run, which starts for you) before Step.
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts}
}

// RunScenario runs the scenario on a fresh engine — the one-shot
// convenience behind the root streamalloc API. The result is owned by
// the discarded engine, so the caller may keep it.
func RunScenario(ctx context.Context, sc *Scenario, opts Options) (*Result, error) {
	return NewEngine(opts).Run(ctx, sc)
}

// Policy returns the engine's configured answer policy.
func (e *Engine) Policy() Policy { return e.opts.Policy }

// Cost returns the incumbent platform cost.
func (e *Engine) Cost() float64 { return e.snap.cost }

// Procs returns the incumbent processor count.
func (e *Engine) Procs() int { return e.snap.procs }

// Apps returns the number of live applications.
func (e *Engine) Apps() int { return len(e.apps) }

// Ops returns the number of live application operators (virtual
// combiners excluded).
func (e *Engine) Ops() int {
	n := 0
	for i := range e.apps {
		n += len(e.apps[i].tree.Ops)
	}
	return n
}

// IncumbentInto rebuilds the incumbent allocation on m: the live
// applications are re-combined, the incumbent's processors re-bought
// and every operator placed where the incumbent has it, then server
// selection is re-run. The mapping's instance lives on the engine's
// combiner arena, valid until the next Step, Run or IncumbentInto.
// Tests and the serve layer use this to inspect — and independently
// re-validate — the incumbent between events.
func (e *Engine) IncumbentInto(m *mapping.Mapping) error {
	if !e.started {
		return fmt.Errorf("churn: IncumbentInto before Start")
	}
	in, err := e.stage(nil, appState{})
	if err != nil {
		return err
	}
	e.transplant(m, in, nil)
	if err := heuristics.SelectServersThreeLoop(m); err != nil {
		return fmt.Errorf("churn: incumbent admits no server selection: %w", err)
	}
	return nil
}

// Start installs the scenario's initial applications and solves them
// from scratch — both policies share this entry solve, so policy
// comparisons start from identical incumbents. It resets any prior run.
func (e *Engine) Start(sc *Scenario) error {
	e.w = sc.Workload
	for i := range e.apps {
		if e.apps[i].b != nil {
			e.freeB = append(e.freeB, e.apps[i].b)
		}
	}
	e.apps = e.apps[:0]
	e.nev = 0
	e.started = false
	e.impSeed = rng.SeedFor(e.opts.Seed, "churn:improve")
	e.resSeed = rng.SeedFor(e.opts.Seed, "churn:resolve")
	for _, spec := range sc.Initial {
		e.apps = append(e.apps, e.buildApp(spec))
	}
	in, err := e.stage(nil, appState{})
	if err != nil {
		return fmt.Errorf("churn: initial workload: %v", err)
	}
	if out, _ := e.resolve(context.Background(), in, rng.SeedFor(e.opts.Seed, "churn:init"), math.Inf(1)); out == Rejected {
		return fmt.Errorf("churn: initial workload infeasible: %w", heuristics.ErrInfeasible)
	}
	e.snap, e.next = e.next, e.snap
	e.started = true
	return nil
}

// Run starts the engine on the scenario and answers its whole event
// stream. The returned Result is engine-owned and valid until the next
// Run or Start. A context cancellation aborts between events (and rolls
// back within one); the partial result is returned with the error.
func (e *Engine) Run(ctx context.Context, sc *Scenario) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.Start(sc); err != nil {
		return nil, err
	}
	res := &e.res
	*res = Result{Events: e.res.Events[:0]}
	res.InitialCost = e.snap.cost
	t0 := time.Now()
	var firstErr error
	for _, ev := range sc.Events {
		er, err := e.Step(ctx, ev)
		res.Events = append(res.Events, er)
		switch er.Outcome {
		case Repaired:
			res.Repaired++
		case Resolved:
			res.Resolved++
		default:
			res.Rejected++
		}
		res.Moved += er.Moved
		if err != nil {
			firstErr = err
			break
		}
	}
	res.FinalCost, res.FinalProcs = e.snap.cost, e.snap.procs
	res.Wall = time.Since(t0)
	return res, firstErr
}

// Step answers one event. On success the incumbent advances to a
// validated mapping of the post-event workload; on rejection —
// infeasible workload or context cancellation — the pre-event incumbent
// is untouched and the event is not applied. The returned error is
// non-nil only for engine misuse and context cancellation; an
// infeasible event is a Rejected result with a nil error (Err carries
// the reason), so callers can keep streaming events past it.
func (e *Engine) Step(ctx context.Context, ev Event) (EventResult, error) {
	start := time.Now()
	er := EventResult{
		Event: ev, Outcome: Rejected,
		Cost: e.snap.cost, Procs: e.snap.procs,
		Apps: len(e.apps), Ops: e.Ops(),
	}
	if !e.started {
		er.Err = fmt.Errorf("churn: Step before Start")
		return er, er.Err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		er.Err = err
		er.Wall = time.Since(start)
		return er, err
	}

	// Validate the event and stage the arrival's tree.
	var arr appState
	reject := func(reason error) (EventResult, error) {
		if arr.b != nil {
			e.freeB = append(e.freeB, arr.b)
		}
		er.Err = reason
		er.Wall = time.Since(start)
		return er, nil
	}
	switch ev.Kind {
	case Arrive:
		if ev.NumOps < 1 {
			return reject(fmt.Errorf("%w: arrival needs NumOps >= 1, got %d", errRejected, ev.NumOps))
		}
		arr = e.buildApp(AppSpec{NumOps: ev.NumOps, TreeSeed: ev.TreeSeed, Rho: ev.Rho})
	case Depart:
		if ev.Slot < 0 || ev.Slot >= len(e.apps) {
			return reject(fmt.Errorf("%w: departure slot %d of %d live applications", errRejected, ev.Slot, len(e.apps)))
		}
		if len(e.apps) == 1 {
			return reject(fmt.Errorf("%w: cannot depart the last application", errRejected))
		}
	case Drift:
		if ev.Slot < 0 || ev.Slot >= len(e.apps) {
			return reject(fmt.Errorf("%w: drift slot %d of %d live applications", errRejected, ev.Slot, len(e.apps)))
		}
		if !(ev.Factor > 0) {
			return reject(fmt.Errorf("%w: drift factor %v must be positive", errRejected, ev.Factor))
		}
	default:
		return reject(fmt.Errorf("%w: unknown event kind %d", errRejected, int(ev.Kind)))
	}

	in, err := e.stage(&ev, arr)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", errRejected, err))
	}

	var outcome Outcome
	if e.opts.Policy == PolicyResolve {
		outcome, err = e.fallback(ctx, in)
	} else {
		outcome, err = e.repair(ctx, in, ev)
	}
	if err != nil {
		er, _ = reject(err)
		return er, err
	}
	if outcome == Rejected {
		return reject(fmt.Errorf("%w: no feasible mapping for the post-event workload: %w", errRejected, heuristics.ErrInfeasible))
	}

	er.Moved = e.movedFrom(ev)
	e.commit(ev, arr)
	er.Outcome = outcome
	er.Cost, er.Procs = e.snap.cost, e.snap.procs
	er.Apps, er.Ops = len(e.apps), e.Ops()
	er.Wall = time.Since(start)
	e.nev++
	return er, nil
}

// repair is the journaled local-repair state machine: transplant the
// incumbent, unplace what the event invalidated, checkpoint, greedily
// re-place every unassigned operator (rolling back to the checkpoint if
// some operator fits nowhere), refine the repaired placement within the
// budget, and finish with server selection, downgrade and validation.
// Any dead end falls back to the constructive portfolio; cancellation
// aborts with the incumbent untouched.
func (e *Engine) repair(ctx context.Context, in *instance.Instance, ev Event) (Outcome, error) {
	m := &e.work
	baselineComplete := e.transplant(m, in, &ev)

	// Unplace everything the event invalidated: on drift, the operators
	// of every processor the rescaled rates overload. (Arrivals leave
	// the new application unassigned; departures leave the re-chained
	// combiners unassigned; neither overloads a surviving processor.)
	feasible := true
	if ev.Kind == Drift {
		for p := range m.Procs {
			if !m.Procs[p].Alive || m.ProcFeasible(p) {
				continue
			}
			feasible = false
			e.opsBuf = m.AppendOpsOn(e.opsBuf[:0], p)
			for _, op := range e.opsBuf {
				m.Unplace(op)
			}
		}
	}
	m.SellEmpty()
	// On a drift whose incumbent stayed fully feasible, the transplant
	// IS the pre-event incumbent (same configurations, same cost): the
	// never-regress fallback below compares against it.
	baselineValid := ev.Kind == Drift && baselineComplete && feasible

	// Journaled greedy repair of every unassigned operator.
	m.SetJournal(true)
	mark := m.Checkpoint()
	if !refine.PlaceUnassigned(m) {
		m.Rollback(mark)
		m.SetJournal(false)
		return e.fallback(ctx, in)
	}
	m.CommitJournal()
	m.SetJournal(false)
	if err := ctx.Err(); err != nil {
		return Rejected, err
	}

	// Budgeted refinement: anytime, never worse than the repaired seed.
	iters, rounds := e.opts.SAIters, e.opts.LNSRounds
	if iters <= 0 {
		iters = 400 + 20*in.Tree.NumOps()
	}
	if rounds <= 0 {
		rounds = 3
	}
	seed := e.eventSeed(e.impSeed)
	if e.improveR == nil {
		e.improveR = rng.New(seed)
	} else {
		e.improveR.Seed(seed)
	}
	if err := refine.Improve(ctx, m, e.improveR, refine.Options{
		SAIters: iters, LNSRounds: rounds, Budget: e.opts.Budget,
	}); err != nil {
		if errors.Is(err, heuristics.ErrInfeasible) {
			// The repaired placement admits no server selection.
			return e.fallback(ctx, in)
		}
		return Rejected, err // context cancellation
	}

	if heuristics.Finish(m) != nil {
		return e.fallback(ctx, in)
	}
	// Never regress: if repair somehow costs more than a still-valid
	// incumbent, reinstall the incumbent (Improve's never-worse
	// invariant makes this unreachable; the rollback keeps the
	// guarantee structural rather than inherited).
	if baselineValid && m.Cost() > e.snap.cost+mapping.Eps {
		e.transplant(m, in, &ev)
		if heuristics.Finish(m) != nil {
			return e.fallback(ctx, in)
		}
	}
	e.snapInto(&e.next, m)
	// Portfolio guard: when repair cannot avoid raising the platform
	// cost, check whether a fresh constructive solve packs the grown
	// workload onto a cheaper platform before committing to the more
	// expensive one. Repair wins ties, so migrations stay minimal; the
	// guard runs only on cost-increasing events, so steady-state churn
	// keeps repair's latency.
	if m.Cost() > e.snap.cost+mapping.Eps {
		if out, err := e.resolve(ctx, in, e.eventSeed(e.resSeed), m.Cost()-mapping.Eps); out == Resolved || err != nil {
			return out, err
		}
	}
	return Repaired, nil
}

// fallback answers the event with the constructive portfolio.
func (e *Engine) fallback(ctx context.Context, in *instance.Instance) (Outcome, error) {
	return e.resolve(ctx, in, e.eventSeed(e.resSeed), math.Inf(1))
}

// transplant rebuilds the incumbent on m against the staged instance in
// (see stage; a nil ev keeps every application): the incumbent's
// processors are re-bought in dense id order and every surviving
// application's operators are placed where the incumbent had them.
// Virtual combiners are transplanted unless ev is an arrival or a
// departure, which re-chain them, so they are always re-placed.
// Reports whether the transplant covered every operator.
func (e *Engine) transplant(m *mapping.Mapping, in *instance.Instance, ev *Event) bool {
	m.SetJournal(false)
	m.Reset(in)
	for _, cfg := range e.snap.cfgs {
		m.Buy(cfg)
	}
	j := 0
	for o := 0; o < len(e.snap.off)-1; o++ {
		if ev != nil && ev.Kind == Depart && o == ev.Slot {
			continue
		}
		base, so := e.opOff[j], e.snap.off[o]
		n := e.snap.off[o+1] - so
		for i := 0; i < n; i++ {
			m.Place(base+i, e.snap.ops[so+i])
		}
		j++
	}
	if ev == nil || ev.Kind == Drift {
		combOff := e.opOff[len(e.mapps)]
		for ci, p := range e.snap.comb {
			m.Place(combOff+ci, p)
		}
	}
	return m.Complete()
}

// resolve runs the six-way constructive portfolio on the combined
// instance and, when a result goes strictly below bar (+Inf for any
// feasible one; the repaired cost for the portfolio guard), snapshots
// the winner into e.next and reports Resolved. A cancelled ctx stops it
// between heuristics: Rejected with the context error.
func (e *Engine) resolve(ctx context.Context, in *instance.Instance, seed int64, bar float64) (Outcome, error) {
	best, err := e.sc.Portfolio(ctx, in, nil, heuristics.Options{Seed: seed}, bar, nil)
	if best == nil {
		return Rejected, err
	}
	e.snapInto(&e.next, best.Mapping)
	return Resolved, nil
}

// snapInto captures m as a dense snapshot against the staged
// application list (e.mapps/e.opOff).
func (e *Engine) snapInto(dst *snapshot, m *mapping.Mapping) {
	dst.remap = intsFill(dst.remap, len(m.Procs), -1)
	dst.cfgs = dst.cfgs[:0]
	k := 0
	for p := range m.Procs {
		if m.Procs[p].Alive {
			dst.remap[p] = k
			dst.cfgs = append(dst.cfgs, m.Procs[p].Config)
			k++
		}
	}
	dst.procs = k
	dst.cost = m.Cost()
	nApps := len(e.mapps)
	dst.ops = dst.ops[:0]
	dst.off = dst.off[:0]
	for j := 0; j < nApps; j++ {
		dst.off = append(dst.off, len(dst.ops))
		for op := e.opOff[j]; op < e.opOff[j+1]; op++ {
			dst.ops = append(dst.ops, dst.remap[m.OpProc(op)])
		}
	}
	dst.off = append(dst.off, len(dst.ops))
	dst.comb = dst.comb[:0]
	for op := e.opOff[nApps]; op < m.Inst.Tree.NumOps(); op++ {
		dst.comb = append(dst.comb, dst.remap[m.OpProc(op)])
	}
}

// commit installs the answered event: the application list advances and
// the staged snapshot becomes the incumbent.
func (e *Engine) commit(ev Event, arr appState) {
	switch ev.Kind {
	case Arrive:
		e.apps = append(e.apps, arr)
	case Depart:
		if d := e.apps[ev.Slot]; d.b != nil {
			e.freeB = append(e.freeB, d.b)
		}
		e.apps = append(e.apps[:ev.Slot], e.apps[ev.Slot+1:]...)
	case Drift:
		e.apps[ev.Slot].rho *= ev.Factor
	}
	e.snap, e.next = e.next, e.snap
}

// movedFrom counts the surviving operators the staged answer migrates
// relative to the incumbent, under the most charitable matching of new
// processors onto old ones (see movedOps). Arriving operators are new
// placements, not migrations; departing operators are gone, not
// migrated; virtual combiners are bookkeeping, not workload.
func (e *Engine) movedFrom(ev Event) int {
	e.oldAs, e.newAs = e.oldAs[:0], e.newAs[:0]
	j := 0
	for o := 0; o < len(e.snap.off)-1; o++ {
		if ev.Kind == Depart && o == ev.Slot {
			continue
		}
		so, no := e.snap.off[o], e.next.off[j]
		n := e.snap.off[o+1] - so
		for i := 0; i < n; i++ {
			e.oldAs = append(e.oldAs, e.snap.ops[so+i])
			e.newAs = append(e.newAs, e.next.ops[no+i])
		}
		j++
	}
	return e.movedOps(e.snap.procs, e.next.procs)
}

// movedOps counts the i with oldAs[i] != newAs[i] after relabeling: new
// processors are matched onto old ones greedily by descending placement
// overlap (ties to the smaller old, then new, id), and an operator
// counts as moved when its new processor's matched identity differs
// from its old processor. A full re-solve renumbers processors
// arbitrarily, so raw ids cannot be compared; the matching gives every
// policy the most charitable relabeling before counting migrations.
func (e *Engine) movedOps(oldK, newK int) int {
	if len(e.oldAs) == 0 {
		return 0
	}
	e.counts = intsFill(e.counts, newK*oldK, 0)
	for i := range e.oldAs {
		e.counts[e.newAs[i]*oldK+e.oldAs[i]]++
	}
	e.pairs = e.pairs[:0]
	for np := 0; np < newK; np++ {
		for op := 0; op < oldK; op++ {
			if c := e.counts[np*oldK+op]; c > 0 {
				e.pairs = append(e.pairs, movePair{np: np, op: op, cnt: c})
			}
		}
	}
	slices.SortFunc(e.pairs, func(a, b movePair) int {
		if a.cnt != b.cnt {
			return b.cnt - a.cnt
		}
		if a.op != b.op {
			return a.op - b.op
		}
		return a.np - b.np
	})
	e.match = intsFill(e.match, newK, -1)
	e.claim = intsFill(e.claim, oldK, -1)
	for _, pr := range e.pairs {
		if e.match[pr.np] == -1 && e.claim[pr.op] == -1 {
			e.match[pr.np] = pr.op
			e.claim[pr.op] = pr.np
		}
	}
	moved := 0
	for i := range e.oldAs {
		if e.match[e.newAs[i]] != e.oldAs[i] {
			moved++
		}
	}
	return moved
}

// buildApp materializes an AppSpec on a recycled tree arena.
func (e *Engine) buildApp(spec AppSpec) appState {
	var b *apptree.Builder
	if n := len(e.freeB); n > 0 {
		b, e.freeB = e.freeB[n-1], e.freeB[:n-1]
	} else {
		b = new(apptree.Builder)
	}
	if e.treeR == nil {
		e.treeR = rng.New(spec.TreeSeed)
	} else {
		e.treeR.Seed(spec.TreeSeed)
	}
	rho := spec.Rho
	if rho <= 0 {
		rho = 1
	}
	n := spec.NumOps
	if n < 1 {
		n = 1
	}
	return appState{tree: b.Random(e.treeR, n, e.w.NumTypes), b: b, rho: rho}
}

// stage lists the applications an answer is computed for in e.mapps —
// the live ones with ev applied: its departing slot skipped, its
// drifting target scaled, and arr appended when it holds an arrival's
// tree; a nil ev stages the live list as it is — and combines them. It
// recomputes the merged-tree operator offsets: slot j's operators are
// [opOff[j], opOff[j+1]), the virtual combiners start at
// opOff[len(e.mapps)].
func (e *Engine) stage(ev *Event, arr appState) (*instance.Instance, error) {
	e.mapps = e.mapps[:0]
	for i := range e.apps {
		rho := e.apps[i].rho
		if ev != nil && ev.Slot == i {
			switch ev.Kind {
			case Depart:
				continue
			case Drift:
				rho *= ev.Factor
			}
		}
		e.mapps = append(e.mapps, multiapp.App{Tree: e.apps[i].tree, Rho: rho})
	}
	if arr.tree != nil {
		e.mapps = append(e.mapps, multiapp.App{Tree: arr.tree, Rho: arr.rho})
	}
	in, err := e.combiner.Combine(e.mapps, e.w)
	if err != nil {
		return nil, err
	}
	e.opOff = e.opOff[:0]
	off := 0
	for _, a := range e.mapps {
		e.opOff = append(e.opOff, off)
		off += len(a.Tree.Ops)
	}
	e.opOff = append(e.opOff, off)
	return in, nil
}

// eventSeed derives the current event's sub-seed from a per-purpose
// base, allocation-free.
func (e *Engine) eventSeed(base int64) int64 {
	return int64(rng.SplitMix64(uint64(base) + uint64(e.nev)))
}

// intsFill returns s resized to n with every element set to v.
func intsFill(s []int, n, v int) []int {
	s = xslice.Grow(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}
