package refine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/xslice"
)

// Options tunes Refine. The zero value uses the defaults.
type Options struct {
	// Seed drives every random choice (candidate sub-streams, annealing
	// proposals and acceptances). Same seed, same result, regardless of
	// how many sweep workers run concurrently.
	Seed int64
	// SAIters bounds the simulated-annealing move budget;
	// 0 means 1200 + 60 per operator.
	SAIters int
	// LNSRounds bounds the large-neighborhood destroy/repair rounds run
	// after annealing; 0 means 8.
	LNSRounds int
	// Budget bounds the wall clock of the refinement loops (anytime
	// behaviour: at the deadline the best incumbent found so far is
	// returned, never worse than the constructive seed). The search
	// trajectory is a pure function of the seed and the number of steps
	// executed — the budget only decides how many steps that is — so two
	// runs that execute the same step count return identical results.
	// 0 means no deadline.
	Budget time.Duration
}

// Refine runs the full solve pipeline with the Refined heuristic:
// constructive seeding from the best of the paper's six heuristics,
// simulated annealing plus large-neighborhood search over the move
// journal, then server selection, downgrade and validation. The result
// never costs more than the best constructive solution, and the search
// stops early when the seed already matches the analytic lower bound.
func Refine(in *instance.Instance, opts Options) (*heuristics.Result, error) {
	return heuristics.Solve(in,
		Refined{SAIters: opts.SAIters, LNSRounds: opts.LNSRounds, Budget: opts.Budget},
		heuristics.Options{Seed: opts.Seed})
}

// Refined is the refinement layer as a placement Heuristic, so the sweep
// Grid and CLIs can run it by name next to the paper's six. It is
// registered with heuristics.ByName as "Refined" (zero-value options).
type Refined struct {
	SAIters   int           // see Options.SAIters
	LNSRounds int           // see Options.LNSRounds
	Budget    time.Duration // see Options.Budget
}

func init() { heuristics.Register(Refined{}) }

// Name implements heuristics.Heuristic.
func (Refined) Name() string { return "Refined" }

// refScratch is the pooled per-call state: a candidate-evaluation arena,
// the best-state snapshot arena and the index/position buffers.
type refScratch struct {
	sm     mapping.Mapping // candidate construction arena
	best   mapping.Mapping // best selection-feasible state found
	seeds  []int64         // per-candidate placement sub-seeds
	costs  []float64       // per-candidate seed cost (downgraded)
	order  []int           // candidate indices by cost
	buPos  []int           // operator -> bottom-up position
	bu     []int           // BottomUpInto buffers
	stack  []int
	pre    []int // the operators in subtree's order from the root
	prePos []int // operator -> position in pre
	span   []int // operator -> size of its subtree
	alive  []int // alive-processor gather
	ops    []int // merge / destroyed-subtree operators
	op1    [1]int
	srcs   []int // a move's source processors
	cands  []int // repairOp's candidate processors
	rf     refiner
}

var scratchPool = sync.Pool{New: func() any { return &refScratch{} }}

// refiner installs a refiner over m as the call's and returns it.
// Handed to the test hooks, a refiner on the stack would escape to the
// heap.
func (sc *refScratch) refiner(m *mapping.Mapping, r *rand.Rand) *refiner {
	cat := m.Inst.Platform.Catalog
	sc.rf = refiner{m: m, in: m.Inst, r: r, sc: sc, cat: cat, most: cat.MostExpensive(),
		unit: cat.Cost(platform.Config{})} // cheapest purchase: the move-cost scale
	return &sc.rf
}

// release drops the refiner, which points into the caller's mapping,
// and returns sc to the pool.
func (sc *refScratch) release() {
	sc.rf = refiner{}
	scratchPool.Put(sc)
}

// Place implements heuristics.Heuristic: it fills m with the refined
// placement (server selection stays with the pipeline). The seed is the
// cheapest constructive placement (after a config refit, cost is
// placement-determined) that admits a three-loop server selection; the
// refinement only ever replaces it with cheaper selection-feasible
// states, so the refined cost never exceeds the best constructive cost.
func (h Refined) Place(pc *heuristics.PlaceContext, m *mapping.Mapping, r *rand.Rand) error {
	in := m.Inst
	sc := scratchPool.Get().(*refScratch)
	defer sc.release()

	// The budget clock starts before seeding so the whole call is
	// bounded; a tiny budget still finishes the constructive seed (the
	// validity and never-worse guarantees need one) and only cuts the
	// refinement loops short.
	var deadline time.Time
	if h.Budget > 0 {
		deadline = time.Now().Add(h.Budget)
	}

	cands := heuristics.All()
	// Per-candidate placement streams, drawn up front in plot order so
	// evaluation order cannot perturb them.
	sc.seeds = sc.seeds[:0]
	for range cands {
		sc.seeds = append(sc.seeds, r.Int63())
	}

	// Pass 1: the downgraded cost of every constructive placement. Server
	// selection never changes the cost (NICLoad is fully determined by the
	// placement), so this is each candidate's final pipeline cost.
	sm := &sc.sm
	sm.SetJournal(false)
	sc.costs = sc.costs[:0]
	for i, ch := range cands {
		cost := math.Inf(1)
		if buildCandidate(pc, sm, in, ch, sc.seeds[i]) {
			cost = sm.Cost()
		}
		sc.costs = append(sc.costs, cost)
	}
	sc.order = sc.order[:0]
	for i := range cands {
		sc.order = append(sc.order, i)
	}
	slices.SortStableFunc(sc.order, func(a, b int) int {
		if sc.costs[a] < sc.costs[b] {
			return -1
		}
		if sc.costs[a] > sc.costs[b] {
			return 1
		}
		return a - b
	})

	// Pass 2: cheapest candidate whose placement admits a server
	// selection becomes the seed.
	winner := -1
	for _, i := range sc.order {
		if math.IsInf(sc.costs[i], 1) {
			break
		}
		buildCandidate(pc, sm, in, cands[i], sc.seeds[i])
		if heuristics.SelectServersThreeLoop(sm) == nil {
			winner = i
			break
		}
	}
	if winner < 0 {
		return fmt.Errorf("refine: no constructive seed admits a server selection: %w", heuristics.ErrInfeasible)
	}
	sm.ClearDownloads() // the pipeline re-selects on the final placement
	wasJournal := m.Journaling()
	m.CopyFrom(sm)

	lb := bounds.CostLowerBound(in)
	if m.Cost() <= lb+mapping.Eps {
		return nil // the seed is provably optimal; nothing to refine
	}

	m.SetJournal(true)
	rf := sc.refiner(m, r)
	rf.lb, rf.deadline = lb, deadline
	rf.search(h.SAIters, h.LNSRounds)
	m.SetJournal(wasJournal)
	return nil
}

// search refines the mapping with its current placement as the seed:
// it computes the tree orders, drives the annealing and LNS loops with
// their defaulted budgets, and copies the best selection-feasible state
// found back into the mapping, which must be journaling. The caller
// sets the refiner's lb and its optional stop signals.
func (rf *refiner) search(iters, rounds int) {
	sc, m := rf.sc, rf.m
	sc.orders(rf.in)
	rf.bestCost = m.Cost()
	sc.best.SetJournal(false)
	sc.best.CopyFrom(m)
	if iters <= 0 {
		iters = 1200 + 60*rf.in.Tree.NumOps()
	}
	if rounds <= 0 {
		rounds = 8
	}
	rf.anneal(iters)
	for i := 0; i < rounds && rf.bestCost > rf.lb+mapping.Eps && !rf.stopNow(); i++ {
		rf.lnsRound()
	}
	m.CopyFrom(&sc.best)
}

// Improve refines an existing complete placement of m in place: the
// current placement is the seed, and the annealing + LNS loops only ever
// replace it with cheaper selection-feasible states, so the result never
// costs more than the state passed in. It is the churn repair engine's
// local-search pass. The mapping must be complete; its placement must
// admit a three-loop server selection (else ErrInfeasible wraps the
// error and m is unchanged). Server selection is re-run on the refined
// placement before returning, so m is valid as-is; on heterogeneous
// catalogs callers wanting cost-minimal configurations additionally run
// Downgrade, as the solve pipeline does.
//
// r drives every random choice; a nil r derives one from opts.Seed.
// Cancelling ctx stops the search at the next step boundary and returns
// the incumbent in m together with the context error, so callers can
// distinguish "refined" from "cut short" while still holding a valid
// never-worse state.
func Improve(ctx context.Context, m *mapping.Mapping, r *rand.Rand, opts Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	in := m.Inst
	if !m.Complete() {
		return fmt.Errorf("refine: Improve needs a complete placement")
	}
	if r == nil {
		r = rng.New(opts.Seed)
	}
	sc := scratchPool.Get().(*refScratch)
	defer sc.release()

	wasJournal := m.Journaling()
	m.SetJournal(false) // discard any caller records; marks do not survive Improve
	m.ClearDownloads()  // selection is re-run on the refined placement
	m.SetJournal(true)

	// Seed feasibility, probed through the journal: the incumbent the
	// anytime contract falls back to must itself admit a selection.
	mark := m.Checkpoint()
	err := heuristics.SelectServersThreeLoop(m)
	m.Rollback(mark)
	if err != nil {
		m.SetJournal(wasJournal)
		return fmt.Errorf("refine: seed placement admits no server selection: %v: %w", err, heuristics.ErrInfeasible)
	}

	lb := bounds.CostLowerBound(in)
	if m.Cost() > lb+mapping.Eps {
		rf := sc.refiner(m, r)
		rf.lb, rf.ctx, rf.deadline = lb, ctx, deadline
		rf.search(opts.SAIters, opts.LNSRounds)
	}
	// Re-run selection so the caller gets a valid mapping as-is; the
	// installed placement was probed above (or in noteBest), so this
	// cannot fail.
	m.SetJournal(false)
	if err := heuristics.SelectServersThreeLoop(m); err != nil {
		m.SetJournal(wasJournal)
		return fmt.Errorf("refine: refined placement admits no server selection: %v: %w", err, heuristics.ErrInfeasible)
	}
	m.SetJournal(wasJournal)
	return ctx.Err()
}

// PlaceUnassigned greedily places every unassigned operator of m,
// children before parents, each onto the alive processor — or a fresh
// purchase — that minimizes the refitted total cost (the same repair
// operator the LNS rounds use, probed and rolled back through the
// journal, ties to the lowest processor id). Afterwards every alive
// processor is refitted to the cheapest configuration sustaining its
// loads. It is deterministic, requires journaling to be enabled, and
// reports false when some operator fits nowhere — the mapping is then
// left mid-repair and the caller owns rolling back to its checkpoint.
func PlaceUnassigned(m *mapping.Mapping) bool {
	in := m.Inst
	sc := scratchPool.Get().(*refScratch)
	defer sc.release()
	rf := sc.refiner(m, nil)
	sc.bu, sc.stack = in.Tree.BottomUpInto(sc.bu, sc.stack)
	for _, op := range sc.bu {
		if m.OpProc(op) != mapping.Unassigned {
			continue
		}
		if !rf.repairOp(op) {
			return false
		}
	}
	for _, p := range rf.aliveInto() {
		m.Refit(p)
	}
	return true
}

// buildCandidate constructs heuristic ch's finished placement on the
// arena: place, sell empty processors, refit every configuration to its
// loads. Reports false when the placement fails.
func buildCandidate(pc *heuristics.PlaceContext, sm *mapping.Mapping, in *instance.Instance, ch heuristics.Heuristic, seed int64) bool {
	sm.Reset(in)
	if ch.Place(pc, sm, rng.New(seed)) != nil || !sm.Complete() {
		return false
	}
	sm.SellEmpty()
	return heuristics.Downgrade(sm) == nil
}

// orders computes in's tree orders: bottom-up (children before
// parents) and the depth-first order subtree lists, in which every
// subtree is one contiguous run.
func (sc *refScratch) orders(in *instance.Instance) {
	tree := in.Tree
	n := tree.NumOps()
	sc.bu, sc.stack = tree.BottomUpInto(sc.bu, sc.stack)
	sc.buPos = xslice.Grow(sc.buPos, n)
	for pos, op := range sc.bu {
		sc.buPos[op] = pos
	}
	sc.pre = sc.pre[:0]
	sc.prePos = xslice.Grow(sc.prePos, n)
	sc.stack = append(sc.stack[:0], tree.Root)
	for len(sc.stack) > 0 {
		op := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.prePos[op] = len(sc.pre)
		sc.pre = append(sc.pre, op)
		sc.stack = append(sc.stack, tree.Ops[op].ChildOps...)
	}
	sc.span = xslice.Grow(sc.span, n)
	for _, op := range sc.bu {
		sc.span[op] = 1
		for _, c := range tree.Ops[op].ChildOps {
			sc.span[op] += sc.span[c]
		}
	}
}

// refiner drives the annealing and destroy/repair loops over one
// journaled mapping.
type refiner struct {
	m        *mapping.Mapping
	in       *instance.Instance
	r        *rand.Rand
	sc       *refScratch
	cat      *platform.Catalog
	most     platform.Config
	lb       float64 // bounds.CostLowerBound: stop when reached
	unit     float64 // cheapest purchase cost: temperature scale
	bestCost float64

	// While annealing: cur is the mapping's Cost(), and aliveOK reports
	// that sc.alive lists its alive processors. Only a kept move changes
	// either, since a rolled-back one restores the mapping exactly.
	cur     float64
	aliveOK bool

	ctx      context.Context // optional cancellation; nil means none
	deadline time.Time       // optional Options.Budget deadline; zero means none
	halted   bool            // latched once either signal fires
}

// stopCheckEvery throttles the annealing loop's clock polls: the budget
// and cancellation signals are sampled once per this many steps, keeping
// the hot loop free of time syscalls.
const stopCheckEvery = 16

// stopNow polls the cancellation and budget signals and latches the
// answer, so callers exit promptly without re-polling.
func (rf *refiner) stopNow() bool {
	if rf.halted {
		return true
	}
	if rf.ctx != nil && rf.ctx.Err() != nil {
		rf.halted = true
	} else if !rf.deadline.IsZero() && !time.Now().Before(rf.deadline) {
		rf.halted = true
	}
	return rf.halted
}

// stopAt is stopNow throttled to every stopCheckEvery-th annealing step.
func (rf *refiner) stopAt(i int) bool {
	if rf.halted {
		return true
	}
	if rf.ctx == nil && rf.deadline.IsZero() {
		return false
	}
	if i%stopCheckEvery != 0 {
		return false
	}
	return rf.stopNow()
}

// anneal runs the simulated-annealing loop: geometric cooling from half
// a purchase to one percent of one.
func (rf *refiner) anneal(iters int) {
	t0, tEnd := 0.5*rf.unit, 0.01*rf.unit
	decay := math.Pow(tEnd/t0, 1/float64(iters))
	temp := t0
	rf.cur, rf.aliveOK = rf.m.Cost(), false
	for i := 0; i < iters && rf.bestCost > rf.lb+mapping.Eps && !rf.stopAt(i); i++ {
		if testHookStep != nil {
			testHookStep(rf, temp)
		} else {
			rf.step(temp)
		}
		temp *= decay
	}
}

// Test hooks, nil outside tests: testHookStep runs each annealing step
// in place of step, and testHookRepairOp each repairOp.
var (
	testHookStep     func(rf *refiner, temp float64)
	testHookRepairOp func(rf *refiner, op int) bool
)

// The annealing proposals, in the order propose draws them.
const (
	propMove    = iota // one operator onto an existing processor
	propSplit          // one operator out onto a fresh purchase
	propMerge          // every operator of one processor onto another
	propSubtree        // a whole subtree onto an existing processor
)

// move is one annealing proposal: ops onto dst, upgraded for the attempt
// to the most expensive configuration (a split's dst is len(Procs), the
// fresh purchase). A merge moves every operator of its source, from,
// and leaves ops unset.
type move struct {
	kind int
	dst  int
	from int
	ops  []int
}

// The ways a step ends.
const (
	stepNoop       = iota // the proposal changes nothing
	stepInfeasible        // TryPlace would reject the move
	stepRejected          // the Metropolis rule rejects the priced move
	stepAccepted
)

// stepRecord is what one annealing step did: its proposal, how it ended,
// and the cost it priced the move at (infeasible and no-op steps price
// nothing).
type stepRecord struct {
	move
	outcome int
	cost    float64
}

// step proposes one move and keeps it by the Metropolis rule. The move
// is evaluated read-only from the mapping's running load estimates
// (EvalMove), and applied only when kept. Where the estimates leave the
// feasibility verdict open, the move is applied through TryPlace and
// rolled back unless kept; where they prove it feasible but leave a
// refit configuration open, it is applied directly, priced by the exact
// refit, and rolled back unless kept. Every path draws the same random
// numbers and reaches the same verdict and cost.
func (rf *refiner) step(temp float64) stepRecord {
	m := rf.m
	mv, ok := rf.propose()
	rec := stepRecord{move: mv}
	if !ok {
		return rec
	}
	var ev mapping.MoveEval
	if mv.kind == propMerge {
		ev = m.EvalMerge(mv.from, mv.dst, rf.most)
	} else {
		ev = m.EvalMove(mv.dst, rf.most, mv.ops)
	}
	switch {
	case ev.Verdict == mapping.Infeasible:
		rec.outcome = stepInfeasible
		return rec
	case ev.Priced:
		rec.cost = ev.Cost
		if !rf.keep(ev.Cost-rf.cur, temp) {
			rec.outcome = stepRejected
			return rec
		}
		rf.apply(mv, false)
		m.CommitJournal()
	default:
		mark := m.Checkpoint()
		if !rf.apply(mv, ev.Verdict == mapping.Undecided) {
			m.Rollback(mark)
			rec.outcome = stepInfeasible
			return rec
		}
		rec.cost = m.Cost()
		if !rf.keep(rec.cost-rf.cur, temp) {
			m.Rollback(mark)
			rec.outcome = stepRejected
			return rec
		}
		m.CommitJournal()
	}
	rec.outcome = stepAccepted
	rf.cur, rf.aliveOK = rec.cost, false
	if rec.cost < rf.bestCost-mapping.Eps {
		rf.noteBest(rec.cost)
	}
	return rec
}

// keep is the Metropolis rule for a move changing the cost by delta: a
// random number is drawn only for a move that raises the cost.
func (rf *refiner) keep(delta, temp float64) bool {
	return delta <= mapping.Eps || rf.r.Float64() < math.Exp(-delta/temp)
}

// propose draws one annealing proposal without changing the mapping;
// false marks a proposal that would change nothing.
func (rf *refiner) propose() (move, bool) {
	m, r := rf.m, rf.r
	n := rf.in.Tree.NumOps()
	switch r.Intn(4) {
	case propMove:
		op := r.Intn(n)
		alive := rf.aliveSet()
		dst := alive[r.Intn(len(alive))]
		return move{kind: propMove, dst: dst, ops: rf.oneOp(op)}, dst != m.OpProc(op)
	case propSplit:
		op := r.Intn(n)
		// An operator already alone would only be relabeled.
		return move{kind: propSplit, dst: len(m.Procs), ops: rf.oneOp(op)}, m.NumOpsOn(m.OpProc(op)) > 1
	case propMerge:
		alive := rf.aliveSet()
		if len(alive) < 2 {
			return move{kind: propMerge}, false
		}
		from := alive[r.Intn(len(alive))]
		to := alive[r.Intn(len(alive))]
		return move{kind: propMerge, dst: to, from: from}, from != to
	default:
		ops := rf.subtree(r.Intn(n))
		alive := rf.aliveSet()
		dst := alive[r.Intn(len(alive))]
		return move{kind: propSubtree, dst: dst, ops: ops}, slices.ContainsFunc(ops, func(op int) bool {
			p := m.OpProc(op)
			return p != dst && p != mapping.Unassigned
		})
	}
}

// oneOp returns the single-element operator list in reusable scratch.
func (rf *refiner) oneOp(op int) []int {
	rf.sc.op1[0] = op
	return rf.sc.op1[:]
}

// sourcesInto gathers the processors ops would leave for dst into
// scratch, in order of first appearance.
func (rf *refiner) sourcesInto(dst int, ops []int) []int {
	srcs := rf.sc.srcs[:0]
	for _, op := range ops {
		if p := rf.m.OpProc(op); p != dst && p != mapping.Unassigned && !slices.Contains(srcs, p) {
			srcs = append(srcs, p)
		}
	}
	rf.sc.srcs = srcs
	return srcs
}

// apply performs mv: dst is upgraded (or bought) at the most expensive
// configuration and receives ops, through TryPlace when probe is set
// and directly when their feasibility is already proven; then emptied
// sources are sold and every other touched configuration is refit. It
// reports false when the probe fails; the caller rolls the partial move
// back.
func (rf *refiner) apply(mv move, probe bool) bool {
	m := rf.m
	if mv.kind == propMerge {
		mv.ops = m.AppendOpsOn(rf.sc.ops[:0], mv.from)
		rf.sc.ops = mv.ops
	}
	srcs := rf.sourcesInto(mv.dst, mv.ops)
	dst := mv.dst
	if mv.kind == propSplit {
		dst = m.Buy(rf.most)
	} else {
		m.SetConfig(dst, rf.most)
	}
	if probe {
		if !m.TryPlace(dst, mv.ops...) {
			return false
		}
	} else {
		for _, op := range mv.ops {
			m.Place(op, dst)
		}
	}
	if mv.kind == propMerge {
		m.Sell(mv.from)
	} else {
		for _, p := range srcs {
			if m.NumOpsOn(p) == 0 {
				m.Sell(p)
			} else {
				m.Refit(p)
			}
		}
	}
	m.Refit(dst)
	return true
}

// noteBest records the current state as the best found so far — if its
// placement admits a server selection (probed through the journal, so
// the mapping is left untouched).
func (rf *refiner) noteBest(cost float64) {
	m := rf.m
	mark := m.Checkpoint()
	err := heuristics.SelectServersThreeLoop(m)
	m.Rollback(mark)
	if err != nil {
		return
	}
	rf.bestCost = cost
	rf.sc.best.CopyFrom(m)
}

// aliveInto gathers the alive processor ids into reusable scratch.
func (rf *refiner) aliveInto() []int {
	rf.sc.alive = rf.sc.alive[:0]
	for p := range rf.m.Procs {
		if rf.m.Procs[p].Alive {
			rf.sc.alive = append(rf.sc.alive, p)
		}
	}
	return rf.sc.alive
}

// aliveSet is aliveInto for the annealing loop, which rebuilds the list
// only after a kept move.
func (rf *refiner) aliveSet() []int {
	if !rf.aliveOK {
		rf.aliveInto()
		rf.aliveOK = true
	}
	return rf.sc.alive
}

// subtree returns op and its operator descendants, in depth-first
// order (each operator before its children, the last child's subtree
// first). The list is a run of sc.pre: callers must not modify it.
func (rf *refiner) subtree(root int) []int {
	sc := rf.sc
	i := sc.prePos[root]
	return sc.pre[i : i+sc.span[root]]
}

// lnsRound destroys a random subtree's placement and repairs it greedily
// (each operator onto the processor minimizing the resulting cost,
// bottom-up), accepting only strict improvements.
func (rf *refiner) lnsRound() {
	m, r := rf.m, rf.r
	n := rf.in.Tree.NumOps()
	cur := m.Cost()
	mark := m.Checkpoint()
	ops := rf.subtree(r.Intn(n))
	if len(ops) > max(3, n/2) {
		m.Rollback(mark) // destroying most of the tree is a re-solve, not a repair
		return
	}
	ops = append(rf.sc.ops[:0], ops...) // sorted below
	rf.sc.ops = ops
	for _, op := range ops {
		p := m.OpProc(op)
		m.Unplace(op)
		if m.NumOpsOn(p) == 0 {
			m.Sell(p)
		}
	}
	// Repair children before parents so CommLoad sees settled neighbours.
	slices.SortFunc(ops, func(a, b int) int { return rf.sc.buPos[a] - rf.sc.buPos[b] })
	for _, op := range ops {
		if !rf.repairOp(op) {
			m.Rollback(mark)
			return
		}
	}
	for _, p := range rf.aliveInto() {
		m.Refit(p)
	}
	newCost := m.Cost()
	if newCost < cur-mapping.Eps {
		m.CommitJournal()
		if newCost < rf.bestCost-mapping.Eps {
			rf.noteBest(newCost)
		}
	} else {
		m.Rollback(mark)
	}
}

// repairOp places op onto the alive processor (or a fresh purchase)
// minimizing the refitted total cost. Each candidate is evaluated
// read-only where the running load estimates decide it, and otherwise
// applied and rolled back through the journal. Ties resolve to the
// lowest processor id, fresh purchase last, so repair is deterministic.
func (rf *refiner) repairOp(op int) bool {
	if testHookRepairOp != nil {
		return testHookRepairOp(rf, op)
	}
	m := rf.m
	rf.sc.cands = append(rf.sc.cands[:0], rf.aliveInto()...)
	price := func(mv move) (float64, bool) {
		ev := m.EvalMove(mv.dst, rf.most, mv.ops)
		switch {
		case ev.Verdict == mapping.Infeasible:
			return 0, false
		case ev.Priced:
			return ev.Cost, true
		}
		mark := m.Checkpoint()
		defer m.Rollback(mark)
		if !rf.apply(mv, ev.Verdict == mapping.Undecided) {
			return 0, false
		}
		return m.Cost(), true
	}
	best := move{kind: -1}
	bestCost := math.Inf(1)
	for _, q := range rf.sc.cands {
		mv := move{kind: propMove, dst: q, ops: rf.oneOp(op)}
		if cost, ok := price(mv); ok && cost < bestCost {
			best, bestCost = mv, cost
		}
	}
	mv := move{kind: propSplit, dst: len(m.Procs), ops: rf.oneOp(op)}
	if cost, ok := price(mv); ok && cost < bestCost {
		best = mv
	}
	return best.kind >= 0 && rf.apply(best, true)
}
