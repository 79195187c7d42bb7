package refine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapping"
)

// The annealing step as it was before proposals were evaluated
// read-only: every proposal is applied through the move journal
// (checkpoint, mutate, TryPlace, refit, price) and rolled back unless the
// Metropolis rule keeps it. The differential tests hold step to exactly
// its proposals, verdicts, costs, random draws and final mappings.

// parentStep is step as it was, reporting what it did.
func (rf *refiner) parentStep(temp float64) stepRecord {
	m := rf.m
	cur := m.Cost()
	mark := m.Checkpoint()
	var rec stepRecord
	newCost, ok := rf.parentPropose(&rec)
	if !ok {
		m.Rollback(mark)
		return rec
	}
	rec.cost = newCost
	delta := newCost - cur
	if delta <= mapping.Eps || rf.r.Float64() < math.Exp(-delta/temp) {
		m.CommitJournal()
		rec.outcome = stepAccepted
		if newCost < rf.bestCost-mapping.Eps {
			rf.noteBest(newCost)
		}
	} else {
		m.Rollback(mark)
		rec.outcome = stepRejected
	}
	return rec
}

// parentPropose is propose as it was: it mutates the mapping by one
// tentative move and returns the new cost; on false the caller rolls
// the partial move back. It records the proposal in rec, and marks a
// proposal TryPlace rejected infeasible.
func (rf *refiner) parentPropose(rec *stepRecord) (float64, bool) {
	m, r := rf.m, rf.r
	n := rf.in.Tree.NumOps()
	switch r.Intn(4) {
	case 0: // move one operator onto an existing processor
		op := r.Intn(n)
		alive := rf.aliveInto()
		dst := alive[r.Intn(len(alive))]
		rec.move = move{kind: propMove, dst: dst, ops: []int{op}}
		if dst == m.OpProc(op) {
			return 0, false
		}
		return rf.parentMoveOps(rec, dst, rf.oneOp(op))
	case 1: // split one operator out onto a fresh purchase
		op := r.Intn(n)
		rec.move = move{kind: propSplit, dst: len(m.Procs), ops: []int{op}}
		if m.NumOpsOn(m.OpProc(op)) <= 1 {
			return 0, false // already alone: a pure relabeling
		}
		return rf.parentMoveOps(rec, m.Buy(rf.most), rf.oneOp(op))
	case 2: // merge one processor into another
		alive := rf.aliveInto()
		rec.move = move{kind: propMerge}
		if len(alive) < 2 {
			return 0, false
		}
		from := alive[r.Intn(len(alive))]
		to := alive[r.Intn(len(alive))]
		rec.move = move{kind: propMerge, dst: to, from: from}
		if from == to {
			return 0, false
		}
		m.SetConfig(to, rf.most)
		if !m.MoveAll(from, to) {
			rec.outcome = stepInfeasible
			return 0, false
		}
		rf.parentRefit(to)
		return m.Cost(), true
	default: // move a whole subtree onto an existing processor
		ops := rf.parentSubtree(r.Intn(n))
		alive := rf.aliveInto()
		dst := alive[r.Intn(len(alive))]
		rec.move = move{kind: propSubtree, dst: dst, ops: slices.Clone(ops)}
		return rf.parentMoveOps(rec, dst, ops)
	}
}

// parentMoveOps is moveOps as it was: it moves ops onto dst (upgraded
// for the attempt), sells emptied source processors and refits every
// touched configuration.
func (rf *refiner) parentMoveOps(rec *stepRecord, dst int, ops []int) (float64, bool) {
	m := rf.m
	srcs := rf.sc.srcs[:0]
	for _, op := range ops {
		p := m.OpProc(op)
		if p == dst || p == mapping.Unassigned {
			continue
		}
		if !slices.Contains(srcs, p) {
			srcs = append(srcs, p)
		}
	}
	rf.sc.srcs = srcs
	if len(srcs) == 0 {
		return 0, false // nothing would change
	}
	m.SetConfig(dst, rf.most)
	if !m.TryPlace(dst, ops...) {
		rec.outcome = stepInfeasible
		return 0, false
	}
	for _, p := range srcs {
		if m.NumOpsOn(p) == 0 {
			m.Sell(p)
		} else {
			rf.parentRefit(p)
		}
	}
	rf.parentRefit(dst)
	return m.Cost(), true
}

// parentSubtree is subtreeInto as it was: it gathers op and its
// operator descendants into scratch.
func (rf *refiner) parentSubtree(root int) []int {
	sc := rf.sc
	sc.ops = sc.ops[:0]
	sc.stack = append(sc.stack[:0], root)
	for len(sc.stack) > 0 {
		op := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		sc.ops = append(sc.ops, op)
		sc.stack = append(sc.stack, rf.in.Tree.Ops[op].ChildOps...)
	}
	return sc.ops
}

// parentRefit is refit as it was.
func (rf *refiner) parentRefit(p int) {
	cfg, ok := rf.cat.CheapestFitting(rf.m.ComputeLoad(p), rf.m.NICLoad(p))
	if ok && rf.cat.Cost(cfg) <= rf.cat.Cost(rf.m.Procs[p].Config) {
		rf.m.SetConfig(p, cfg)
	}
}

// parentRepairOp is repairOp as it was: every candidate is probed and
// rolled back through the journal.
func (rf *refiner) parentRepairOp(op int) bool {
	m := rf.m
	// Probing mutates the processor set, so iterate over a snapshot.
	cands := append(rf.sc.srcs[:0], rf.aliveInto()...)
	rf.sc.srcs = cands
	bestCost := math.Inf(1)
	bestProc := -1
	fresh := false
	probe := func(dst int) (float64, bool) {
		mark := m.Checkpoint()
		m.SetConfig(dst, rf.most)
		ok := m.TryPlace(dst, op)
		var cost float64
		if ok {
			rf.parentRefit(dst)
			cost = m.Cost()
		}
		m.Rollback(mark)
		return cost, ok
	}
	for _, q := range cands {
		if cost, ok := probe(q); ok && cost < bestCost {
			bestCost, bestProc = cost, q
		}
	}
	{
		mark := m.Checkpoint()
		q := m.Buy(rf.most)
		if m.TryPlace(q, op) {
			rf.parentRefit(q)
			if cost := m.Cost(); cost < bestCost {
				bestCost, fresh = cost, true
			}
		}
		m.Rollback(mark)
	}
	switch {
	case fresh:
		q := m.Buy(rf.most)
		if !m.TryPlace(q, op) {
			return false
		}
		rf.parentRefit(q)
	case bestProc >= 0:
		m.SetConfig(bestProc, rf.most)
		if !m.TryPlace(bestProc, op) {
			return false
		}
		rf.parentRefit(bestProc)
	default:
		return false
	}
	return true
}

// StepRecord is one annealing step as the differential tests compare
// it: the proposal, how the step ended, the bits of the cost it priced,
// and how many random numbers its refinement had drawn after it.
type StepRecord struct {
	Kind, Dst, From int
	Ops             []int
	Outcome         int
	CostBits        uint64
	Draws           int
}

// countingSource forwards to a generator and counts its draws, so a
// generator over it yields the forwarded stream, draw for draw.
type countingSource struct {
	r *rand.Rand
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.r.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.r.Uint64() }
func (c *countingSource) Seed(int64)     { panic("refine: reseeding a counted stream") }

// WatchSteps runs every annealing step until the test ends through a
// recorder and returns its log: with parent set each step runs
// parentStep and each destroy/repair placement parentRepairOp,
// otherwise step and repairOp. Each refinement's generator is wrapped
// in a counting one at its first step, so Draws counts from there.
func WatchSteps(t testing.TB, parent bool) *[]StepRecord {
	log := new([]StepRecord)
	counters := map[*rand.Rand]*countingSource{}
	testHookStep = func(rf *refiner, temp float64) {
		c, ok := counters[rf.r]
		if !ok {
			c = &countingSource{r: rf.r}
			rf.r = rand.New(c)
			counters[rf.r] = c
		}
		var rec stepRecord
		if parent {
			rec = rf.parentStep(temp)
		} else {
			rec = rf.step(temp)
		}
		*log = append(*log, StepRecord{
			Kind: rec.kind, Dst: rec.dst, From: rec.from, Ops: slices.Clone(rec.ops),
			Outcome: rec.outcome, CostBits: math.Float64bits(rec.cost), Draws: c.n,
		})
	}
	if parent {
		testHookRepairOp = (*refiner).parentRepairOp
	}
	t.Cleanup(func() { testHookStep, testHookRepairOp = nil, nil })
	return log
}
