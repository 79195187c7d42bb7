package mapping

import (
	"repro/internal/apptree"
	"repro/internal/platform"
	"repro/internal/xslice"
)

// Verdict is EvalMove's answer to "would TryPlace accept this move?".
type Verdict int8

const (
	// Undecided: some processor TryPlace would check has an estimate too
	// close to a capacity, and only the exact walk can tell.
	Undecided Verdict = iota
	// Feasible: every processor TryPlace would check provably fits.
	Feasible
	// Infeasible: some processor TryPlace would check provably overflows.
	Infeasible
)

// Refit is one processor a move touches, as the move leaves it.
type Refit struct {
	P    int
	Cfg  platform.Config // the configuration Refit gives P; unset when Sold
	Sold bool            // the move empties P, which is then sold
}

// MoveEval is EvalMove's answer.
type MoveEval struct {
	Verdict Verdict
	// Priced reports a Feasible move whose every refit configuration is
	// decided; Refits and Cost are set only then.
	Priced bool
	// Refits lists the processors the operators leave, in order of
	// first appearance in ops, then the destination. It lives in the
	// mapping's scratch and is valid until the next EvalMove.
	Refits []Refit
	// Cost is Cost() after the move, bit for bit.
	Cost float64
}

// EvalMove evaluates, without changing the mapping, the refinement
// layer's move of ops onto processor p: p is swapped onto configuration
// cfg (or, when p == len(Procs), a processor with cfg is bought), then
// TryPlace(p, ops...) runs, every processor the move empties is sold,
// and every other processor it touches (p and the processors the
// operators leave) is Refit. p must be alive or len(Procs).
//
// The verdict is TryPlace's, decided from the running load estimates:
// EvalMove replays the move's attach and detach updates on shadow
// copies of the estimates and assignment, then judges each processor
// TryPlace would check (p and the processors of the moved operators'
// neighbours) as feasible does, by the shadow estimate's error bound.
// It answers Undecided wherever that bound leaves TryPlace's answer
// open, and never claims an overflow for any other processor.
//
// For a Feasible move, each refit configuration counts as decided when
// CheapestFitting agrees at the low and the high corner of the
// estimate's bounds on the processor's compute and NIC loads: fitting
// sets only shrink as loads grow, and CheapestFitting picks the first
// cheapest fitting option (the catalog lists options by non-decreasing
// cost), so the configuration is then the same for every load inside
// the bounds, the exact one included. With every
// configuration decided, the move is priced in Cost's own summation
// order (alive processors by index, sold ones skipped, a fresh buy
// last), so Cost equals the applied move's Cost() bit for bit.
func (m *Mapping) EvalMove(p int, cfg platform.Config, ops []int) MoveEval {
	if !m.estLive() {
		m.rebuildEst()
	}
	in := m.Inst
	K := in.NumTypes
	np := len(m.Procs) + 1 // every processor and a fresh buy
	s := m.scratchFor()
	s.shEst = xslice.Grow(s.shEst, np)
	copy(s.shEst, m.est[:np-1])
	s.shEst[np-1] = loadEst{}
	s.shAssign = append(s.shAssign[:0], m.Assign...)
	s.shSeen = xslice.Grow(s.shSeen, np)
	s.dOps = xslice.Grow(s.dOps, np)
	s.dRef = xslice.Grow(s.dRef, np*K)
	est, assign, dOps := s.shEst, s.shAssign, s.dOps

	// Place(op, p) for each op in turn, replayed on the shadow state.
	srcs := s.srcs[:0]
	for _, op := range ops {
		src := assign[op]
		if src == p {
			continue
		}
		if src != Unassigned {
			if dOps[src] == 0 {
				srcs = append(srcs, src)
			}
			dOps[src]--
			assign[op] = Unassigned
			m.shadowRefs(op, src, -1)
			estMove(in, est, assign, op, src, -1)
		}
		assign[op] = p
		dOps[p]++
		m.shadowRefs(op, p, 1)
		estMove(in, est, assign, op, p, 1)
	}
	s.srcs = srcs

	// The processors TryPlace checks, in its order.
	seen := s.shSeen
	affected := append(s.affected[:0], p)
	seen[p] = true
	tree := in.Tree
	for _, op := range ops {
		for _, c := range tree.Ops[op].ChildOps {
			if q := assign[c]; q != Unassigned && !seen[q] {
				seen[q] = true
				affected = append(affected, q)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := assign[par]; q != Unassigned && !seen[q] {
				seen[q] = true
				affected = append(affected, q)
			}
		}
	}
	v := Feasible
	for _, q := range affected {
		seen[q] = false
		if v == Infeasible {
			continue
		}
		qcfg := cfg
		if q != p {
			qcfg = m.Procs[q].Config
		}
		switch m.judge(&est[q], m.shadowOps(q), qcfg) {
		case overflows:
			v = Infeasible
		case undecided:
			v = Undecided
		}
	}
	s.affected = affected[:0]
	v = m.answer(p, cfg, ops, v)

	ev := MoveEval{Verdict: v}
	if v == Feasible {
		ev.Priced, ev.Refits, ev.Cost = m.price(p, cfg)
	}

	for _, op := range ops {
		if src := m.Assign[op]; src != p {
			for _, li := range tree.Ops[op].Leaves {
				k := tree.Leaves[li].Object
				if src != Unassigned {
					s.dRef[src*K+k] = 0
				}
				s.dRef[p*K+k] = 0
			}
		}
	}
	for _, q := range srcs {
		dOps[q] = 0
	}
	dOps[p] = 0
	return ev
}

// EvalMerge is EvalMove(to, cfg, OpsOn(from)), the merge of every
// operator of processor from onto processor to, which sells from. It
// first judges to's compute alone, in O(1): the compute estimate after
// the merge is from's added onto to's, as one more term whose own drift
// (from's err) joins the sum's. Most merges of two loaded processors
// overflow there. An empty from is left Undecided, since the merge
// sells it without moving an operator.
func (m *Mapping) EvalMerge(from, to int, cfg platform.Config) MoveEval {
	ops := m.opsOn[from]
	if len(ops) == 0 {
		return MoveEval{}
	}
	if !m.estLive() {
		m.rebuildEst()
	}
	e := m.est[to]
	e.err += m.est[from].err
	e.comp = e.add(e.comp, m.est[from].comp, 1)
	g := m.gammaFor(len(m.opsOn[to]) + len(ops))
	if classify(e.comp, slack(e.comp, e.err, g), m.Inst.Platform.Catalog.SpeedUnits(cfg)+eps) == overflows {
		return MoveEval{Verdict: m.answer(to, cfg, ops, Infeasible)}
	}
	return m.EvalMove(to, cfg, ops)
}

// answer returns EvalMove's verdict v on moving ops onto p, configured
// cfg, as testHookEvalMove rules it in tests.
func (m *Mapping) answer(p int, cfg platform.Config, ops []int, v Verdict) Verdict {
	if testHookEvalMove != nil {
		return testHookEvalMove(m, p, cfg, ops, v)
	}
	return v
}

// shadowRefs replays attach's (sign +1) or detach's (sign −1) refcount
// update of op's leaves on processor q against EvalMove's refcount
// changes, charging q's shadow download estimate when a count leaves or
// reaches zero.
func (m *Mapping) shadowRefs(op, q int, sign int32) {
	in := m.Inst
	s := m.scr
	base := q * in.NumTypes
	for _, li := range in.Tree.Ops[op].Leaves {
		i := base + in.Tree.Leaves[li].Object
		was := s.dRef[i]
		if i < len(m.objRef) {
			was += m.objRef[i]
		}
		s.dRef[i] += sign
		if sign > 0 && was == 0 || sign < 0 && was == 1 {
			e := &s.shEst[q]
			e.dl = e.add(e.dl, in.Rate(in.Tree.Leaves[li].Object), float64(sign))
		}
	}
}

// shadowOps is the number of operators processor q hosts after the move
// EvalMove is replaying.
func (m *Mapping) shadowOps(q int) int {
	n := m.scr.dOps[q]
	if q < len(m.opsOn) {
		n += len(m.opsOn[q])
	}
	return n
}

// price decides the configuration Refit gives every processor the move
// EvalMove is replaying touches, p (configured cfg for the move) last,
// and sums Cost over the result. ok is false when some configuration is
// undecided.
func (m *Mapping) price(p int, cfg platform.Config) (ok bool, refits []Refit, cost float64) {
	s := m.scr
	refits = s.refits[:0]
	for _, q := range s.srcs {
		n := m.shadowOps(q)
		if n == 0 {
			refits = append(refits, Refit{P: q, Sold: true})
			continue
		}
		c, ok := m.refitCfg(&s.shEst[q], n, m.Procs[q].Config)
		if !ok {
			return false, nil, 0
		}
		refits = append(refits, Refit{P: q, Cfg: c})
	}
	c, ok := m.refitCfg(&s.shEst[p], m.shadowOps(p), cfg)
	if !ok {
		return false, nil, 0
	}
	refits = append(refits, Refit{P: p, Cfg: c})
	s.refits = refits

	cat := m.Inst.Platform.Catalog
	for q := range m.Procs {
		if !m.Procs[q].Alive {
			continue
		}
		c := m.Procs[q].Config
		if i := refitOf(refits, q); i >= 0 {
			if refits[i].Sold {
				continue
			}
			c = refits[i].Cfg
		}
		cost += cat.Cost(c)
	}
	if p == len(m.Procs) {
		cost += cat.Cost(refits[len(refits)-1].Cfg)
	}
	return true, refits, cost
}

// refitOf returns the index of processor q in refits, or -1.
func refitOf(refits []Refit, q int) int {
	for i := range refits {
		if refits[i].P == q {
			return i
		}
	}
	return -1
}

// refitCfg decides the configuration Refit gives a processor configured
// cur, hosting n operators, whose running estimate is e: ok is false
// unless CheapestFitting agrees at both corners of the estimate's
// bounds on the compute and NIC loads. A void estimate decides nothing.
func (m *Mapping) refitCfg(e *loadEst, n int, cur platform.Config) (platform.Config, bool) {
	if e.void() {
		return cur, false
	}
	cat := m.Inst.Platform.Catalog
	g := m.gammaFor(n)
	compSlack := slack(e.comp, e.err, g)
	nic, nicSlack := nicBox(e, g)
	lo, okLo := cat.CheapestFitting(e.comp-compSlack, nic-nicSlack)
	hi, okHi := cat.CheapestFitting(e.comp+compSlack, nic+nicSlack)
	if lo != hi || okLo != okHi {
		return cur, false
	}
	if okHi && cat.Cost(hi) <= cat.Cost(cur) {
		return hi, true
	}
	return cur, true
}

// Refit swaps processor p onto the cheapest configuration sustaining its
// current loads, unless that costs more than its current one (a
// processor whose loads fit its configuration is never upgraded).
func (m *Mapping) Refit(p int) {
	cat := m.Inst.Platform.Catalog
	if cfg, ok := cat.CheapestFitting(m.ComputeLoad(p), m.NICLoad(p)); ok && cat.Cost(cfg) <= cat.Cost(m.Procs[p].Config) {
		m.SetConfig(p, cfg)
	}
}

// AppendOpsOn appends the operators assigned to p, ascending, to buf.
func (m *Mapping) AppendOpsOn(buf []int, p int) []int {
	return append(buf, m.opsOn[p]...)
}
