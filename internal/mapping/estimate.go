package mapping

import (
	"fmt"
	"math"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/platform"
)

// loadEst is a processor's running load estimate: its compute, download
// and comm loads, updated in O(1) per term as operators attach and
// detach, together with err, a bound on how far each of the three has
// drifted from the exact real sum of the terms it holds. Every update
// adds 2⁻⁵² times the magnitude of its result to err, which covers that
// update's rounding (at most 2⁻⁵³ of it). A non-finite err voids the
// estimate, so every check of its processor falls back to the exact walk
// until the slot is bought afresh or the estimates are rebuilt. A
// negative or NaN term sets it, since the bound assumes non-negative
// terms; an infinite term reaches it.
type loadEst struct {
	comp, dl, comm, err float64
}

// ulp is 2⁻⁵², twice the unit roundoff of float64.
const ulp = 0x1p-52

// add returns v + sign·t (sign is ±1) and charges its rounding to err.
func (e *loadEst) add(v, t, sign float64) float64 {
	if !(t >= 0) {
		e.err = math.Inf(1)
	}
	v += sign * t
	e.err += ulp * math.Abs(v)
	return v
}

// void reports whether the estimate's bound is void (err +Inf or NaN).
func (e *loadEst) void() bool { return !(e.err < math.Inf(1)) }

// estLive reports whether est covers every processor.
func (m *Mapping) estLive() bool { return len(m.est) >= len(m.Procs) }

// estMove charges op's compute term to processor p's estimate in est,
// and the traffic of every tree edge op shares with an operator on
// another processor q to both p's and q's comm estimates: attach passes
// sign +1 and detach −1. The crossing test is CommLoad's, over the
// assignment assign. attach and detach pass the mapping's own estimates
// and assignment; EvalMove passes shadow copies of both.
func estMove(in *instance.Instance, est []loadEst, assign []int, op, p int, sign float64) {
	e := &est[p]
	e.comp = e.add(e.comp, in.Rho*in.W[op], sign)
	ops := in.Tree.Ops
	for _, c := range ops[op].ChildOps {
		if q := assign[c]; q != p && q != Unassigned {
			t := in.EdgeTraffic(c)
			e.comm = e.add(e.comm, t, sign)
			eq := &est[q]
			eq.comm = eq.add(eq.comm, t, sign)
		}
	}
	if par := ops[op].Parent; par != apptree.NoParent {
		if q := assign[par]; q != p && q != Unassigned {
			t := in.EdgeTraffic(op)
			e.comm = e.add(e.comm, t, sign)
			eq := &est[q]
			eq.comm = eq.add(eq.comm, t, sign)
		}
	}
}

// rebuildEst recomputes every processor's estimate from the assignment,
// sizing est to the processor list's capacity so that Buys within it
// keep the estimates live. TryPlace calls it when they are not.
func (m *Mapping) rebuildEst() {
	in, tree := m.Inst, m.Inst.Tree
	if cap(m.est) < cap(m.Procs) {
		m.est = make([]loadEst, cap(m.Procs))
	}
	m.est = m.est[:cap(m.est)]
	clear(m.est[:len(m.Procs)])
	for op, p := range m.Assign {
		if p == Unassigned {
			continue
		}
		e := &m.est[p]
		e.comp = e.add(e.comp, in.Rho*in.W[op], 1)
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != p && q != Unassigned {
				t := in.EdgeTraffic(op)
				e.comm = e.add(e.comm, t, 1)
				eq := &m.est[q]
				eq.comm = eq.add(eq.comm, t, 1)
			}
		}
	}
	K := in.NumTypes
	for p := range m.Procs {
		e := &m.est[p]
		for k := 0; k < K; k++ {
			if m.objRef[p*K+k] > 0 {
				e.dl = e.add(e.dl, in.Rate(k), 1)
			}
		}
	}
}

// gammaFor bounds the relative rounding error of the canonical load sums
// of a processor hosting n operators: a recursive float sum of n
// non-negative terms lies within n·2⁻⁵³·(1+O(n·2⁻⁵³)) of the exact one,
// and the NIC check sums at most K download terms, three crossing edges
// per operator and one more add. The factor 2⁻⁵² per term leaves a
// margin for that second-order term and for a contracted (fused)
// multiply-add in either sum.
func (m *Mapping) gammaFor(n int) float64 {
	return float64(3*n+m.Inst.NumTypes+4) * ulp
}

// slack bounds the distance between a canonical sum and an estimate v
// whose drift from the exact sum is at most err: err, plus the canonical
// sum's own rounding, g times the exact sum, which is at most |v|+err.
func slack(v, err, g float64) float64 { return err + g*(math.Abs(v)+err) }

// estVerdict is an estimate's answer to one capacity check.
type estVerdict int8

const (
	undecided estVerdict = iota
	fits                 // every load within the slack passes the check
	overflows            // every load within the slack fails it
)

// classify decides the check load > limit (a failure, as everywhere in
// the package) for every load within slack of est. A comparison
// involving NaN is false, so a NaN estimate or slack stays undecided.
// Rounding of est±slack cannot flip a decision: limit is a float, and
// rounding is monotone.
func classify(est, slack, limit float64) estVerdict {
	switch {
	case est+slack < limit:
		return fits
	case est-slack > limit:
		return overflows
	}
	return undecided
}

// estimate decides procFeasible(p) from p's running estimate where it
// can.
func (m *Mapping) estimate(p int) estVerdict {
	return m.judge(&m.est[p], len(m.opsOn[p]), m.Procs[p].Config)
}

// nicBox bounds NICLoad for a processor whose running estimate is e and
// whose canonical sums round within g (gammaFor): it lies within
// nicSlack of nic. The NIC estimate dl+comm drifts by at most 2·err
// from its exact sum, plus the rounding of its own add.
func nicBox(e *loadEst, g float64) (nic, nicSlack float64) {
	nic = e.dl + e.comm
	return nic, slack(nic, 2*e.err+ulp*math.Abs(nic), g)
}

// judge decides procFeasible for a processor with configuration cfg,
// hosting n operators, whose running estimate is e. Each (5)-link of
// the processor carries a subset of its crossing edges, so a comm
// estimate that fits the link capacity proves every link does; an
// estimate alone never proves a link overloaded.
func (m *Mapping) judge(e *loadEst, n int, cfg platform.Config) estVerdict {
	cat := m.Inst.Platform.Catalog
	g := m.gammaFor(n)
	comp := classify(e.comp, slack(e.comp, e.err, g), cat.SpeedUnits(cfg)+eps)
	if comp == overflows {
		return overflows
	}
	nic, nicSlack := nicBox(e, g)
	switch classify(nic, nicSlack, cat.BandwidthMBps(cfg)+eps) {
	case overflows:
		return overflows
	case undecided:
		return undecided
	}
	if comp == fits && classify(e.comm, slack(e.comm, e.err, g), m.Inst.Platform.ProcLinkMBps+eps) == fits {
		return fits
	}
	return undecided
}

// feasible is procFeasible(p), decided by p's estimate where possible.
func (m *Mapping) feasible(p int) bool {
	v := m.estimate(p)
	if testHookEstimate != nil {
		testHookEstimate(m, p, v)
	}
	switch v {
	case fits:
		return true
	case overflows:
		return false
	}
	return m.procFeasible(p)
}

// resyncEst resets p's estimate to the canonical sums procFeasible just
// computed, with err their own rounding bound, so long-lived mappings
// (refinement, churn repair) keep err small. A void estimate stays void.
func (m *Mapping) resyncEst(p int, comp, dl, comm float64) {
	if e := &m.est[p]; !e.void() {
		*e = loadEst{comp: comp, dl: dl, comm: comm, err: m.gammaFor(len(m.opsOn[p])) * max(comp, dl, comm)}
	}
}

// checkEst reports an error unless each of p's live estimates lies
// within its bound of the fresh canonical sums.
func (m *Mapping) checkEst(p int, comp, dl, comm float64) error {
	e := &m.est[p]
	if e.void() {
		return nil
	}
	g := m.gammaFor(len(m.opsOn[p]))
	within := func(est, fresh float64) bool { return math.Abs(est-fresh) <= slack(est, e.err, g) }
	if within(e.comp, comp) && within(e.dl, dl) && within(e.comm, comm) {
		return nil
	}
	return fmt.Errorf("mapping: processor %d running estimate %+v strays beyond its bound from the fresh compute %v, download %v and comm %v",
		p, *e, comp, dl, comm)
}
