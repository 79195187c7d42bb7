package mapping

import (
	"fmt"
	"testing"

	"repro/internal/apptree"
	"repro/internal/platform"
	"repro/internal/xslice"
)

// The probe TryPlace ran before the running load estimates: every
// affected processor is judged by the exact walk of its operators,
// edges and object refcounts. TestProbeVerdictsMatchReference and
// FuzzProbeEstimates hold the estimate-driven TryPlace to exactly these
// verdicts.

// referenceProbeFeasible is procFeasible as it was: the exact walk,
// returning on the first failed constraint.
func (m *Mapping) referenceProbeFeasible(p int) bool {
	cat := m.Inst.Platform.Catalog
	if m.ComputeLoad(p) > cat.SpeedUnits(m.Procs[p].Config)+eps {
		return false
	}
	s := m.scratchFor()
	touched, comm := m.gatherLinks(p, s)
	ok := !(m.DownloadLoad(p)+comm > cat.BandwidthMBps(m.Procs[p].Config)+eps)
	for _, q := range touched {
		if s.linkAmt[q] > m.Inst.Platform.ProcLinkMBps+eps {
			ok = false
		}
		s.linkOn[q] = false
	}
	s.linkTo = touched[:0]
	return ok
}

// referenceTryPlace is TryPlace as it was.
func (m *Mapping) referenceTryPlace(p int, ops []int) bool {
	s := m.scratchFor()
	s.prev = xslice.Grow(s.prev, len(ops))
	prev := s.prev
	var mark Mark
	if m.jon {
		mark = m.Checkpoint()
	}
	for i, op := range ops {
		prev[i] = m.Assign[op]
		m.Place(op, p)
	}
	affected := append(s.affected[:0], p)
	s.procSeen[p] = true
	tree := m.Inst.Tree
	for _, op := range ops {
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != Unassigned && !s.procSeen[q] {
				s.procSeen[q] = true
				affected = append(affected, q)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != Unassigned && !s.procSeen[q] {
				s.procSeen[q] = true
				affected = append(affected, q)
			}
		}
	}
	ok := true
	for _, q := range affected {
		if !m.referenceProbeFeasible(q) {
			ok = false
			break
		}
	}
	for _, q := range affected {
		s.procSeen[q] = false
	}
	s.affected = affected[:0]
	if !ok {
		if m.jon {
			m.Rollback(mark)
			return false
		}
		for i, op := range ops {
			if prev[i] == Unassigned {
				m.Unplace(op)
			} else {
				m.Place(op, prev[i])
			}
		}
	}
	return ok
}

// checkEstimates fails unless every decided estimate of an alive
// processor agrees with the reference walk, and CheckInvariants (which
// bounds every live estimate) passes.
func (m *Mapping) checkEstimates() error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	if !m.estLive() {
		return nil
	}
	for p := range m.Procs {
		if m.Procs[p].Alive {
			if err := m.checkVerdict(p, m.estimate(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkVerdict fails if v decides p's feasibility against the
// reference walk.
func (m *Mapping) checkVerdict(p int, v estVerdict) error {
	if v != undecided && (v == fits) != m.referenceProbeFeasible(p) {
		e := m.est[p]
		return fmt.Errorf("mapping: processor %d estimate %+v decides fits=%v, the exact walk says %v",
			p, e, v == fits, !(v == fits))
	}
	return nil
}

// ProbeRecord is one TryPlace call and its verdict.
type ProbeRecord struct {
	P   int
	Ops []int
	OK  bool
}

// WatchProbes routes every TryPlace until the test ends through a
// recorder and returns its log. With reference set, each probe runs
// referenceTryPlace, and EvalMove decides nothing, so its callers probe
// through TryPlace. Otherwise each probe runs the estimate-driven
// TryPlace, and the test fails if its verdict differs from
// referenceTryPlace's on a clone, if any estimate it decides disagrees
// with the exact walk of the state it judged, or if checkEstimates
// fails after it; and each verdict EvalMove decides is logged as the
// probe it answers for, and checked against referenceTryPlace on a
// clone carrying the move's configuration swap or fresh buy.
func WatchProbes(t testing.TB, reference bool) *[]ProbeRecord {
	t.Helper()
	log := new([]ProbeRecord)
	testHookTryPlace = func(m *Mapping, p int, ops []int) bool {
		rec := ProbeRecord{P: p, Ops: ops}
		if reference {
			rec.OK = m.referenceTryPlace(p, ops)
		} else {
			want := m.Clone().referenceTryPlace(p, ops)
			rec.OK = m.tryPlace(p, ops)
			if rec.OK != want {
				t.Errorf("probe %d: TryPlace(%d, %v) = %v, reference %v", len(*log), p, ops, rec.OK, want)
			}
			if err := m.checkEstimates(); err != nil {
				t.Errorf("probe %d: after TryPlace(%d, %v): %v", len(*log), p, ops, err)
			}
		}
		*log = append(*log, rec)
		return rec.OK
	}
	testHookEvalMove = func(m *Mapping, p int, cfg platform.Config, ops []int, v Verdict) Verdict {
		if reference || v == Undecided {
			return Undecided
		}
		rec := ProbeRecord{P: p, Ops: append([]int(nil), ops...), OK: v == Feasible}
		if want := moveClone(m, p, cfg).referenceTryPlace(p, ops); rec.OK != want {
			t.Errorf("probe %d: EvalMove(%d, %v, %v) = %v, reference TryPlace %v", len(*log), p, cfg, ops, v, want)
		}
		*log = append(*log, rec)
		return v
	}
	if !reference {
		testHookEstimate = func(m *Mapping, p int, v estVerdict) {
			if err := m.checkVerdict(p, v); err != nil {
				t.Errorf("probe %d: %v", len(*log), err)
			}
		}
	}
	t.Cleanup(func() { testHookTryPlace, testHookEstimate, testHookEvalMove = nil, nil, nil })
	return log
}

// moveClone returns a clone of m with the configuration swap or fresh
// buy that EvalMove(p, cfg, ...) evaluates a move after.
func moveClone(m *Mapping, p int, cfg platform.Config) *Mapping {
	c := m.Clone()
	if p == len(c.Procs) {
		c.Buy(cfg)
	} else {
		c.SetConfig(p, cfg)
	}
	return c
}

// WatchFallbacks counts, until the test ends, the checks TryPlace makes
// per processor, and how many of them fell back to the exact walk.
func WatchFallbacks(t testing.TB) (checks, fallbacks map[int]int) {
	checks, fallbacks = map[int]int{}, map[int]int{}
	testHookEstimate = func(m *Mapping, p int, v estVerdict) {
		checks[p]++
		if v == undecided {
			fallbacks[p]++
		}
	}
	t.Cleanup(func() { testHookEstimate = nil })
	return checks, fallbacks
}

// ReferenceProbeFeasible runs the reference walk for processor p.
func ReferenceProbeFeasible(m *Mapping, p int) bool { return m.referenceProbeFeasible(p) }
