package mapping

import (
	"fmt"

	"repro/internal/apptree"
	"repro/internal/xslice"
)

// The checker Validate replaced: CheckInvariants re-summed every
// processor's loads with a full walk of Assign per processor (O(P·N)),
// Validate re-derived each alive processor's needed objects the same way
// and summed the server loads with one ServerLoad/ServerLinkLoad map
// iteration per (server, processor). TestValidateMatchesReference holds
// the single-pass checker to exactly this one's verdicts and messages.

// ReferenceValidate runs the historical Validate on m.
func ReferenceValidate(m *Mapping) error { return m.referenceValidate() }

// ReferenceCheckInvariants runs the historical CheckInvariants on m.
func ReferenceCheckInvariants(m *Mapping) error { return m.referenceCheckInvariants() }

// BumpObjRef corrupts m's cached leaf refcount of object k on processor p.
func BumpObjRef(m *Mapping, p, k int) { m.objRef[p*m.Inst.NumTypes+k]++ }

func (m *Mapping) referenceMarkNeeded(p int, objSeen []bool) bool {
	tree := m.Inst.Tree
	any := false
	for op, q := range m.Assign {
		if q != p {
			continue
		}
		for _, li := range tree.Ops[op].Leaves {
			objSeen[tree.Leaves[li].Object] = true
			any = true
		}
	}
	return any
}

func (m *Mapping) referenceComputeLoad(p int) float64 {
	load := 0.0
	for op, q := range m.Assign {
		if q == p {
			load += m.Inst.Rho * m.Inst.W[op]
		}
	}
	return load
}

func (m *Mapping) referenceCommLoad(p int) float64 {
	load := 0.0
	tree := m.Inst.Tree
	for op, onP := range m.Assign {
		if onP != p {
			continue
		}
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != p && q != Unassigned {
				load += m.Inst.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != p && q != Unassigned {
				load += m.Inst.EdgeTraffic(op)
			}
		}
	}
	return load
}

func (m *Mapping) referenceDownloadLoad(p int) float64 {
	s := m.scratchFor()
	if !m.referenceMarkNeeded(p, s.objSeen) {
		return 0
	}
	load := 0.0
	for k, seen := range s.objSeen {
		if seen {
			load += m.Inst.Rate(k)
			s.objSeen[k] = false
		}
	}
	return load
}

func (m *Mapping) referenceCheckInvariants() error {
	total := 0
	for p := range m.Procs {
		prev := -1
		for _, op := range m.opsOn[p] {
			if op <= prev {
				return fmt.Errorf("mapping: opsOn[%d] not strictly ascending: %v", p, m.opsOn[p])
			}
			prev = op
			if op < 0 || op >= len(m.Assign) || m.Assign[op] != p {
				return fmt.Errorf("mapping: opsOn[%d] lists operator %d assigned to %d", p, op, m.Assign[op])
			}
		}
		total += len(m.opsOn[p])
	}
	assigned := 0
	for _, p := range m.Assign {
		if p != Unassigned {
			assigned++
		}
	}
	if assigned != total {
		return fmt.Errorf("mapping: %d operators assigned but opsOn lists %d", assigned, total)
	}
	K := m.Inst.NumTypes
	tree := m.Inst.Tree
	s := m.scratchFor()
	s.refCnt = xslice.Grow(s.refCnt, K)
	for p := range m.Procs {
		cnt := s.refCnt[:K]
		for k := range cnt {
			cnt[k] = 0
		}
		for _, op := range m.opsOn[p] {
			for _, li := range tree.Ops[op].Leaves {
				cnt[tree.Leaves[li].Object]++
			}
		}
		base := p * K
		for k := 0; k < K; k++ {
			if cnt[k] != m.objRef[base+k] {
				return fmt.Errorf("mapping: processor %d object %d refcount %d, want %d", p, k, m.objRef[base+k], cnt[k])
			}
		}
		if got, want := m.ComputeLoad(p), m.referenceComputeLoad(p); got != want {
			return fmt.Errorf("mapping: processor %d cached compute load %v, fresh %v", p, got, want)
		}
		if got, want := m.CommLoad(p), m.referenceCommLoad(p); got != want {
			return fmt.Errorf("mapping: processor %d cached comm load %v, fresh %v", p, got, want)
		}
		if got, want := m.DownloadLoad(p), m.referenceDownloadLoad(p); got != want {
			return fmt.Errorf("mapping: processor %d cached download load %v, fresh %v", p, got, want)
		}
	}
	return nil
}

// referenceProcFeasible checks (2) with NICLoad's separate CommLoad walk.
func (m *Mapping) referenceProcFeasible(p int) error {
	cat := m.Inst.Platform.Catalog
	if load, cap := m.ComputeLoad(p), cat.SpeedUnits(m.Procs[p].Config); load > cap+eps {
		return fmt.Errorf("mapping: processor %d compute overload %.3f > %.3f units/s", p, load, cap)
	}
	if load, cap := m.NICLoad(p), cat.BandwidthMBps(m.Procs[p].Config); load > cap+eps {
		return fmt.Errorf("mapping: processor %d NIC overload %.3f > %.3f MB/s", p, load, cap)
	}
	s := m.scratchFor()
	touched, _ := m.gatherLinks(p, s)
	for i := 1; i < len(touched); i++ {
		for j := i; j > 0 && touched[j] < touched[j-1]; j-- {
			touched[j], touched[j-1] = touched[j-1], touched[j]
		}
	}
	var err error
	for _, q := range touched {
		if tr := s.linkAmt[q]; err == nil && tr > m.Inst.Platform.ProcLinkMBps+eps {
			err = fmt.Errorf("mapping: link %d-%d overload %.3f > %.3f MB/s", p, q, tr, m.Inst.Platform.ProcLinkMBps)
		}
		s.linkOn[q] = false
	}
	s.linkTo = touched[:0]
	return err
}

func (m *Mapping) referenceValidate() error {
	in := m.Inst
	for op, p := range m.Assign {
		if p == Unassigned {
			return fmt.Errorf("mapping: operator %d unassigned", op)
		}
		if p < 0 || p >= len(m.Procs) || !m.Procs[p].Alive {
			return fmt.Errorf("mapping: operator %d on invalid processor %d", op, p)
		}
	}
	if err := m.referenceCheckInvariants(); err != nil {
		return err
	}
	s := m.scratchFor()
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		needed := 0
		m.referenceMarkNeeded(p, s.objSeen)
		for _, seen := range s.objSeen {
			if seen {
				needed++
			}
		}
		var verr error
		if needed != len(m.DL[p]) {
			verr = fmt.Errorf("mapping: processor %d needs %d objects but has %d downloads", p, needed, len(m.DL[p]))
		}
		for k, seen := range s.objSeen {
			if !seen {
				continue
			}
			s.objSeen[k] = false
			if verr != nil {
				continue
			}
			l, ok := m.DL[p][k]
			switch {
			case !ok:
				verr = fmt.Errorf("mapping: processor %d missing download for object %d", p, k)
			case l == NoServer:
				verr = fmt.Errorf("mapping: processor %d object %d has no server selected", p, k)
			default:
				holds := false
				for _, h := range in.Holders[k] {
					if h == l {
						holds = true
					}
				}
				if !holds {
					verr = fmt.Errorf("mapping: processor %d downloads object %d from server %d which does not hold it", p, k, l)
				}
			}
		}
		if verr != nil {
			return verr
		}
		if err := m.referenceProcFeasible(p); err != nil {
			return err
		}
	}
	for l := range in.Platform.Servers {
		if load, cap := m.ServerLoad(l), in.Platform.Servers[l].NICMBps; load > cap+eps {
			return fmt.Errorf("mapping: server %d NIC overload %.3f > %.3f MB/s", l, load, cap)
		}
		for p := range m.Procs {
			if !m.Procs[p].Alive {
				continue
			}
			if load := m.ServerLinkLoad(l, p); load > in.Platform.ServerLinkMBps+eps {
				return fmt.Errorf("mapping: server link %d->%d overload %.3f > %.3f MB/s", l, p, load, in.Platform.ServerLinkMBps)
			}
		}
	}
	return nil
}
