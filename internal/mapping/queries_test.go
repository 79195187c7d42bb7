package mapping

import "repro/internal/apptree"

// Test-only copies of two load queries the package no longer carries:
// no non-test code asks for them, but tests use them as oracles.

// NeededObjects returns the de-duplicated sorted object types the
// operators on p must download (union of Leaf(i) over i in a¯(p)).
func (m *Mapping) NeededObjects(p int) []int {
	var out []int
	base := p * m.Inst.NumTypes
	for k := 0; k < m.Inst.NumTypes; k++ {
		if m.objRef[base+k] > 0 {
			out = append(out, k)
		}
	}
	return out
}

// LinkTraffic returns the traffic on the bidirectional link between
// processors p and q: the sum of rho*delta over tree edges with one
// endpoint on each; constraint (5) bounds it by bp.
func (m *Mapping) LinkTraffic(p, q int) float64 {
	if p == q {
		return 0
	}
	load := 0.0
	tree := m.Inst.Tree
	for _, op := range m.opsOn[p] {
		for _, c := range tree.Ops[op].ChildOps {
			if m.Assign[c] == q {
				load += m.Inst.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent && m.Assign[par] == q {
			load += m.Inst.EdgeTraffic(op)
		}
	}
	return load
}
