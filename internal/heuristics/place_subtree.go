package heuristics

import (
	"fmt"
	"math/rand"

	"repro/internal/mapping"
)

// SubtreeBottomUp is the paper's best-performing heuristic: it first
// acquires one most-expensive processor per al-operator, then walks the
// tree bottom-up, merging each operator with the processor of one of its
// children (preferring the child with the most demanding communication)
// and opportunistically folding whole child processors together, returning
// the processors this empties.
//
// DisableFold keeps the per-operator merges but skips the wholesale
// folding of sibling processors; this mimics the more conservative merging
// the paper's cost curves suggest (ablation A3 of the experiment index in
// docs/ARCHITECTURE.md) at the price of buying roughly one processor per
// al-operator.
type SubtreeBottomUp struct {
	DisableFold bool
}

// Name implements Heuristic.
func (h SubtreeBottomUp) Name() string {
	if h.DisableFold {
		return "Subtree-bottom-up-nofold"
	}
	return "Subtree-bottom-up"
}

// Place implements Heuristic.
func (h SubtreeBottomUp) Place(pc *PlaceContext, m *mapping.Mapping, _ *rand.Rand) error {
	in := m.Inst

	// Step 1: one most-expensive processor per al-operator. When an
	// al-operator is adjacent to an already-placed one and the shared edge
	// exceeds the processor links, the grouping fallback co-locates them.
	for _, op := range pc.alOperators(in.Tree) {
		p := buyMostExpensive(m)
		if err := placeWithGrouping(m, p, op); err != nil {
			return fmt.Errorf("al-operator %d: %w", op, err)
		}
	}

	// Step 2: bottom-up, place each remaining operator with one of its
	// children, merging sibling processors whenever that fits.
	for _, op := range pc.bottomUp(in.Tree) {
		if m.OpProc(op) != mapping.Unassigned {
			// Already placed (al-operator); still try to fold the
			// processors of its operator children into this one.
			if !h.DisableFold {
				mergeChildren(m, op)
			}
			continue
		}
		// Prefer the child with the largest edge traffic. A binary tree
		// has at most two operator children, so a fixed buffer and one
		// conditional swap replace the allocating sort.
		var cbuf [2]int
		children := append(cbuf[:0], in.Tree.Ops[op].ChildOps...)
		if len(children) == 2 {
			ta, tb := in.EdgeTraffic(children[0]), in.EdgeTraffic(children[1])
			if tb > ta || (tb == ta && children[1] < children[0]) {
				children[0], children[1] = children[1], children[0]
			}
		}
		placed := false
		for _, c := range children {
			p := m.OpProc(c)
			if p == mapping.Unassigned {
				continue
			}
			if m.TryPlace(p, op) {
				placed = true
				break
			}
			if h.DisableFold {
				continue
			}
			// The blocking constraint is usually the edge to the other
			// child's processor; fold that processor in first and retry.
			for _, other := range children {
				if q := m.OpProc(other); other != c && q != mapping.Unassigned && q != p {
					m.MoveAll(q, p)
				}
			}
			if m.TryPlace(p, op) {
				placed = true
				break
			}
		}
		if !placed {
			p := buyMostExpensive(m)
			if !m.TryPlace(p, op) {
				m.Sell(p)
				return fmt.Errorf("operator %d fits no processor: %w", op, ErrInfeasible)
			}
		}
		if !h.DisableFold {
			mergeChildren(m, op)
		}
	}
	return nil
}

// mergeChildren tries to fold the processors hosting op's operator
// children into op's processor (selling the emptied ones). Children hosted
// on op's own processor are already merged.
func mergeChildren(m *mapping.Mapping, op int) {
	p := m.OpProc(op)
	for _, c := range m.Inst.Tree.Ops[op].ChildOps {
		if q := m.OpProc(c); q != mapping.Unassigned && q != p {
			m.MoveAll(q, p)
		}
	}
}
