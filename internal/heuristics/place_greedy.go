package heuristics

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/xslice"
)

// CompGreedy is the paper's computation-greedy heuristic: operators are
// taken in non-increasing order of w_i; each outer round acquires the most
// expensive processor, seeds it with the most computationally demanding
// unassigned operator (grouping with a neighbour when it does not fit
// alone), then packs as many further operators as possible, again by
// non-increasing w_i.
type CompGreedy struct{}

// Name implements Heuristic.
func (CompGreedy) Name() string { return "Comp-Greedy" }

// Place implements Heuristic.
func (CompGreedy) Place(pc *PlaceContext, m *mapping.Mapping, _ *rand.Rand) error {
	in := m.Inst
	order := opsByWorkDesc(pc, in)
	// Operators only ever gain assignments inside this loop (grouping
	// restores any operator it detaches), so the seed scan can resume
	// where the last round stopped instead of rescanning the prefix.
	start := 0
	for {
		for start < len(order) && m.OpProc(order[start]) != mapping.Unassigned {
			start++
		}
		if start == len(order) {
			return nil
		}
		seed := order[start]
		p := buyMostExpensive(m)
		if err := placeWithGrouping(m, p, seed); err != nil {
			return err
		}
		for _, op := range order[start:] {
			if m.OpProc(op) == mapping.Unassigned {
				m.TryPlace(p, op) // best effort: skip operators that do not fit
			}
		}
	}
}

// opsByWorkDesc returns all operator indices by non-increasing w_i
// (ties: smaller index first) — a total order, so the sorted result is
// canonical. The order lives in the PlaceContext buffer.
func opsByWorkDesc(pc *PlaceContext, in *instance.Instance) []int {
	pc.order = xslice.Grow(pc.order, in.Tree.NumOps())
	order := pc.order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		wa, wb := in.W[a], in.W[b]
		switch {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return a - b
	})
	return order
}

// CommGreedy is the paper's communication-greedy heuristic: tree edges are
// taken in non-increasing order of steady-state traffic and the two
// endpoint operators are grouped on one processor whenever possible,
// saving the costly inter-processor communication.
type CommGreedy struct{}

// Name implements Heuristic.
func (CommGreedy) Name() string { return "Comm-Greedy" }

// Place implements Heuristic.
func (CommGreedy) Place(pc *PlaceContext, m *mapping.Mapping, _ *rand.Rand) error {
	in := m.Inst
	configs := configsByCost(pc, in.Platform.Catalog)

	buyCheapestFor := func(ops ...int) bool {
		return buyCheapestHosting(m, configs, ops...)
	}
	buyBestFor := func(op int) error {
		p := buyMostExpensive(m)
		return placeWithGrouping(m, p, op)
	}

	edges := pc.treeEdges(in.Tree)
	slices.SortFunc(edges, func(a, b apptree.Edge) int {
		ta, tb := in.EdgeTraffic(a.Child), in.EdgeTraffic(b.Child)
		switch {
		case ta > tb:
			return -1
		case ta < tb:
			return 1
		}
		if a.Child != b.Child {
			return a.Child - b.Child
		}
		return a.Parent - b.Parent
	})

	for _, e := range edges {
		pu, pv := m.OpProc(e.Parent), m.OpProc(e.Child)
		switch {
		case pu == mapping.Unassigned && pv == mapping.Unassigned:
			// (i) both unassigned: cheapest processor hosting both, else
			// the most expensive processor for each.
			if buyCheapestFor(e.Parent, e.Child) {
				continue
			}
			if err := buyBestFor(e.Parent); err != nil {
				return err
			}
			if err := buyBestFor(e.Child); err != nil {
				return err
			}
		case pu == mapping.Unassigned || pv == mapping.Unassigned:
			// (ii) one assigned: try to accommodate the other on the same
			// processor, else most expensive processor for it.
			assignedProc, other := pu, e.Child
			if pu == mapping.Unassigned {
				assignedProc, other = pv, e.Parent
			}
			if m.TryPlace(assignedProc, other) {
				continue
			}
			if err := buyBestFor(other); err != nil {
				return err
			}
		case pu != pv:
			// (iii) both assigned on different processors: try to merge
			// one processor's operators onto the other and sell it; keep
			// the current assignment when neither direction works.
			if !m.MoveAll(pv, pu) {
				m.MoveAll(pu, pv)
			}
		}
	}
	// A single-operator tree has no edges; place the lone operator.
	for op := range in.Tree.Ops {
		if m.OpProc(op) == mapping.Unassigned {
			if !buyCheapestFor(op) {
				return fmt.Errorf("operator %d fits no processor: %w", op, ErrInfeasible)
			}
		}
	}
	return nil
}
