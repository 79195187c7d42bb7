package heuristics

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/mapping"
)

// ObjectGrouping is the paper's object-popularity heuristic: it counts how
// many operators need each basic object ("popularity"), sorts al-operators
// by non-increasing summed popularity of their objects, and packs each new
// most-expensive processor with a seed al-operator, then al-operators
// sharing its objects, then as many other operators as possible.
type ObjectGrouping struct{}

// Name implements Heuristic.
func (ObjectGrouping) Name() string { return "Object-Grouping" }

// Place implements Heuristic.
func (ObjectGrouping) Place(pc *PlaceContext, m *mapping.Mapping, _ *rand.Rand) error {
	in := m.Inst
	pop := pc.popularity(in.Tree, in.NumTypes)

	alOrder := pc.alOperators(in.Tree)
	popSum := func(op int) int {
		s := 0
		var buf [2]int
		for _, k := range in.Tree.LeafObjectsBuf(op, &buf) {
			s += pop[k]
		}
		return s
	}
	slices.SortFunc(alOrder, func(a, b int) int {
		sa, sb := popSum(a), popSum(b)
		if sa != sb {
			return sb - sa
		}
		return a - b
	})
	nonAL := opsByWorkDesc(pc, in)

	// Assignments are monotone across rounds (grouping restores any
	// operator it detaches), so the seed scans below resume where the
	// previous round stopped.
	alStart := 0
	for {
		for alStart < len(alOrder) && m.OpProc(alOrder[alStart]) != mapping.Unassigned {
			alStart++
		}
		if alStart == len(alOrder) {
			break
		}
		seed := alOrder[alStart]
		p := buyMostExpensive(m)
		if err := placeWithGrouping(m, p, seed); err != nil {
			return fmt.Errorf("al-operator %d: %w", seed, err)
		}
		var seedBuf, opBuf [2]int
		seedObjs := in.Tree.LeafObjectsBuf(seed, &seedBuf)
		// Other al-operators requiring the same basic objects, by
		// non-increasing popularity.
		for _, op := range alOrder {
			if m.OpProc(op) != mapping.Unassigned {
				continue
			}
			shares := false
			for _, k := range in.Tree.LeafObjectsBuf(op, &opBuf) {
				for _, sk := range seedObjs {
					if sk == k {
						shares = true
					}
				}
			}
			if shares {
				m.TryPlace(p, op)
			}
		}
		// Then as many non al-operators as possible.
		for _, op := range nonAL {
			if m.OpProc(op) == mapping.Unassigned && !in.Tree.IsAL(op) {
				m.TryPlace(p, op)
			}
		}
	}

	// Any remaining operators (non-al ones that fit nowhere yet): keep
	// buying most-expensive processors and packing by non-increasing w_i.
	start := 0
	for {
		for start < len(nonAL) && m.OpProc(nonAL[start]) != mapping.Unassigned {
			start++
		}
		if start == len(nonAL) {
			return nil
		}
		seed := nonAL[start]
		p := buyMostExpensive(m)
		if err := placeWithGrouping(m, p, seed); err != nil {
			return err
		}
		for _, op := range nonAL[start:] {
			if m.OpProc(op) == mapping.Unassigned {
				m.TryPlace(p, op)
			}
		}
	}
}

// ObjectAvailability is the paper's replication-aware heuristic: object
// types are taken in increasing order of availability av_k (the number of
// servers holding them) and, for each, as many al-operators downloading
// that object as possible are packed onto most-expensive processors; the
// remaining operators are then assigned like Comp-Greedy, by
// non-increasing w_i.
type ObjectAvailability struct{}

// Name implements Heuristic.
func (ObjectAvailability) Name() string { return "Object-Availability" }

// Place implements Heuristic.
func (ObjectAvailability) Place(pc *PlaceContext, m *mapping.Mapping, _ *rand.Rand) error {
	in := m.Inst

	objs := pc.objectSet(in.Tree)
	slices.SortFunc(objs, func(a, b int) int {
		aa, ab := in.Availability(a), in.Availability(b)
		if aa != ab {
			return aa - ab
		}
		return a - b
	})

	needsObj := func(op, k int) bool {
		var buf [2]int
		for _, x := range in.Tree.LeafObjectsBuf(op, &buf) {
			if x == k {
				return true
			}
		}
		return false
	}

	alOps := pc.alOperators(in.Tree)
	pending := pc.pending[:0]
	for _, k := range objs {
		for {
			// Collect still-unassigned al-operators that download k.
			pending = pending[:0]
			for _, op := range alOps {
				if m.OpProc(op) == mapping.Unassigned && needsObj(op, k) {
					pending = append(pending, op)
				}
			}
			if len(pending) == 0 {
				break
			}
			p := buyMostExpensive(m)
			placedAny := false
			for _, op := range pending {
				if m.TryPlace(p, op) {
					placedAny = true
				}
			}
			if !placedAny {
				// The whole batch failed on a fresh processor; fall back
				// to the grouping technique for the first operator.
				if err := placeWithGrouping(m, p, pending[0]); err != nil {
					return fmt.Errorf("al-operator %d (object %d): %w", pending[0], k, err)
				}
			}
		}
	}
	pc.pending = pending // keep any grown capacity for the next solve

	// Remaining internal operators: Comp-Greedy style.
	order := opsByWorkDesc(pc, in)
	start := 0
	for {
		for start < len(order) && m.OpProc(order[start]) != mapping.Unassigned {
			start++
		}
		if start == len(order) {
			return nil
		}
		seed := order[start]
		// First try to pack onto an existing processor (the one with which
		// the operator communicates most, then any other).
		if p := bestExistingProc(m, seed); p >= 0 && m.TryPlace(p, seed) {
			continue
		}
		p := buyMostExpensive(m)
		if err := placeWithGrouping(m, p, seed); err != nil {
			return err
		}
	}
}

// bestExistingProc returns the alive processor hosting the neighbour of op
// with the largest shared traffic, or -1 when no neighbour is assigned.
func bestExistingProc(m *mapping.Mapping, op int) int {
	var nbBuf [3]neighbour
	for _, nb := range neighbours(m.Inst, op, &nbBuf) {
		if p := m.OpProc(nb.op); p != mapping.Unassigned {
			return p
		}
	}
	return -1
}
