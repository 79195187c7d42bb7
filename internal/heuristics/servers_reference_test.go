package heuristics

// This file preserves the pre-refactor map-based server selection as a
// reference implementation. TestThreeLoopMatchesReference proves the
// flat-scratch Selector chooses byte-identical servers on real
// instances; the reference is test-only code and must not grow features.
// (Its admission tests keep the historical 1e-9 tolerance — the boundary
// behavior TestCapacityEpsBoundary shows the Selector fixed.)

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/mapping"
)

type refSelectionState struct {
	m          *mapping.Mapping
	serverLeft []float64
	linkLeft   map[[2]int]float64
	pending    map[[2]int]bool
}

func newRefSelectionState(m *mapping.Mapping) *refSelectionState {
	in := m.Inst
	st := &refSelectionState{
		m:          m,
		serverLeft: make([]float64, len(in.Platform.Servers)),
		linkLeft:   map[[2]int]float64{},
		pending:    map[[2]int]bool{},
	}
	for l := range in.Platform.Servers {
		st.serverLeft[l] = in.Platform.Servers[l].NICMBps
	}
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		for _, k := range neededObjects(m, p) {
			st.pending[[2]int{p, k}] = true
		}
	}
	return st
}

func (st *refSelectionState) linkResidual(l, p int) float64 {
	if v, ok := st.linkLeft[[2]int{l, p}]; ok {
		return v
	}
	return st.m.Inst.Platform.ServerLinkMBps
}

func (st *refSelectionState) assign(p, k, l int) bool {
	rate := st.m.Inst.Rate(k)
	if st.serverLeft[l] < rate-1e-9 || st.linkResidual(l, p) < rate-1e-9 {
		return false
	}
	st.serverLeft[l] -= rate
	st.linkLeft[[2]int{l, p}] = st.linkResidual(l, p) - rate
	st.m.SelectServer(p, k, l)
	delete(st.pending, [2]int{p, k})
	return true
}

func (st *refSelectionState) pendingByObject() (objs []int, procsOf map[int][]int) {
	procsOf = map[int][]int{}
	for pk := range st.pending {
		procsOf[pk[1]] = append(procsOf[pk[1]], pk[0])
	}
	for k := range procsOf {
		sort.Ints(procsOf[k])
		objs = append(objs, k)
	}
	sort.Ints(objs)
	return objs, procsOf
}

func (st *refSelectionState) usableHolders(k int) int {
	rate := st.m.Inst.Rate(k)
	n := 0
	for _, l := range st.m.Inst.Holders[k] {
		if st.serverLeft[l] >= rate-1e-9 {
			n++
		}
	}
	return n
}

func refSelectServersThreeLoop(m *mapping.Mapping) error {
	in := m.Inst
	st := newRefSelectionState(m)

	objs, procsOf := st.pendingByObject()
	for _, k := range objs {
		if in.Availability(k) != 1 {
			continue
		}
		l := in.Holders[k][0]
		for _, p := range procsOf[k] {
			if !st.assign(p, k, l) {
				return fmt.Errorf("object %d only on server %d which lacks capacity: %w", k, l, ErrInfeasible)
			}
		}
	}

	typesOn := make(map[int][]int)
	for k := range in.Holders {
		for _, l := range in.Holders[k] {
			typesOn[l] = append(typesOn[l], k)
		}
	}
	var singleTypeServers []int
	for l, ks := range typesOn {
		if len(ks) == 1 {
			singleTypeServers = append(singleTypeServers, l)
		}
	}
	sort.Ints(singleTypeServers)
	for _, l := range singleTypeServers {
		k := typesOn[l][0]
		_, procsOf := st.pendingByObject()
		for _, p := range procsOf[k] {
			st.assign(p, k, l)
		}
	}

	for len(st.pending) > 0 {
		objs, procsOf := st.pendingByObject()
		sort.Slice(objs, func(a, b int) bool {
			ra := ratio(len(procsOf[objs[a]]), st.usableHolders(objs[a]))
			rb := ratio(len(procsOf[objs[b]]), st.usableHolders(objs[b]))
			if ra != rb {
				return ra > rb
			}
			return objs[a] < objs[b]
		})
		k := objs[0]
		for _, p := range procsOf[k] {
			holders := append([]int(nil), in.Holders[k]...)
			sort.Slice(holders, func(a, b int) bool {
				ca := minf(st.serverLeft[holders[a]], st.linkResidual(holders[a], p))
				cb := minf(st.serverLeft[holders[b]], st.linkResidual(holders[b], p))
				if ca != cb {
					return ca > cb
				}
				return holders[a] < holders[b]
			})
			done := false
			for _, l := range holders {
				if st.assign(p, k, l) {
					done = true
					break
				}
			}
			if !done {
				return fmt.Errorf("no server has capacity for object %d to processor %d: %w", k, p, ErrInfeasible)
			}
		}
	}
	return nil
}

func refSelectServersRandom(m *mapping.Mapping, r *rand.Rand) error {
	st := newRefSelectionState(m)
	var downloads [][2]int
	for pk := range st.pending {
		downloads = append(downloads, pk)
	}
	sort.Slice(downloads, func(a, b int) bool {
		if downloads[a][0] != downloads[b][0] {
			return downloads[a][0] < downloads[b][0]
		}
		return downloads[a][1] < downloads[b][1]
	})
	r.Shuffle(len(downloads), func(i, j int) { downloads[i], downloads[j] = downloads[j], downloads[i] })
	for _, pk := range downloads {
		p, k := pk[0], pk[1]
		holders := append([]int(nil), m.Inst.Holders[k]...)
		r.Shuffle(len(holders), func(i, j int) { holders[i], holders[j] = holders[j], holders[i] })
		done := false
		for _, l := range holders {
			if st.assign(p, k, l) {
				done = true
				break
			}
		}
		if !done {
			return fmt.Errorf("no server has capacity for object %d to processor %d: %w", k, p, ErrInfeasible)
		}
	}
	return nil
}

// neededObjects is the sorted set of object types the operators on p
// download, recounted from the placement: a test-only stand-in for the
// query the mapping package no longer carries.
func neededObjects(m *mapping.Mapping, p int) []int {
	var out []int
	for _, op := range m.AppendOpsOn(nil, p) {
		for _, li := range m.Inst.Tree.Ops[op].Leaves {
			if k := m.Inst.Tree.Leaves[li].Object; !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	slices.Sort(out)
	return out
}
