package heuristics

import (
	"fmt"
	"math/rand"

	"repro/internal/mapping"
)

// Random is the paper's baseline heuristic: it repeatedly picks a random
// unassigned operator and acquires the cheapest processor able to handle
// it; when no single processor can, the operator is grouped with the
// neighbour sharing its most demanding communication requirement
// (detaching that neighbour from any processor it was already on, selling
// the processor if emptied).
type Random struct{}

// Name implements Heuristic.
func (Random) Name() string { return "Random" }

// Place implements Heuristic.
func (Random) Place(pc *PlaceContext, m *mapping.Mapping, r *rand.Rand) error {
	in := m.Inst
	configs := configsByCost(pc, in.Platform.Catalog)

	rest := pc.pending[:0] // reused across rounds; refilled before each draw
	unassigned := func() []int {
		rest = rest[:0]
		for op := range in.Tree.Ops {
			if m.OpProc(op) == mapping.Unassigned {
				rest = append(rest, op)
			}
		}
		pc.pending = rest // keep grown capacity for the next solve
		return rest
	}

	buyCheapestFor := func(ops ...int) bool {
		return buyCheapestHosting(m, configs, ops...)
	}

	for {
		pending := unassigned()
		if len(pending) == 0 {
			return nil
		}
		op := pending[r.Intn(len(pending))]
		if buyCheapestFor(op) {
			continue
		}
		// Group with the most communication-demanding neighbour.
		var nbBuf [3]neighbour
		nbs := neighbours(in, op, &nbBuf)
		if len(nbs) == 0 {
			return fmt.Errorf("operator %d fits no processor: %w", op, ErrInfeasible)
		}
		nb := nbs[0]
		was := m.OpProc(nb.op)
		detachOp(m, nb.op)
		if buyCheapestFor(op, nb.op) {
			continue
		}
		if was != mapping.Unassigned {
			if !m.Procs[was].Alive {
				was = m.Buy(m.Procs[was].Config)
			}
			m.Place(nb.op, was)
		}
		return fmt.Errorf("operators %d+%d fit no processor together: %w", op, nb.op, ErrInfeasible)
	}
}
