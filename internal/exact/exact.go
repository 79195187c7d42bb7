// Package exact computes optimal mappings for small instances on
// homogeneous platforms (the paper's CONSTR-HOM scenario) by
// branch-and-bound over operator-to-processor assignments.
//
// This plays the role of the paper's CPLEX runs: the paper, too, could
// only obtain optimal solutions "in a homogeneous setting" for trees of
// about 20 operators. With a single processor configuration the objective
// reduces to minimizing the number of purchased processors.
package exact

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
)

// ErrHeterogeneous is returned for non-CONSTR-HOM catalogs.
var ErrHeterogeneous = errors.New("exact: catalog is not homogeneous (CONSTR-HOM required)")

// ErrBudget is returned when the node budget is exhausted before the
// search space is covered; the best solution found so far (if any) is
// still returned alongside it.
var ErrBudget = errors.New("exact: node budget exhausted")

// Limits bounds the search.
type Limits struct {
	MaxNodes int // explored search nodes; 0 means DefaultMaxNodes
}

// DefaultMaxNodes caps the branch-and-bound search.
const DefaultMaxNodes = 2_000_000

// Result is an optimal (or best-found, when ErrBudget) solution.
type Result struct {
	Procs   int
	Cost    float64
	Mapping *mapping.Mapping
	Nodes   int  // search nodes explored
	Proven  bool // true when the search completed and the result is optimal
}

// Solve finds a minimum-processor mapping for an instance on a homogeneous
// catalog. Operators are assigned in bottom-up order; branching tries the
// existing processors first, then at most one fresh processor (symmetry
// breaking). A complete assignment must additionally pass the three-loop
// server selection to count.
func Solve(in *instance.Instance, lim Limits) (*Result, error) {
	if !in.Platform.Catalog.Homogeneous() {
		return nil, ErrHeterogeneous
	}
	if err := heuristics.Precheck(in); err != nil {
		return nil, err
	}
	maxNodes := lim.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	cfg := platform.Config{}
	cat := in.Platform.Catalog
	speed := cat.SpeedUnits(cfg)

	order := in.Tree.BottomUp()
	m := mapping.New(in)
	// The DFS backtracks through the move journal: every branch checkpoints,
	// recurses and rolls back, so the journal never holds more than the
	// records along the current root-to-node path and a complete leaf is
	// undone — server selection included — without cloning. The mapping is
	// cloned only when a leaf strictly improves the incumbent.
	m.SetJournal(true)

	// Seed the incumbent with a heuristic solution to prune early.
	bestProcs := math.MaxInt
	var bestMapping *mapping.Mapping
	if res, err := heuristics.Solve(in, heuristics.SubtreeBottomUp{}, heuristics.Options{}); err == nil {
		bestProcs = res.Procs
		bestMapping = res.Mapping
	}

	// Suffix work sums for the compute-based pruning bound.
	suffixWork := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		suffixWork[i] = suffixWork[i+1] + in.Rho*in.W[order[i]]
	}

	nodes := 0
	budgetHit := false
	var dfs func(idx int)
	dfs = func(idx int) {
		if budgetHit {
			return
		}
		nodes++
		if nodes > maxNodes {
			budgetHit = true
			return
		}
		// Rollback pops rejected purchases, so every processor is alive and
		// the processor count is the purchase count.
		used := len(m.Procs)
		if used >= bestProcs {
			return
		}
		if idx == len(order) {
			mark := m.Checkpoint()
			if heuristics.Finish(m) == nil {
				bestProcs = used
				bestMapping = m.Clone() // strict improvement: snapshot
			}
			m.Rollback(mark) // undo the server selection; placement stays
			return
		}
		// Compute-slack bound: the remaining work cannot fit in fewer than
		// lbExtra additional processors.
		slack := 0.0
		for p := 0; p < used; p++ {
			slack += speed - m.ComputeLoad(p)
		}
		if rem := suffixWork[idx] - slack; rem > 0 {
			extra := int(math.Ceil(rem/speed - 1e-9))
			if used+extra >= bestProcs {
				return
			}
		}
		op := order[idx]
		for p := 0; p < used; p++ {
			mark := m.Checkpoint()
			if m.TryPlace(p, op) {
				dfs(idx + 1)
			}
			m.Rollback(mark)
			if budgetHit {
				return
			}
		}
		if used+1 < bestProcs {
			mark := m.Checkpoint()
			if m.TryPlace(m.Buy(cfg), op) {
				dfs(idx + 1)
			}
			m.Rollback(mark) // un-buys the fresh processor again
		}
	}
	dfs(0)

	if bestMapping == nil {
		if budgetHit {
			return nil, fmt.Errorf("no solution within budget: %w", ErrBudget)
		}
		return nil, fmt.Errorf("exact: %w", heuristics.ErrInfeasible)
	}
	res := &Result{
		Procs:   bestMapping.NumAlive(),
		Cost:    bestMapping.Cost(),
		Mapping: bestMapping,
		Nodes:   nodes,
		Proven:  !budgetHit,
	}
	if budgetHit {
		return res, ErrBudget
	}
	return res, nil
}
