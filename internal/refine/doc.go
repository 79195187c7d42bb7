// Package refine implements a local-search refinement layer on top of
// the constructive heuristics: simulated annealing plus a
// large-neighborhood (destroy/repair) search over operator moves,
// processor buys/sells and configuration swaps, seeded from the best
// constructive placement. Each proposal is evaluated read-only first
// (mapping.EvalMove): the running load estimates decide its
// feasibility, each touched processor's refit configuration and its
// cost, bit for bit as applying it would, so a proven infeasible or
// rejected move costs no mutation at all and only a kept move is
// applied. Where the estimates leave the verdict or a configuration
// open, the move is applied through the mapping move journal
// (mapping.Checkpoint/Rollback) and priced by the exact walks, so a
// rejected move costs one O(#records) rollback instead of a clone.
//
// The paper's six heuristics are one-shot constructions; PR 5 made
// Place/Unplace/TryPlace O(degree) with instant feasibility reads, which
// turns candidate-move evaluation into a commodity. This package spends
// that budget: Refine never returns a mapping worse than the best
// constructive seed (it falls back to the seed when no improving,
// selection-feasible state is found) and stops early when the seed
// already matches the analytic cost lower bound.
//
// The layer is exposed three ways: the Refine entry point mirrors
// heuristics.Solve; the Refined heuristic (registered with
// heuristics.Register under the name "Refined") makes it sweepable by
// name through the experiment Grid and CLIs next to the paper's six; and
// the root streamalloc package re-exports Refine/RefineOptions.
// Refinement is deterministic: all randomness flows from the solve
// pipeline's per-(seed, heuristic) stream, so results are byte-identical
// at any sweep worker count.
package refine
