// Package heuristics implements the six polynomial operator-placement
// heuristics of Benoit et al. (Section 4) together with the shared server
// selection and downgrade steps.
//
// Every heuristic works in the paper's two (plus one) steps:
//
//  1. operator placement: decide how many processors to acquire and which
//     operators run where; most heuristics buy only the most powerful
//     configuration at this stage,
//  2. server selection: decide from which data server each processor
//     downloads each basic object it needs,
//  3. downgrade: replace each purchased processor with the cheapest
//     configuration that still sustains its compute and NIC load.
//
// Solve runs the full pipeline and independently validates the result, so
// a returned Result is always a feasible mapping. Finish is the same
// pipeline tail (selection, downgrade, validation) for callers that
// place operators themselves, and SolveContext.Portfolio runs several
// heuristics and keeps the cheapest result.
//
// # Reusable solve scratch
//
// Sweep workloads run thousands of solves, so every piece of per-solve
// state has a reusable home and the steady-state pipeline allocates
// nothing:
//
//   - SolveContext is the per-worker root: it owns the server-selection
//     Selector, the placement PlaceContext, the arena Mapping every solve
//     is built in, a recycled Result and reseedable rng streams. A
//     context's Result and mapping are valid until its next Solve; the
//     package-level Solve runs on a pooled context and returns a clone.
//   - PlaceContext caches the placement strategies' sort and traversal
//     scratch — the work-descending operator order, the per-catalog
//     cost-ascending configuration list, the tree edge list and the
//     al-operator/object-set/popularity/bottom-up tables. Heuristic.Place
//     always receives one (never nil); its zero value is ready to use.
//   - Selector runs server selection on flat index-based scratch (dense
//     server residuals, epoch-stamped link residuals, incrementally
//     maintained pending lists); a warmed selector selects with zero
//     allocations.
//
// All orders the heuristics sort by are total (ties break on operator,
// edge or object indices), so the cached-scratch orders are canonical
// and every mapping is a pure function of the instance, heuristic and
// seed.
//
// The placement probes lean on package mapping's incremental load
// tracking: TryPlace decides most checks from per-processor running load
// estimates in O(1) and the rest from per-processor adjacency state in
// O(|ops on p|), never re-walking the whole tree, which is what keeps
// large-N solves out of the historical O(N²) regime. See the mapping
// package documentation for the invariants.
//
// None of SolveContext, PlaceContext or Selector is safe for concurrent
// use. Sweep engines hold one SolveContext per worker goroutine; the
// package-level Solve and SelectServers* helpers borrow warmed instances
// from internal pools.
//
// Capacity admission during selection is governed by the single
// admissionEps constant (zero, deliberately stricter than verification's
// mapping.Eps), so selection can never commit a download that Validate
// rejects at a float boundary.
package heuristics
