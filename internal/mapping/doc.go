// Package mapping implements the operator-to-processor allocation model of
// Benoit et al. and the five steady-state feasibility constraints of the
// paper's Section 2.3:
//
//	(1) compute:        sum_{i in a¯(u)} rho*w_i / s_u <= 1
//	(2) processor NIC:  downloads + crossing child traffic + crossing
//	                    parent traffic <= Bp_u
//	(3) server NIC:     sum of downloads served by S_l <= Bs_l
//	(4) server-proc link: downloads on (l,u) <= bs
//	(5) proc-proc link:   crossing traffic between (u,v) <= bp
//
// A Mapping is a mutable construction object for the placement heuristics:
// processors are bought and sold, operators placed and removed, and server
// choices recorded.
//
// # Incremental load tracking
//
// The constructive heuristics ask "is processor p still feasible?" after
// every tentative move, and a naive answer re-walks every operator of the
// tree per query — O(N) per load, O(N·P) per feasibility check, O(N²) per
// solve, which made the N=600 corpus solves entirely compute-bound. A
// Mapping therefore maintains, incrementally on every Place/Unplace (and
// Buy/Sell/Reset/Clone), two pieces of per-processor adjacency state:
//
//   - opsOn[p]: the operators assigned to p, kept sorted ascending, and
//   - objRef[p*NumTypes+k]: how many leaves of those operators reference
//     basic-object type k (the download-dedup refcount).
//
// Each update is O(degree) — a sorted insert or delete plus at most two
// leaf refcount bumps. Every load query (ComputeLoad, DownloadLoad,
// CommLoad, NICLoad, LinkTraffic, NeededObjects) then folds over this
// per-processor state in O(|ops on p|) instead of O(N), and ProcFeasible
// sums p's communication load and checks all (5)-links touching p in one
// pass over opsOn[p] instead of an O(P·N) all-pairs scan.
//
// The queries are deliberately NOT running float accumulators: they
// re-fold the per-processor lists on every call, in exactly the ascending
// operator / ascending object order that a fresh walk of the whole Assign
// vector would use. Floating-point addition is order-dependent and
// add-then-undo does not round-trip, so true O(1) accumulators would
// drift away from a fresh re-summation and could flip feasibility
// decisions at capacity boundaries (the PR 3 capacity-epsilon bug was
// exactly such a construction/verification disagreement). Folding cached
// adjacency in canonical order keeps every query bit-identical to the
// historical O(N) implementation — same solves, same figures, byte for
// byte — while still removing the O(N²).
//
// Validate doubles as the invariant checker for this contract: besides
// re-checking constraints (1)-(5) and the download tables from scratch,
// it re-derives opsOn/objRef and every per-processor load from the
// Assign vector in one ascending pass, O(N + P·K), failing on ANY
// divergence from the incremental state (load agreement is exact —
// stronger than the Eps capacity tolerance — because each processor's
// fresh sum sees its operators in the same ascending order as the cached
// queries).
//
// Assign and DL remain exported for cheap read access (the server
// selector iterates Assign directly); mutate assignments only through
// Place/Unplace/TryPlace/MoveAll, or the adjacency state goes stale and
// Validate will reject the mapping.
//
// A Mapping is not safe for concurrent use: the constraint-checking
// methods share per-Mapping scratch buffers (the placement heuristics
// hammer TryPlace/ProcFeasible, and reallocating dedup sets on every call
// dominated the solve profile), so even read-only methods may race. Batch
// solvers give every goroutine its own Mapping.
package mapping
