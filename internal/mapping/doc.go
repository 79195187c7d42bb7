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
// # Running load estimates
//
// A probe still needs a verdict for every affected processor, and the
// exact walk behind it (procFeasible) re-folds each processor's
// operators, crossing edges and K object refcounts. Most probes are
// nowhere near a capacity, so TryPlace first asks a running estimate.
// Each processor carries loadEst{comp, dl, comm, err}: attach and
// detach update it in O(degree) (compute ± rho·w, download ± rate_k when
// a refcount crosses zero, comm ± traffic on both endpoints of every
// edge that starts or stops crossing), and every update adds 2⁻⁵² times
// the magnitude of its result to err, a rigorous bound on the
// estimate's drift from the exact real sum. The canonical ordered sum
// differs from that exact sum by at most γ·(|est|+err), with
// γ = (3·|opsOn|+K+4)·2⁻⁵², so a constraint is decided when its
// estimate is farther than err + γ·(|est|+err) from capacity+Eps; every
// other check falls back to procFeasible, which also resyncs the
// estimate from the canonical sums it computes. Each link's traffic is a
// subset of the processor's crossing edges, so comm fitting the link
// capacity proves every link fits. The verdict is therefore always the
// exact walk's: the estimates change no decision, only how it is
// reached. On the cells of the paper's cost figures the estimate decides
// about 95 % of checks; the rest fall back, all of them on the link test.
//
// EvalMove puts a whole move to the same estimates without changing
// the mapping: it replays the move's attach and detach updates (the
// same estMove arithmetic and refcount crossings) on shadow copies of
// the estimates and the assignment, and judges every processor
// TryPlace would check by its shadow estimate. A split raises its
// source's NIC load (edges to the operators left behind start
// crossing), and most failing splits fail there. For a feasible move it
// also decides the configuration Refit would give each touched
// processor, when CheapestFitting agrees at the low and high corners of
// the estimate's bounds, and sums Cost in its own order, so the
// refinement layer prices a move bit for bit before applying it. Every
// answer the estimates leave open is Undecided, and the caller falls
// back to the exact path.
//
// Buy, Reset, CopyFrom and the journal's undo records maintain the
// estimates through the same paths. Clone does not copy them (a clone
// allocates nothing more), and a Buy past the estimates' capacity drops
// them; the next TryPlace rebuilds them from the assignment. A negative
// or NaN term, which Instance.Validate excludes, voids the estimate of
// its processor, whose checks then always fall back. CheckInvariants
// also requires every live estimate to lie within its bound of the
// fresh sums, so the invariant and fuzz tests cover the estimates too.
//
// Precondition: the Instance a Mapping is bound to does not change
// under it (its tree, rho, work, sizes and frequencies; capacities may).
// Rebind a changed instance through Reset, as the churn engine does per
// event, or hand it to a fresh Clone before the clone's first probe.
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
