package heuristics

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/rng"
)

// ErrInfeasible is wrapped by all placement/selection failures, so callers
// can distinguish "no mapping found" from programming errors.
var ErrInfeasible = errors.New("no feasible mapping found")

// Heuristic is an operator-placement strategy.
type Heuristic interface {
	// Name returns the paper's name for the heuristic.
	Name() string
	// Place assigns every operator of m.Inst to purchased processors on
	// m — handed in empty (mapping.New or an arena Reset) — or fails
	// with an error wrapping ErrInfeasible. Taking the mapping rather
	// than building one lets the solve pipeline thread a caller-owned
	// arena through repeated solves; pc carries the reusable sort and
	// traversal scratch and is never nil (a zero PlaceContext is ready
	// to use).
	Place(pc *PlaceContext, m *mapping.Mapping, r *rand.Rand) error
}

// PlaceContext owns the sort and traversal scratch of the placement
// strategies: the work-descending operator order, the cost-ascending
// configuration list (cached per catalog), the tree edge list, the
// al-operator / object-set / popularity tables and the bottom-up
// traversal buffers. A SolveContext threads one through repeated Solve
// calls so steady-state placement allocates nothing. The zero value is
// ready to use; a PlaceContext is not safe for concurrent use.
type PlaceContext struct {
	order     []int          // opsByWorkDesc result
	alOps     []int          // ALOperatorsInto buffer
	objs      []int          // ObjectSetInto buffer
	pop       []int          // PopularityInto buffer
	pending   []int          // per-object pending al-operator gather
	bu, stack []int          // BottomUpInto traversal buffers
	edges     []apptree.Edge // tree edge list
	cat       *platform.Catalog
	configs   []platform.Config // configsByCost(cat), cached while cat is unchanged
}

// alOperators returns the tree's al-operators through the context buffer.
func (pc *PlaceContext) alOperators(t *apptree.Tree) []int {
	pc.alOps = t.ALOperatorsInto(pc.alOps)
	return pc.alOps
}

// objectSet returns the tree's object set through the context buffer.
func (pc *PlaceContext) objectSet(t *apptree.Tree) []int {
	pc.objs = t.ObjectSetInto(pc.objs)
	return pc.objs
}

// popularity returns the per-object popularity counts through the
// context buffer.
func (pc *PlaceContext) popularity(t *apptree.Tree, numTypes int) []int {
	pc.pop = t.PopularityInto(numTypes, pc.pop)
	return pc.pop
}

// bottomUp returns the tree's bottom-up operator order through the
// context buffers.
func (pc *PlaceContext) bottomUp(t *apptree.Tree) []int {
	pc.bu, pc.stack = t.BottomUpInto(pc.bu, pc.stack)
	return pc.bu
}

// treeEdges returns the tree's sorted edge list through the context
// buffer.
func (pc *PlaceContext) treeEdges(t *apptree.Tree) []apptree.Edge {
	pc.edges = t.EdgesInto(pc.edges)
	return pc.edges
}

// All returns the six paper heuristics in the order of the paper's plots.
func All() []Heuristic {
	return []Heuristic{
		Random{},
		CompGreedy{},
		CommGreedy{},
		SubtreeBottomUp{},
		ObjectGrouping{},
		ObjectAvailability{},
	}
}

// registered holds heuristics contributed by other packages through
// Register; ByName consults it after the built-ins. Writes happen in
// package init functions (refine's "Refined", exact's "Exact"), reads
// from any goroutine afterwards, so no lock is needed.
var registered = map[string]Heuristic{}

// Register makes an externally-implemented Heuristic addressable through
// ByName, so name-keyed surfaces (the sweep Grid, CLIs) can run it
// alongside the paper's six. Meant to be called from package init (the
// refinement layer and the exact solver register themselves); a name that
// collides with a built-in or an earlier registration panics.
func Register(h Heuristic) {
	name := h.Name()
	if _, err := byBuiltinName(name); err == nil {
		panic(fmt.Sprintf("heuristics: Register(%q) collides with a built-in", name))
	}
	if _, dup := registered[name]; dup {
		panic(fmt.Sprintf("heuristics: Register(%q) called twice", name))
	}
	registered[name] = h
}

// ByName returns the heuristic with the given Name. Besides the six
// paper heuristics it recognizes the repository's A3 ablation variant
// "Subtree-bottom-up-nofold" and anything contributed via Register
// ("Refined", "Exact"), so name-keyed surfaces (the public sweep Grid,
// CLIs) can address every heuristic the experiment harness plots.
func ByName(name string) (Heuristic, error) {
	if h, err := byBuiltinName(name); err == nil {
		return h, nil
	}
	if h, ok := registered[name]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("heuristics: unknown heuristic %q", name)
}

func byBuiltinName(name string) (Heuristic, error) {
	for _, h := range All() {
		if h.Name() == name {
			return h, nil
		}
	}
	if nofold := (SubtreeBottomUp{DisableFold: true}); name == nofold.Name() {
		return nofold, nil
	}
	return nil, fmt.Errorf("heuristics: unknown heuristic %q", name)
}

// ServerSelectionMode selects the second pipeline step.
type ServerSelectionMode int

const (
	// SelectThreeLoop is the paper's sophisticated three-loop selection.
	SelectThreeLoop ServerSelectionMode = iota
	// SelectRandom associates a random capacity-respecting server with
	// each download (used by the Random heuristic and the A2 ablation).
	SelectRandom
)

// Options tunes the Solve pipeline.
type Options struct {
	Selection     ServerSelectionMode
	SkipDowngrade bool  // A1 ablation: keep the most expensive configurations
	Seed          int64 // randomness for Random placement / random selection
}

// Result is a validated solution.
type Result struct {
	Heuristic string
	Mapping   *mapping.Mapping
	Cost      float64
	Procs     int // number of purchased processors
}

// SolveContext owns the reusable scratch threaded through repeated Solve
// calls: the server-selection Selector, the placement-strategy
// PlaceContext, the arena Mapping every solve is built in, a recycled
// Result and reseedable random streams. The zero value is ready to use.
// A SolveContext is not safe for concurrent use: sweep engines hold one
// per worker.
type SolveContext struct {
	sel   Selector
	place PlaceContext

	// Repeated solves rebuild the arena mapping in place instead of
	// allocating a fresh one per call.
	arena        mapping.Mapping
	res          Result
	prand, srand *rand.Rand // placement / selection streams, reseeded per solve

	// Portfolio's winner, copied off the arena before a later heuristic
	// overwrites it.
	best    mapping.Mapping
	bestRes Result
}

// NewSolveContext returns an empty reusable solve context.
func NewSolveContext() *SolveContext { return &SolveContext{} }

// SetReuse does nothing: every solve runs on the context's arena.
//
// Deprecated: the arena is the only solve path; drop the call.
func (c *SolveContext) SetReuse(bool) {}

// solveCtxPool backs the package-level Solve so one-shot callers reuse
// scratch across calls too (the same trick stream.Simulate plays with
// its pooled runners): building the solution in the arena and cloning it
// on the way out is ~2x fewer allocations than constructing the
// incremental adjacency on a fresh Mapping placement by placement (Clone
// copies the finished opsOn/objRef state into right-sized one-shot
// slices).
var solveCtxPool = sync.Pool{New: func() any { return NewSolveContext() }}

// Solve runs placement, server selection and downgrade for one heuristic
// and validates the outcome, borrowing a pooled SolveContext. The solve
// runs on the pooled context's arena and the returned Result holds an
// independent clone of the mapping, so it is caller-owned with no
// lifetime caveats.
func Solve(in *instance.Instance, h Heuristic, opts Options) (*Result, error) {
	c := solveCtxPool.Get().(*SolveContext)
	out, err := c.solveCloned(in, h, opts)
	solveCtxPool.Put(c)
	return out, err
}

// solveCloned is the package-level Solve on an explicit context: solve
// on its arena, then clone the winning mapping out.
func (c *SolveContext) solveCloned(in *instance.Instance, h Heuristic, opts Options) (*Result, error) {
	res, err := c.Solve(in, h, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Heuristic: res.Heuristic,
		Mapping:   res.Mapping.Clone(),
		Cost:      res.Cost,
		Procs:     res.Procs,
	}, nil
}

// Solve runs the full pipeline on the context's reusable scratch. The
// mapping is built in the context's arena and the returned Result is
// context-owned: both are valid only until the next Solve or Portfolio
// on this context, so callers that keep a mapping must Clone it.
func (c *SolveContext) Solve(in *instance.Instance, h Heuristic, opts Options) (*Result, error) {
	if err := precheckCtx(in, &c.place); err != nil {
		return nil, err
	}
	m := &c.arena
	m.Reset(in)
	m.SetJournal(false)
	if c.prand == nil {
		c.prand, c.srand = rng.New(0), rng.New(0)
	}
	rng.Reseed2(c.prand, opts.Seed, "heuristic:", h.Name())
	if err := h.Place(&c.place, m, c.prand); err != nil {
		return nil, fmt.Errorf("%s placement: %w", h.Name(), err)
	}
	if !m.Complete() {
		return nil, fmt.Errorf("%s placement left operators unassigned: %w", h.Name(), ErrInfeasible)
	}
	m.SellEmpty()

	var sr *rand.Rand // nil selects three-loop
	if _, isRandom := h.(Random); isRandom || opts.Selection == SelectRandom {
		// The paper pairs the Random placement with random selection.
		sr = c.srand
		rng.Reseed2(sr, opts.Seed, "selection:", h.Name())
	}
	if format, err := c.sel.finish(m, sr, opts.SkipDowngrade); err != nil {
		return nil, fmt.Errorf(format, h.Name(), err)
	}
	c.res = Result{
		Heuristic: h.Name(),
		Mapping:   m,
		Cost:      m.Cost(),
		Procs:     m.NumAlive(),
	}
	return &c.res, nil
}

// finish is the pipeline tail: server selection on st (random under r,
// three-loop when r is nil), Downgrade on heterogeneous catalogs unless
// skipDowngrade, then Validate. A failing stage returns its error with
// the format Solve reports it in (a validation error is not wrapped).
func (st *Selector) finish(m *mapping.Mapping, r *rand.Rand, skipDowngrade bool) (string, error) {
	var err error
	if r != nil {
		err = st.Random(m, r)
	} else {
		err = st.ThreeLoop(m)
	}
	st.release()
	if err != nil {
		return "%s server selection: %w", err
	}
	if !skipDowngrade && !m.Inst.Platform.Catalog.Homogeneous() {
		if err := Downgrade(m); err != nil {
			return "%s downgrade: %w", err
		}
	}
	if err := m.Validate(); err != nil {
		return "%s produced an invalid mapping: %v", err
	}
	return "", nil
}

// Finish runs the pipeline tail Solve runs after Place — three-loop
// server selection on a pooled Selector, Downgrade on heterogeneous
// catalogs, Validate — on a complete placement. The failing stage's
// error comes back unwrapped, so callers probing many placements (exact's
// leaves, churn repair) pay no allocation for a failure.
func Finish(m *mapping.Mapping) error {
	st := selectorPool.Get().(*Selector)
	_, err := st.finish(m, nil, false)
	selectorPool.Put(st)
	return err
}

// paperOrder is All's list, shared read-only so Portfolio allocates none.
var paperOrder = All()

// Portfolio runs hs (nil: the six paper heuristics of All) through Solve
// in order and returns the winner: the first result strictly cheaper
// than bar and than every earlier one, so ties go to the earlier
// heuristic. visit, when non-nil, sees every outcome; its Result is valid
// only during the call. ctx is checked before each heuristic; a
// cancellation returns nil and the context error, and nil with a nil
// error means nothing beat bar. The winner is context-owned until the
// next Solve or Portfolio: one a later heuristic would overwrite is first
// copied onto the context's second arena, so a winner from the last
// heuristic costs no copy.
func (c *SolveContext) Portfolio(ctx context.Context, in *instance.Instance, hs []Heuristic,
	opts Options, bar float64, visit func(h Heuristic, res *Result, err error)) (*Result, error) {
	if hs == nil {
		hs = paperOrder
	}
	var best *Result
	for i, h := range hs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := c.Solve(in, h, opts)
		if visit != nil {
			visit(h, res, err)
		}
		if err != nil || !(res.Cost < bar) {
			continue
		}
		bar, best = res.Cost, res
		if i < len(hs)-1 {
			c.best.CopyFrom(res.Mapping)
			c.bestRes = *res
			c.bestRes.Mapping = &c.best
			best = &c.bestRes
		}
	}
	return best, nil
}

// Precheck fails fast on instances no allocation can satisfy: an operator
// whose work exceeds the fastest processor, a needed object whose download
// rate exceeds the server links or every holder's NIC, or a download load
// that cannot fit the widest processor NIC.
func Precheck(in *instance.Instance) error {
	// One exactly-sized object-set buffer; the context stays on the stack.
	pc := PlaceContext{objs: make([]int, 0, len(in.Tree.Leaves))}
	return precheckCtx(in, &pc)
}

// precheckCtx is Precheck through a PlaceContext's reusable object-set
// buffer. The object set is gathered only after the per-operator work
// check passes, so the instant-reject path of oversized corpus cells
// stays O(N) with no sort.
func precheckCtx(in *instance.Instance, pc *PlaceContext) error {
	cat := in.Platform.Catalog
	best := cat.MostExpensive()
	maxSpeed := cat.SpeedUnits(best)
	maxNIC := cat.BandwidthMBps(best)
	for i, w := range in.W {
		if in.Rho*w > maxSpeed {
			return fmt.Errorf("operator %d needs %.0f units/s > fastest processor %.0f: %w",
				i, in.Rho*w, maxSpeed, ErrInfeasible)
		}
	}
	for _, k := range pc.objectSet(in.Tree) {
		rate := in.Rate(k)
		if rate > in.Platform.ServerLinkMBps {
			return fmt.Errorf("object %d rate %.1f MB/s exceeds server links %.1f: %w",
				k, rate, in.Platform.ServerLinkMBps, ErrInfeasible)
		}
		if rate > maxNIC {
			return fmt.Errorf("object %d rate %.1f MB/s exceeds widest NIC %.1f: %w",
				k, rate, maxNIC, ErrInfeasible)
		}
		ok := false
		for _, l := range in.Holders[k] {
			if in.Platform.Servers[l].NICMBps >= rate {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("object %d rate %.1f MB/s exceeds every holder NIC: %w", k, rate, ErrInfeasible)
		}
	}
	return nil
}

// configsByCost returns every purchasable configuration sorted by
// non-decreasing cost (ties: slower CPU first, then narrower NIC). The
// order is a pure function of the catalog, so a PlaceContext caches it
// and repeated solves on one catalog (every sweep) skip the rebuild.
func configsByCost(pc *PlaceContext, cat *platform.Catalog) []platform.Config {
	if pc.cat == cat && pc.configs != nil {
		return pc.configs
	}
	out := slices.Grow(pc.configs[:0], len(cat.CPUs)*len(cat.NICs))
	for ci := range cat.CPUs {
		for ni := range cat.NICs {
			out = append(out, platform.Config{CPU: ci, NIC: ni})
		}
	}
	slices.SortFunc(out, func(a, b platform.Config) int {
		ca, cb := cat.Cost(a), cat.Cost(b)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		if a.CPU != b.CPU {
			return a.CPU - b.CPU
		}
		return a.NIC - b.NIC
	})
	pc.cat, pc.configs = cat, out
	return out
}

// neighbours lists the tree neighbours of op (operator children and
// parent) with the steady-state traffic on the shared edge, sorted by
// non-increasing traffic (ties: smaller operator index first). A binary
// tree bounds the neighbour count at 3, so callers pass a fixed-size
// buffer and no allocation or sort.Slice machinery is needed.
type neighbour struct {
	op      int
	traffic float64
}

func neighbours(in *instance.Instance, op int, buf *[3]neighbour) []neighbour {
	n := 0
	insert := func(nb neighbour) {
		i := n
		for i > 0 && (buf[i-1].traffic < nb.traffic ||
			(buf[i-1].traffic == nb.traffic && buf[i-1].op > nb.op)) {
			buf[i] = buf[i-1]
			i--
		}
		buf[i] = nb
		n++
	}
	for _, c := range in.Tree.Ops[op].ChildOps {
		insert(neighbour{op: c, traffic: in.EdgeTraffic(c)})
	}
	if par := in.Tree.Ops[op].Parent; par != apptree.NoParent {
		insert(neighbour{op: par, traffic: in.EdgeTraffic(op)})
	}
	return buf[:n]
}

// detachOp removes op from its processor (if any), selling the processor
// when it becomes empty, and returns whether it was assigned.
func detachOp(m *mapping.Mapping, op int) bool {
	p := m.OpProc(op)
	if p == mapping.Unassigned {
		return false
	}
	m.Unplace(op)
	if m.NumOpsOn(p) == 0 {
		m.Sell(p)
	}
	return true
}

// buyMostExpensive buys the catalog's most powerful configuration.
func buyMostExpensive(m *mapping.Mapping) int {
	return m.Buy(m.Inst.Platform.Catalog.MostExpensive())
}

// buyCheapestHosting buys the cheapest configuration that can "handle" the
// operator group in the paper's sense — its CPU sustains the group's work
// and its NIC the group's worst-case (StaticNICReq) bandwidth, so later
// placements of the group's neighbours can never overload the purchase —
// and places the group on it. configs must be sorted by cost. Returns
// false when no configuration works.
func buyCheapestHosting(m *mapping.Mapping, configs []platform.Config, ops ...int) bool {
	cat := m.Inst.Platform.Catalog
	work := 0.0
	for _, op := range ops {
		work += m.Inst.Rho * m.Inst.W[op]
	}
	// Cap the worst-case requirement at the widest purchasable NIC:
	// beyond it the group's neighbours will have to be co-located anyway
	// (TryPlace and the final validation still enforce the real loads),
	// and refusing every configuration would wrongly fail e.g. the
	// large-object scenarios where big edges are always internalized.
	nic := m.StaticNICReq(ops...)
	if widest := cat.BandwidthMBps(cat.MostExpensive()); nic > widest {
		nic = widest
	}
	for _, cfg := range configs {
		if cat.SpeedUnits(cfg) < work || cat.BandwidthMBps(cfg) < nic {
			continue
		}
		p := m.Buy(cfg)
		if m.TryPlace(p, ops...) {
			return true
		}
		m.Sell(p)
	}
	return false
}

// placeWithGrouping implements the paper's grouping fallback shared by
// Random and Comp-Greedy: op must go on processor p; if it does not fit
// alone, it is grouped with the neighbour with which it has the most
// demanding communication requirement (detaching that neighbour from any
// previous processor). Returns an ErrInfeasible-wrapped error when even
// the pair does not fit.
func placeWithGrouping(m *mapping.Mapping, p, op int) error {
	if m.TryPlace(p, op) {
		return nil
	}
	var nbBuf [3]neighbour
	for _, nb := range neighbours(m.Inst, op, &nbBuf) {
		was := m.OpProc(nb.op)
		detachOp(m, nb.op)
		if m.TryPlace(p, op, nb.op) {
			return nil
		}
		if was != mapping.Unassigned {
			// The neighbour's old processor may have been sold; rebuy the
			// same configuration if needed and put it back.
			if !m.Procs[was].Alive {
				was = m.Buy(m.Procs[was].Config)
			}
			m.Place(nb.op, was)
		}
		// The paper groups with the single most demanding neighbour and
		// fails if that does not work; we honour that by breaking here.
		break
	}
	// Last resort before declaring failure: co-locate with any existing
	// processor that can take the operator.
	for q := range m.Procs {
		if q != p && m.Procs[q].Alive && m.TryPlace(q, op) {
			return nil
		}
	}
	return fmt.Errorf("operator %d does not fit even when grouped: %w", op, ErrInfeasible)
}
