package mapping

import (
	"fmt"
	"sort"

	"repro/internal/apptree"
	"repro/internal/instance"
	"repro/internal/platform"
	"repro/internal/xslice"
)

// Unassigned marks an operator without a processor.
const Unassigned = -1

// NoServer marks a download whose source server has not been selected yet.
const NoServer = -1

// Proc is one purchased processor.
type Proc struct {
	Config platform.Config
	Alive  bool // false once sold back
}

// Mapping is a (possibly partial) allocation of the operators of an
// instance onto purchased processors.
type Mapping struct {
	Inst   *instance.Instance
	Procs  []Proc
	Assign []int         // operator -> processor index, or Unassigned; read-only for callers
	DL     []map[int]int // per processor: object type -> chosen server (NoServer until selected)

	// Incrementally-maintained per-processor adjacency (see doc.go):
	// opsOn[p] holds p's operators ascending, objRef[p*NumTypes+k] counts
	// leaf references to object k on p. Place/Unplace update both in
	// O(degree); every load query folds over them in canonical order, so
	// results are bit-identical to a fresh walk of Assign.
	opsOn  [][]int
	objRef []int32

	// Running load estimates (estimate.go): est[p] tracks p's compute,
	// download and comm loads within a rigorous error bound, so TryPlace
	// decides most probes without walking p's operators. The estimates
	// are live while est covers every processor; Clone leaves them out
	// and a Buy past len(est) drops them, and the next TryPlace rebuilds
	// them.
	est []loadEst

	scr     *scratch      // lazily-allocated reusable buffers, never shared via Clone
	dlFree  []map[int]int // cleared download tables recycled across Reset cycles
	opsFree [][]int       // emptied opsOn lists recycled across Reset cycles

	// Optional transactional move journal (journal.go): while jon is set,
	// every mutation appends its inverse record so Checkpoint/Rollback
	// undo tentative move sequences without cloning. Never shared via
	// Clone; cleared by Reset.
	journal []record
	jon     bool
}

// scratch holds the reusable buffers behind the hot constraint checks.
// Every user clears what it dirtied before returning, so the buffers are
// all-false/empty between calls and methods can nest (TryPlace ->
// ProcFeasible) as long as they use disjoint fields.
type scratch struct {
	objSeen  []bool    // per object type: dedup in StaticNICReq
	opSeen   []bool    // per operator: group membership in StaticNICReq
	procSeen []bool    // per processor: dedup of affected procs in TryPlace (shares linkOn's allocation)
	affected []int     // TryPlace: procs to re-check
	prev     []int     // TryPlace: rollback assignments
	ops      []int     // MoveAll: operator gather buffer
	linkOn   []bool    // ProcFeasible: per processor, link accumulator active
	linkAmt  []float64 // ProcFeasible: link traffic per processor; CheckInvariants: fresh loads; Validate: server loads
	linkTo   []int     // ProcFeasible: processors with accumulated traffic
	refCnt   []int32   // CheckInvariants: fresh P×K leaf recount, Validate's needed objects

	// EvalMove's shadow of the move it replays, over every processor and
	// a fresh buy. dOps and dRef are all zero between calls.
	shEst    []loadEst // estimates after the move
	shAssign []int     // assignment after the move
	shSeen   []bool    // dedup of the processors TryPlace would check
	dOps     []int     // per processor: change in its operator count
	dRef     []int32   // per processor×type: change in the leaf refcount
	srcs     []int     // processors the move takes operators from
	refits   []Refit   // the move's refit configurations
}

// scratchFor returns the mapping's scratch with every buffer sized. The
// per-type and per-op buffers never change size; the per-processor ones
// follow the capacity of the processor list, which Buy grows by
// doubling, so a mapping that keeps buying processors reallocates them
// only when it does.
func (m *Mapping) scratchFor() *scratch {
	if m.scr == nil {
		m.scr = &scratch{}
	}
	s := m.scr
	K, pc := m.Inst.NumTypes, cap(m.Procs)
	s.objSeen = xslice.Grow(s.objSeen, K)
	s.opSeen = xslice.Grow(s.opSeen, m.Inst.Tree.NumOps())
	if len(s.linkOn) < pc {
		b := make([]bool, 2*pc)
		s.procSeen, s.linkOn = b[:pc:pc], b[pc:]
	}
	if n := max(2*pc, len(m.Inst.Platform.Servers)*(1+pc)); len(s.linkAmt) < n {
		s.linkAmt = make([]float64, n)
	}
	if len(s.refCnt) < pc*K {
		s.refCnt = make([]int32, pc*K)
	}
	return s
}

// New returns an empty mapping for the instance with the per-processor
// storage presized from the instance dimensions: a constructive solve
// buys at most about one processor per operator (sold slots included), so
// reserving NumOps slots up front — and prefilling the operator-list
// freelist with small lists carved from one backing array — means the
// first solve on a fresh Mapping grows nothing, closing most of the gap
// to an arena Reset.
func New(in *instance.Instance) *Mapping {
	n := in.Tree.NumOps()
	m := &Mapping{Inst: in, Assign: make([]int, n)}
	for i := range m.Assign {
		m.Assign[i] = Unassigned
	}
	m.Procs = make([]Proc, 0, n)
	m.DL = make([]map[int]int, 0, n)
	m.opsOn = make([][]int, 0, n)
	m.objRef = make([]int32, 0, n*in.NumTypes)
	// Full slice expressions cap each carved list at opsListCap, so a list
	// outgrowing it reallocates instead of clobbering its neighbour.
	backing := make([]int, n*opsListCap)
	m.opsFree = make([][]int, 0, n)
	for i := 0; i < n; i++ {
		m.opsFree = append(m.opsFree, backing[i*opsListCap:i*opsListCap:(i+1)*opsListCap])
	}
	return m
}

// opsListCap is the initial capacity of the per-processor operator lists
// New prefills its freelist with; most processors host only a few
// operators, so this kills the append-growth allocations of the first
// solve without oversizing the arena.
const opsListCap = 4

// Reset rebinds m to in as an empty mapping, recycling every piece of
// storage a previous construction left behind: the processor and
// assignment vectors keep their capacity, the per-processor download
// tables and operator lists are cleared onto internal freelists that Buy
// drains before calling make, and the constraint-check scratch survives
// as-is. A Reset mapping is indistinguishable from New(in) to every
// method; steady-state sweep solves through one arena mapping allocate
// nothing here. Anything previously reachable from m (its old Procs, DL
// tables) is invalidated — callers that handed those out must Clone
// first.
func (m *Mapping) Reset(in *instance.Instance) {
	m.Inst = in
	m.Assign = xslice.Grow(m.Assign, in.Tree.NumOps())
	for i := range m.Assign {
		m.Assign[i] = Unassigned
	}
	for p := range m.DL {
		if d := m.DL[p]; d != nil {
			clear(d)
			m.dlFree = append(m.dlFree, d)
			m.DL[p] = nil
		}
	}
	for p := range m.opsOn {
		if m.opsOn[p] != nil {
			m.opsFree = append(m.opsFree, m.opsOn[p][:0])
			m.opsOn[p] = nil
		}
	}
	m.Procs = m.Procs[:0]
	m.DL = m.DL[:0]
	m.opsOn = m.opsOn[:0]
	m.objRef = m.objRef[:0]
	m.journal = m.journal[:0]
}

// newDL returns an empty download table with room for n entries,
// preferring a recycled one from the Reset freelist.
func (m *Mapping) newDL(n int) map[int]int {
	if k := len(m.dlFree); k > 0 {
		d := m.dlFree[k-1]
		m.dlFree[k-1] = nil
		m.dlFree = m.dlFree[:k-1]
		return d
	}
	return make(map[int]int, n)
}

// Clone returns a deep copy; heuristics use it for tentative moves.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Inst: m.Inst}
	c.Procs = append([]Proc(nil), m.Procs...)
	c.Assign = append([]int(nil), m.Assign...)
	c.DL = make([]map[int]int, len(m.DL))
	for i, d := range m.DL {
		if d == nil {
			continue
		}
		c.DL[i] = make(map[int]int, len(d))
		for k, v := range d {
			c.DL[i][k] = v
		}
	}
	c.opsOn = make([][]int, len(m.opsOn))
	for p, lst := range m.opsOn {
		if len(lst) > 0 {
			c.opsOn[p] = append([]int(nil), lst...)
		}
	}
	c.objRef = append([]int32(nil), m.objRef...)
	return c
}

// Buy acquires a processor with the given configuration and returns its id.
func (m *Mapping) Buy(cfg platform.Config) int {
	m.Procs = append(m.Procs, Proc{Config: cfg, Alive: true})
	m.DL = append(m.DL, nil)
	var lst []int
	if k := len(m.opsFree); k > 0 {
		lst = m.opsFree[k-1]
		m.opsFree[k-1] = nil
		m.opsFree = m.opsFree[:k-1]
	}
	m.opsOn = append(m.opsOn, lst)
	for k := 0; k < m.Inst.NumTypes; k++ {
		m.objRef = append(m.objRef, 0)
	}
	p := len(m.Procs) - 1
	if p < len(m.est) {
		m.est[p] = loadEst{}
	}
	if m.jon {
		m.journal = append(m.journal, record{kind: recBuy, a: p})
	}
	return p
}

// Sell returns a processor; it must be empty.
func (m *Mapping) Sell(p int) {
	if n := len(m.opsOn[p]); n != 0 {
		panic(fmt.Sprintf("mapping: selling processor %d with %d operators", p, n))
	}
	m.Procs[p].Alive = false
	if m.jon {
		// Keep the download table intact so Rollback resurrects p exactly;
		// dead processors are invisible to every query and Reset recycles
		// the table as usual.
		m.journal = append(m.journal, record{kind: recSell, a: p})
		return
	}
	if d := m.DL[p]; d != nil {
		clear(d)
		m.dlFree = append(m.dlFree, d)
		m.DL[p] = nil
	}
}

// attach adds op (currently unassigned) to processor p's adjacency state.
func (m *Mapping) attach(op, p int) {
	if m.jon {
		m.journal = append(m.journal, record{kind: recAttach, a: op})
	}
	m.Assign[op] = p
	lst := m.opsOn[p]
	i := len(lst)
	lst = append(lst, op)
	for i > 0 && lst[i-1] > op {
		lst[i] = lst[i-1]
		i--
	}
	lst[i] = op
	m.opsOn[p] = lst
	in := m.Inst
	base := p * in.NumTypes
	live := m.estLive()
	for _, li := range in.Tree.Ops[op].Leaves {
		k := in.Tree.Leaves[li].Object
		if m.objRef[base+k]++; live && m.objRef[base+k] == 1 {
			e := &m.est[p]
			e.dl = e.add(e.dl, in.Rate(k), 1)
		}
	}
	if live {
		estMove(in, m.est, m.Assign, op, p, 1)
	}
}

// detach removes op from its processor's adjacency state.
func (m *Mapping) detach(op int) {
	p := m.Assign[op]
	if m.jon {
		m.journal = append(m.journal, record{kind: recDetach, a: op, b: p})
	}
	m.Assign[op] = Unassigned
	lst := m.opsOn[p]
	i := sort.SearchInts(lst, op)
	copy(lst[i:], lst[i+1:])
	m.opsOn[p] = lst[:len(lst)-1]
	in := m.Inst
	base := p * in.NumTypes
	live := m.estLive()
	for _, li := range in.Tree.Ops[op].Leaves {
		k := in.Tree.Leaves[li].Object
		if m.objRef[base+k]--; live && m.objRef[base+k] == 0 {
			e := &m.est[p]
			e.dl = e.add(e.dl, in.Rate(k), -1)
		}
	}
	if live {
		estMove(in, m.est, m.Assign, op, p, -1)
	}
}

// Place assigns operator op to processor p (which must be alive),
// detaching it from any previous processor first.
func (m *Mapping) Place(op, p int) {
	if !m.Procs[p].Alive {
		panic(fmt.Sprintf("mapping: placing on sold processor %d", p))
	}
	if m.Assign[op] == p {
		return
	}
	if m.Assign[op] != Unassigned {
		m.detach(op)
	}
	m.attach(op, p)
}

// Unplace removes operator op from its processor.
func (m *Mapping) Unplace(op int) {
	if m.Assign[op] != Unassigned {
		m.detach(op)
	}
}

// OpProc returns the processor hosting op, or Unassigned.
func (m *Mapping) OpProc(op int) int { return m.Assign[op] }

// OpsOn returns the operators currently assigned to p, ascending.
func (m *Mapping) OpsOn(p int) []int {
	if len(m.opsOn[p]) == 0 {
		return nil
	}
	return append([]int(nil), m.opsOn[p]...)
}

// NumOpsOn returns how many operators are assigned to p without
// materializing the list.
func (m *Mapping) NumOpsOn(p int) int { return len(m.opsOn[p]) }

// AliveProcs returns the ids of processors not yet sold.
func (m *Mapping) AliveProcs() []int {
	var out []int
	for p := range m.Procs {
		if m.Procs[p].Alive {
			out = append(out, p)
		}
	}
	return out
}

// Complete reports whether every operator is assigned.
func (m *Mapping) Complete() bool {
	for _, p := range m.Assign {
		if p == Unassigned {
			return false
		}
	}
	return true
}

// Cost returns the total purchase cost of alive processors (servers are
// fixed and free in the constructive model).
func (m *Mapping) Cost() float64 {
	total := 0.0
	for p := range m.Procs {
		if m.Procs[p].Alive {
			total += m.Inst.Platform.Catalog.Cost(m.Procs[p].Config)
		}
	}
	return total
}

// ComputeLoad returns the work rate rho * sum w_i demanded of p, in
// work-units/s; constraint (1) requires it not to exceed the processor's
// SpeedUnits. O(|ops on p|) over the incremental adjacency, summed in
// ascending operator order (bit-identical to a full re-walk).
func (m *Mapping) ComputeLoad(p int) float64 {
	load := 0.0
	for _, op := range m.opsOn[p] {
		load += m.Inst.Rho * m.Inst.W[op]
	}
	return load
}

// NeededObjects returns the de-duplicated sorted object types the
// operators on p must download (union of Leaf(i) over i in a¯(p)).
func (m *Mapping) NeededObjects(p int) []int {
	var out []int
	base := p * m.Inst.NumTypes
	for k := 0; k < m.Inst.NumTypes; k++ {
		if m.objRef[base+k] > 0 {
			out = append(out, k)
		}
	}
	return out
}

// DownloadLoad returns the NIC bandwidth p spends on basic-object
// downloads: sum of rate_k over its needed objects (each object is
// downloaded once per processor regardless of how many local operators
// share it — the paper's DL(u) is a set). The sum runs in ascending
// object order over the refcounts, matching NeededObjects.
func (m *Mapping) DownloadLoad(p int) float64 {
	load := 0.0
	base := p * m.Inst.NumTypes
	for k := 0; k < m.Inst.NumTypes; k++ {
		if m.objRef[base+k] > 0 {
			load += m.Inst.Rate(k)
		}
	}
	return load
}

// CommLoad returns the NIC bandwidth p spends exchanging intermediate
// results with other processors: incoming traffic from operator children
// mapped elsewhere plus outgoing traffic to parents mapped elsewhere.
// Edges to still-Unassigned operators do not count; they are accounted for
// when the neighbour is placed (heuristics that buy small processors guard
// against this with StaticNICReq at purchase time). On a complete mapping
// the value is exact.
func (m *Mapping) CommLoad(p int) float64 {
	load := 0.0
	tree := m.Inst.Tree
	for _, op := range m.opsOn[p] {
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != p && q != Unassigned {
				load += m.Inst.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != p && q != Unassigned {
				load += m.Inst.EdgeTraffic(op)
			}
		}
	}
	return load
}

// StaticNICReq returns the worst-case NIC bandwidth a processor hosting
// exactly the given operator group must provide: the group's de-duplicated
// object download rates plus the traffic of every tree edge crossing the
// group's boundary, as if every neighbour were mapped remotely. Heuristics
// that buy the cheapest viable processor size its NIC with this bound so
// that later placements of neighbours can never overload it; the final
// downgrade step recovers the slack once the real crossing set is known.
func (m *Mapping) StaticNICReq(ops ...int) float64 {
	in := m.Inst
	s := m.scratchFor()
	group, seen := s.opSeen, s.objSeen
	for _, op := range ops {
		group[op] = true
	}
	load := 0.0
	for _, op := range ops {
		// A binary-tree operator has at most two leaves; sum its object
		// types in ascending order (the LeafObjects order) without a map.
		leaves := in.Tree.Ops[op].Leaves
		k0, k1 := -1, -1
		switch len(leaves) {
		case 1:
			k0 = in.Tree.Leaves[leaves[0]].Object
		case 2:
			k0, k1 = in.Tree.Leaves[leaves[0]].Object, in.Tree.Leaves[leaves[1]].Object
			if k1 < k0 {
				k0, k1 = k1, k0
			}
			if k1 == k0 {
				k1 = -1
			}
		}
		if k0 >= 0 && !seen[k0] {
			seen[k0] = true
			load += in.Rate(k0)
		}
		if k1 >= 0 && !seen[k1] {
			seen[k1] = true
			load += in.Rate(k1)
		}
		for _, c := range in.Tree.Ops[op].ChildOps {
			if !group[c] {
				load += in.EdgeTraffic(c)
			}
		}
		if par := in.Tree.Ops[op].Parent; par != apptree.NoParent && !group[par] {
			load += in.EdgeTraffic(op)
		}
	}
	for _, op := range ops {
		group[op] = false
		for _, li := range in.Tree.Ops[op].Leaves {
			seen[in.Tree.Leaves[li].Object] = false
		}
	}
	return load
}

// NICLoad is the total NIC bandwidth demanded of p (downloads plus
// communication); constraint (2) requires it not to exceed Bp.
func (m *Mapping) NICLoad(p int) float64 { return m.DownloadLoad(p) + m.CommLoad(p) }

// LinkTraffic returns the traffic on the bidirectional link between
// processors p and q: the sum of rho*delta over tree edges with one
// endpoint on each; constraint (5) bounds it by bp.
func (m *Mapping) LinkTraffic(p, q int) float64 {
	if p == q {
		return 0
	}
	load := 0.0
	tree := m.Inst.Tree
	for _, op := range m.opsOn[p] {
		for _, c := range tree.Ops[op].ChildOps {
			if m.Assign[c] == q {
				load += m.Inst.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent && m.Assign[par] == q {
			load += m.Inst.EdgeTraffic(op)
		}
	}
	return load
}

// gatherLinks accumulates the (5)-link traffic of every processor
// adjacent to p into the link scratch and returns the touched processor
// list (unsorted) together with p's communication total. It walks the
// crossing edges CommLoad walks, under the same condition and in the
// same order — operators ascending, child edges then parent edge — so
// comm is bit-identical to CommLoad(p) and each s.linkAmt[q] to
// LinkTraffic(p, q). The caller clears s.linkOn for every returned q and
// truncates s.linkTo.
func (m *Mapping) gatherLinks(p int, s *scratch) (touched []int, comm float64) {
	touched = s.linkTo[:0]
	tree := m.Inst.Tree
	for _, op := range m.opsOn[p] {
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != p && q != Unassigned {
				if !s.linkOn[q] {
					s.linkOn[q] = true
					s.linkAmt[q] = 0
					touched = append(touched, q)
				}
				s.linkAmt[q] += m.Inst.EdgeTraffic(c)
				comm += m.Inst.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != p && q != Unassigned {
				if !s.linkOn[q] {
					s.linkOn[q] = true
					s.linkAmt[q] = 0
					touched = append(touched, q)
				}
				s.linkAmt[q] += m.Inst.EdgeTraffic(op)
				comm += m.Inst.EdgeTraffic(op)
			}
		}
	}
	return touched, comm
}

// ProcFeasible checks constraints (1), (2) and every (5)-link touching p
// for the current (possibly partial) assignment. It returns nil or a
// descriptive error. One pass over p's operators accumulates both p's
// communication load and the traffic of every touched link, so the cost
// is O(|ops on p|) rather than the historical all-pairs O(P·N) scan;
// links are checked in ascending processor order, so both the verdict
// and the reported violation are identical to the historical
// implementation's.
func (m *Mapping) ProcFeasible(p int) error {
	cat := m.Inst.Platform.Catalog
	if load, cap := m.ComputeLoad(p), cat.SpeedUnits(m.Procs[p].Config); load > cap+eps {
		return fmt.Errorf("mapping: processor %d compute overload %.3f > %.3f units/s", p, load, cap)
	}
	s := m.scratchFor()
	touched, comm := m.gatherLinks(p, s)
	var err error
	if load, cap := m.DownloadLoad(p)+comm, cat.BandwidthMBps(m.Procs[p].Config); load > cap+eps {
		err = fmt.Errorf("mapping: processor %d NIC overload %.3f > %.3f MB/s", p, load, cap)
	}
	// Ascending q, like the historical scan over all processor pairs.
	for i := 1; i < len(touched); i++ {
		for j := i; j > 0 && touched[j] < touched[j-1]; j-- {
			touched[j], touched[j-1] = touched[j-1], touched[j]
		}
	}
	for _, q := range touched {
		if tr := s.linkAmt[q]; err == nil && tr > m.Inst.Platform.ProcLinkMBps+eps {
			err = fmt.Errorf("mapping: link %d-%d overload %.3f > %.3f MB/s", p, q, tr, m.Inst.Platform.ProcLinkMBps)
		}
		s.linkOn[q] = false
	}
	s.linkTo = touched[:0]
	return err
}

// procFeasible is ProcFeasible as a bare verdict: the same checks,
// without materializing the diagnostic error. It is the exact walk
// behind TryPlace's probes that p's running estimate leaves undecided,
// so it also resyncs that estimate from the canonical sums it computes.
func (m *Mapping) procFeasible(p int) bool {
	cat := m.Inst.Platform.Catalog
	comp := m.ComputeLoad(p)
	s := m.scratchFor()
	touched, comm := m.gatherLinks(p, s)
	dl := m.DownloadLoad(p)
	ok := !(comp > cat.SpeedUnits(m.Procs[p].Config)+eps) &&
		!(dl+comm > cat.BandwidthMBps(m.Procs[p].Config)+eps)
	for _, q := range touched {
		if s.linkAmt[q] > m.Inst.Platform.ProcLinkMBps+eps {
			ok = false
		}
		s.linkOn[q] = false
	}
	s.linkTo = touched[:0]
	m.resyncEst(p, comp, dl, comm)
	return ok
}

// Eps absorbs float rounding in constraint comparisons: a load may exceed
// a capacity by at most Eps before the constraint counts as violated.
// Every capacity comparison in the repository — the five Validate
// constraints here and the admission checks of the server-selection step
// in package heuristics — uses this one constant with this one direction
// (load > cap+Eps fails), so construction and verification can never
// disagree about feasibility at the boundary.
const Eps = 1e-9

// eps is the internal alias predating the export.
const eps = Eps

// TryPlace tentatively places ops on p; if any of constraints (1), (2),
// (5) would be violated for p or for a processor hosting a neighbour of
// ops, the placement is rolled back and false is returned. Each affected
// processor is judged by its running load estimate where the estimate's
// error bound decides every constraint, and by the exact walk of
// procFeasible otherwise, so the verdict is always the exact walk's.
func (m *Mapping) TryPlace(p int, ops ...int) bool {
	if testHookTryPlace != nil {
		// A copy, so that ops does not escape on the production path.
		return testHookTryPlace(m, p, append([]int(nil), ops...))
	}
	return m.tryPlace(p, ops)
}

// Test hooks, nil outside tests: testHookTryPlace runs in place of
// TryPlace, testHookEstimate sees every estimate verdict a probe
// reaches, with the processor it judged, and testHookEvalMove sees
// every EvalMove verdict and returns the one EvalMove answers.
var (
	testHookTryPlace func(m *Mapping, p int, ops []int) bool
	testHookEstimate func(m *Mapping, p int, v estVerdict)
	testHookEvalMove func(m *Mapping, p int, cfg platform.Config, ops []int, v Verdict) Verdict
)

func (m *Mapping) tryPlace(p int, ops []int) bool {
	if !m.estLive() {
		m.rebuildEst()
	}
	s := m.scratchFor()
	s.prev = xslice.Grow(s.prev, len(ops))
	prev := s.prev
	var mark Mark
	if m.jon {
		// With the journal on, a failed probe rolls back through it — and
		// is truncated away — instead of replaying the prev buffer. The
		// restored state is identical: both paths re-run the same integer
		// attach/detach bookkeeping in opposite orders.
		mark = m.Checkpoint()
	}
	for i, op := range ops {
		prev[i] = m.Assign[op]
		m.Place(op, p)
	}
	affected := append(s.affected[:0], p)
	s.procSeen[p] = true
	tree := m.Inst.Tree
	for _, op := range ops {
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != Unassigned && !s.procSeen[q] {
				s.procSeen[q] = true
				affected = append(affected, q)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != Unassigned && !s.procSeen[q] {
				s.procSeen[q] = true
				affected = append(affected, q)
			}
		}
	}
	ok := true
	for _, q := range affected {
		if !m.feasible(q) {
			ok = false
			break
		}
	}
	for _, q := range affected {
		s.procSeen[q] = false
	}
	s.affected = affected[:0]
	if !ok {
		if m.jon {
			m.Rollback(mark)
			return false
		}
		// Undo through Place/Unplace so the adjacency state rolls back
		// with the assignments (integer bookkeeping round-trips exactly).
		for i, op := range ops {
			if prev[i] == Unassigned {
				m.Unplace(op)
			} else {
				m.Place(op, prev[i])
			}
		}
	}
	return ok
}

// MoveAll tries to move every operator of processor from onto processor
// to; on success from is sold and true returned, otherwise nothing
// changes. This is the heuristics' processor-merge primitive, kept here so
// it can gather the operator list into reusable scratch.
func (m *Mapping) MoveAll(from, to int) bool {
	if from == to {
		return false
	}
	s := m.scratchFor()
	// Snapshot: TryPlace mutates opsOn[from] as it moves the operators.
	ops := append(s.ops[:0], m.opsOn[from]...)
	s.ops = ops
	if !m.TryPlace(to, ops...) {
		return false
	}
	m.Sell(from)
	return true
}

// SelectServer records that processor p downloads object k from server l.
func (m *Mapping) SelectServer(p, k, l int) {
	if m.DL[p] == nil {
		m.DL[p] = m.newDL(1)
		if m.jon {
			m.journal = append(m.journal, record{kind: recDLNew, a: p})
		}
	}
	if m.jon {
		if prev, ok := m.DL[p][k]; ok {
			m.journal = append(m.journal, record{kind: recDLSet, a: p, b: k, c: prev})
		} else {
			m.journal = append(m.journal, record{kind: recDLInsert, a: p, b: k})
		}
	}
	m.DL[p][k] = l
}

// PresizeDL pre-sizes processor p's download table for n entries. The
// server-selection step knows every processor's download count up front
// and calls this so the SelectServer writes that follow never rehash.
func (m *Mapping) PresizeDL(p, n int) {
	if m.DL[p] == nil && n > 0 {
		m.DL[p] = m.newDL(n)
		if m.jon {
			m.journal = append(m.journal, record{kind: recDLNew, a: p})
		}
	}
}

// NumAlive returns the number of processors not yet sold.
func (m *Mapping) NumAlive() int {
	n := 0
	for p := range m.Procs {
		if m.Procs[p].Alive {
			n++
		}
	}
	return n
}

// ServerLoad returns the total download bandwidth (MB/s) demanded of
// server l across all processors; constraint (3) bounds it by Bs_l.
func (m *Mapping) ServerLoad(l int) float64 {
	load := 0.0
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		for k, srv := range m.DL[p] {
			if srv == l {
				load += m.Inst.Rate(k)
			}
		}
	}
	return load
}

// ServerLinkLoad returns the download bandwidth on the link from server l
// to processor p; constraint (4) bounds it by bs.
func (m *Mapping) ServerLinkLoad(l, p int) float64 {
	load := 0.0
	for k, srv := range m.DL[p] {
		if srv == l {
			load += m.Inst.Rate(k)
		}
	}
	return load
}

// CheckInvariants re-derives the incremental adjacency state (opsOn,
// objRef) and every per-processor load from the Assign vector, failing on
// any divergence. One ascending walk of Assign accumulates each
// processor's fresh compute and comm sums and a P×K leaf recount, so each
// processor's sums see its operators in the same ascending order as the
// cached queries: load agreement is checked exactly (==, stronger than
// the Eps capacity tolerance), and any difference at all is a
// bookkeeping bug. While the running load estimates are live, each
// must also lie within its error bound of the fresh sums. Validate calls
// this on every complete mapping; the differential property tests drive
// it after random mutation sequences.
func (m *Mapping) CheckInvariants() error {
	total := 0
	for p := range m.Procs {
		prev := -1
		for _, op := range m.opsOn[p] {
			if op <= prev {
				return fmt.Errorf("mapping: opsOn[%d] not strictly ascending: %v", p, m.opsOn[p])
			}
			prev = op
			if op < 0 || op >= len(m.Assign) || m.Assign[op] != p {
				return fmt.Errorf("mapping: opsOn[%d] lists operator %d assigned to %d", p, op, m.Assign[op])
			}
		}
		total += len(m.opsOn[p])
	}
	assigned := 0
	for _, p := range m.Assign {
		if p != Unassigned {
			assigned++
		}
	}
	if assigned != total {
		return fmt.Errorf("mapping: %d operators assigned but opsOn lists %d", assigned, total)
	}
	// Every assigned operator is now listed exactly once, on the processor
	// Assign names, so every Assign entry below indexes a real processor.
	in, tree := m.Inst, m.Inst.Tree
	P, K := len(m.Procs), in.NumTypes
	s := m.scratchFor()
	cnt := s.refCnt[:P*K]
	clear(cnt)
	// The fresh sums borrow the link accumulator, idle outside
	// ProcFeasible.
	comp, comm := s.linkAmt[:P], s.linkAmt[P:2*P]
	clear(comp)
	clear(comm)
	for op, p := range m.Assign {
		if p == Unassigned {
			continue
		}
		comp[p] += in.Rho * in.W[op]
		for _, c := range tree.Ops[op].ChildOps {
			if q := m.Assign[c]; q != p && q != Unassigned {
				comm[p] += in.EdgeTraffic(c)
			}
		}
		if par := tree.Ops[op].Parent; par != apptree.NoParent {
			if q := m.Assign[par]; q != p && q != Unassigned {
				comm[p] += in.EdgeTraffic(op)
			}
		}
		for _, li := range tree.Ops[op].Leaves {
			cnt[p*K+tree.Leaves[li].Object]++
		}
	}
	for p := range m.Procs {
		base := p * K
		download := 0.0
		for k := 0; k < K; k++ {
			if cnt[base+k] != m.objRef[base+k] {
				return fmt.Errorf("mapping: processor %d object %d refcount %d, want %d", p, k, m.objRef[base+k], cnt[base+k])
			}
			if cnt[base+k] > 0 {
				download += in.Rate(k)
			}
		}
		if got, want := m.ComputeLoad(p), comp[p]; got != want {
			return fmt.Errorf("mapping: processor %d cached compute load %v, fresh %v", p, got, want)
		}
		if got, want := m.CommLoad(p), comm[p]; got != want {
			return fmt.Errorf("mapping: processor %d cached comm load %v, fresh %v", p, got, want)
		}
		if got, want := m.DownloadLoad(p), download; got != want {
			return fmt.Errorf("mapping: processor %d cached download load %v, fresh %v", p, got, want)
		}
		if m.estLive() {
			if err := m.checkEst(p, comp[p], download, comm[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate re-checks the complete mapping from scratch:
//
//   - every operator assigned to an alive processor,
//   - the incremental adjacency state matches a fresh re-derivation and
//     every cached load a fresh re-summation (CheckInvariants),
//   - every needed object of every processor has a selected server that
//     actually holds the object (and no spurious downloads),
//   - constraints (1) through (5).
//
// The needed objects come from CheckInvariants' fresh recount, and one
// range over every alive processor's download table fills the server NIC
// and server-link loads, so the whole check is O(N + P·K + L·P).
func (m *Mapping) Validate() error {
	in := m.Inst
	for op, p := range m.Assign {
		if p == Unassigned {
			return fmt.Errorf("mapping: operator %d unassigned", op)
		}
		if p < 0 || p >= len(m.Procs) || !m.Procs[p].Alive {
			return fmt.Errorf("mapping: operator %d on invalid processor %d", op, p)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	s := m.scratchFor()
	K := in.NumTypes
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		need := s.refCnt[p*K : (p+1)*K]
		needed := 0
		for _, c := range need {
			if c > 0 {
				needed++
			}
		}
		if needed != len(m.DL[p]) {
			return fmt.Errorf("mapping: processor %d needs %d objects but has %d downloads", p, needed, len(m.DL[p]))
		}
		for k, c := range need {
			if c == 0 {
				continue
			}
			l, ok := m.DL[p][k]
			switch {
			case !ok:
				return fmt.Errorf("mapping: processor %d missing download for object %d", p, k)
			case l == NoServer:
				return fmt.Errorf("mapping: processor %d object %d has no server selected", p, k)
			default:
				holds := false
				for _, h := range in.Holders[k] {
					if h == l {
						holds = true
					}
				}
				if !holds {
					return fmt.Errorf("mapping: processor %d downloads object %d from server %d which does not hold it", p, k, l)
				}
			}
		}
		if err := m.ProcFeasible(p); err != nil {
			return err
		}
	}
	// Server loads: NIC per server (3) and per (server, processor) link
	// (4), each summed over processors ascending like ServerLoad and
	// ServerLinkLoad.
	L, P := len(in.Platform.Servers), len(m.Procs)
	nic, link := s.linkAmt[:L], s.linkAmt[L:L+L*P]
	clear(nic)
	clear(link)
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		for k, l := range m.DL[p] {
			if l >= 0 && l < L {
				nic[l] += in.Rate(k)
				link[l*P+p] += in.Rate(k)
			}
		}
	}
	for l := range in.Platform.Servers {
		if load, cap := nic[l], in.Platform.Servers[l].NICMBps; load > cap+eps {
			return fmt.Errorf("mapping: server %d NIC overload %.3f > %.3f MB/s", l, load, cap)
		}
		for p := range m.Procs {
			if !m.Procs[p].Alive {
				continue
			}
			if load := link[l*P+p]; load > in.Platform.ServerLinkMBps+eps {
				return fmt.Errorf("mapping: server link %d->%d overload %.3f > %.3f MB/s", l, p, load, in.Platform.ServerLinkMBps)
			}
		}
	}
	return nil
}

// Compact returns the mapping's alive processors renumbered 0..n-1
// together with the per-processor operator lists; convenient for
// reporting and for the stream simulator.
func (m *Mapping) Compact() (procs []Proc, ops [][]int, dl []map[int]int) {
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		procs = append(procs, m.Procs[p])
		ops = append(ops, m.OpsOn(p))
		d := map[int]int{}
		for k, v := range m.DL[p] {
			d[k] = v
		}
		dl = append(dl, d)
	}
	return procs, ops, dl
}
