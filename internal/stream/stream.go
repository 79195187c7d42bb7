// Package stream executes a mapped operator tree in simulated time and
// measures the throughput it actually sustains, providing an independent
// dynamic check of the paper's steady-state constraint system.
//
// The execution model follows the paper's Section 2: every operator runs
// as a pipelined stage on its processor — while a processor computes the
// t-th result of an operator, it receives inputs for the (t+1)-th and
// sends the (t-1)-th output to the parent, all concurrently (full
// overlap). Computation shares a processor's CPU equally among its active
// operators (processor sharing); transfers share NIC and link bandwidth
// max-min fairly under the bounded multi-port model (package flow);
// basic-object downloads are a constant background load that permanently
// reserves NIC bandwidth.
//
// For any mapping that satisfies constraints (1)-(5) at throughput rho,
// the measured steady-state throughput converges to at least rho (the
// bottleneck stage rate); integration tests assert this on every
// heuristic's output.
//
// The engine needs no event queue: at most one compute and one transfer
// per operator are in flight, so each job in a fixed (kind, op) table
// carries its own completion time, and every event is one pass over the
// live slots of that table, found through a bitset in ascending order —
// settle progress, set the new rate, compute the completion time and
// track the earliest one (ties to the lowest slot). Each processor's CPU
// share is cached and refreshed only when its active count changes, and
// max-min sharing is recomputed only when the set of active transfers
// changes.
//
// The engine is built for sweep workloads (thousands of simulations per
// experiment): a Runner owns every piece of run-time state — job table,
// flow-network scratch — and rebinds it to each mapping with grow-only
// buffers, so repeated Simulate calls on one goroutine perform zero
// steady-state allocations. The package-level Simulate draws Runners
// from a sync.Pool; hot loops can hold a Runner directly.
package stream

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/apptree"
	"repro/internal/flow"
	"repro/internal/mapping"
	"repro/internal/par"
	"repro/internal/xslice"
)

// Options tunes a simulation run.
type Options struct {
	Results   int   // root results to complete (default 120)
	Warmup    int   // leading results excluded from the measurement (default Results/3)
	Credits   int   // how far any operator may run ahead of its parent (default 8)
	MaxEvents int64 // event budget (default 2,000,000)
}

// withDefaults fills unset fields and rejects contradictory ones: a
// measurement needs at least one post-warmup result, so an explicit
// Warmup >= Results is an error rather than a silently replaced guess.
func (o Options) withDefaults() (Options, error) {
	if o.Results <= 0 {
		o.Results = 120
	}
	if o.Warmup >= o.Results {
		return o, fmt.Errorf("stream: Warmup %d leaves no measured results (Results %d)", o.Warmup, o.Results)
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Results / 3
	}
	if o.Credits <= 0 {
		o.Credits = 8
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 2_000_000
	}
	// Every root result costs at least one event, so a run asking for
	// more results than its event budget can never finish; refuse it
	// before bind sizes a buffer for Results completions.
	if int64(o.Results) > o.MaxEvents {
		return o, fmt.Errorf("stream: Results %d exceed the event budget of %d events", o.Results, o.MaxEvents)
	}
	return o, nil
}

// Check reports whether Simulate refuses these options, without running
// anything, so a caller can refuse a request up front.
func (o Options) Check() error {
	_, err := o.withDefaults()
	return err
}

// Report is the outcome of a simulation.
type Report struct {
	Throughput float64 // measured steady-state root results/s
	Analytic   float64 // analytic maximum sustainable throughput
	Completed  int     // root results completed
	SimTime    float64 // virtual seconds elapsed
	Events     int64   // simulator events processed
}

// MeetsTarget is the one QoS verdict on a simulation: the measured
// steady-state throughput sustains the target rho, with a 10% tolerance
// for the error of a finite run's measurement.
func MeetsTarget(measured, rho float64) bool { return measured >= 0.9*rho }

// AnalyticMaxThroughput returns the largest rho' at which the mapping's
// constraint system still holds, treating download rates as fixed (they do
// not scale with throughput) and communication as linear in rho'. It
// returns 0 when the fixed download load alone violates a constraint and
// +Inf only for empty mappings. The scan allocates nothing: every loop
// walks the assignment vector directly in ascending order.
func AnalyticMaxThroughput(m *mapping.Mapping) float64 {
	in := m.Inst
	cat := in.Platform.Catalog
	best := math.Inf(1)
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		work := 0.0 // at rho = 1
		for op, q := range m.Assign {
			if q == p {
				work += in.W[op]
			}
		}
		if work > 0 {
			best = math.Min(best, cat.SpeedUnits(m.Procs[p].Config)/work)
		}
		dl := m.DownloadLoad(p)
		residual := cat.BandwidthMBps(m.Procs[p].Config) - dl
		comm := commAtUnitRho(m, p)
		if comm > 0 {
			best = math.Min(best, residual/comm)
		} else if residual < 0 {
			return 0
		}
	}
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		for q := p + 1; q < len(m.Procs); q++ {
			if !m.Procs[q].Alive {
				continue
			}
			tr := linkAtUnitRho(m, p, q)
			if tr > 0 {
				best = math.Min(best, in.Platform.ProcLinkMBps/tr)
			}
		}
	}
	for l := range in.Platform.Servers {
		if m.ServerLoad(l) > in.Platform.Servers[l].NICMBps+mapping.Eps {
			return 0
		}
		for p := range m.Procs {
			if !m.Procs[p].Alive {
				continue
			}
			if m.ServerLinkLoad(l, p) > in.Platform.ServerLinkMBps+mapping.Eps {
				return 0
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func commAtUnitRho(m *mapping.Mapping, p int) float64 {
	in := m.Inst
	load := 0.0
	for op, onP := range m.Assign {
		if onP != p {
			continue
		}
		for _, c := range in.Tree.Ops[op].ChildOps {
			if m.OpProc(c) != p {
				load += in.Delta[c]
			}
		}
		if par := in.Tree.Ops[op].Parent; par != apptree.NoParent && m.OpProc(par) != p {
			load += in.Delta[op]
		}
	}
	return load
}

func linkAtUnitRho(m *mapping.Mapping, p, q int) float64 {
	in := m.Inst
	load := 0.0
	for op, onP := range m.Assign {
		if onP != p {
			continue
		}
		for _, c := range in.Tree.Ops[op].ChildOps {
			if m.OpProc(c) == q {
				load += in.Delta[c]
			}
		}
		if par := in.Tree.Ops[op].Parent; par != apptree.NoParent && m.OpProc(par) == q {
			load += in.Delta[op]
		}
	}
	return load
}

// job is one unit of in-flight work: the compute of an operator's next
// result, or the transfer of a finished result to a remote parent. Jobs
// live in a fixed table indexed (kind, op) — at most one compute and one
// transfer per operator are active at any instant — and the engine's
// live bitset marks the active slots, so walking its set bits in
// ascending order visits active jobs in the deterministic (kind, op)
// order the engine's float accumulation and event tie-breaking rely on.
type job struct {
	result    int     // result index
	remaining float64 // work-units or MB
	rate      float64
	updated   float64 // sim time of the last remaining-update
	due       float64 // completion time under the current rate
}

// engine holds the run-time state of one simulation. All slices are
// grow-only and rebound per run, so one engine serves many simulations
// without reallocating.
type engine struct {
	m   *mapping.Mapping
	opt Options

	now    float64 // virtual time of the last completion
	events int64   // completions processed
	next   int     // active job slot with the earliest due, -1 when none

	// static structure, rebuilt per run
	procOf   []int // operator -> processor
	parentOf []int // operator -> parent operator (apptree.NoParent at root)
	speed    []float64
	nicFree  []float64 // NIC capacity minus download background, per processor
	children [][]int

	// static flow network: capacities never change during a run, so the
	// resource vector and each transfer's resource triple are precomputed.
	caps     []float64
	nicRes   []int    // processor -> resource index, -1 when not alive
	linkRes  []int    // flattened (p*numProcs+q) -> resource index, -1 unset
	transRes [][3]int // operator -> its transfer's (src NIC, dst NIC, link)

	// job table: [0, n) compute jobs, [n, 2n) transfer jobs. Bit i of
	// live is set exactly while slot i holds an active job, so it is
	// also the record of which operators are computing or sending.
	jobs []job
	live []uint64

	// dynamic per-operator state
	nextCompute []int // next result index the operator will compute
	recv        []int // results of this operator delivered to its parent
	sendQueue   []int // outputs produced but not yet transferred (remote parents only)

	completions []float64
	err         error

	alloc      flow.Allocator
	flows      []flow.Flow
	transfers  []int     // operators with an active transfer at the last MaxMin, ascending
	share      []float64 // operator -> max-min rate of its active transfer
	flowsStale bool      // the active transfer set changed since the last MaxMin
	cpuActive  []int     // per processor: active compute jobs
	cpuRate    []float64 // per processor: speed / cpuActive, refreshed when cpuActive changes
}

// Runner owns a reusable simulation engine. The zero value is ready to
// use; a Runner must not be used concurrently, and copies of one share
// its buffers, so they must run one at a time too. Each Simulate call
// rebinds the engine to the given mapping (so mutating a mapping between
// calls is safe) while reusing all internal buffers, giving zero
// steady-state allocations on repeated calls. The Runner keeps
// references to the most recently simulated mapping until the next call.
type Runner struct {
	e engine
}

// NewRunner returns an empty Runner; see the type comment for reuse rules.
func NewRunner() *Runner { return &Runner{} }

// SimulateBatch runs Simulate on every mapping concurrently, at most
// workers at a time (<= 0 means GOMAXPROCS). Slot i of the returned
// slices holds mapping i's report or error, in input order regardless
// of scheduling. Each simulation owns its engine state, so the fan-out
// is race-free; cancelling ctx skips the simulations not yet started
// (in-flight ones run to completion) and reports them with an error
// wrapping the cancellation cause.
func SimulateBatch(ctx context.Context, ms []*mapping.Mapping, opt Options, workers int) ([]*Report, []error) {
	reps := make([]*Report, len(ms))
	errs := make([]error, len(ms))
	done, _ := par.ForEachDone(ctx, workers, len(ms), func(i int) {
		reps[i], errs[i] = Simulate(ms[i], opt)
	})
	par.SkipErrors(ctx, done, errs, "stream: batch")
	return reps, errs
}

// runnerPool recycles engines across package-level Simulate calls; a
// worker goroutine hammering Simulate reuses one warmed engine.
var runnerPool = sync.Pool{New: func() any { return new(Runner) }}

// Simulate runs the mapping and measures its root throughput.
func Simulate(m *mapping.Mapping, opt Options) (*Report, error) {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	rep, err := r.Simulate(m, opt)
	if err != nil {
		return nil, err
	}
	out := rep
	return &out, nil
}

// Simulate runs the mapping on the reusable engine and measures its root
// throughput. The report is returned by value so steady-state calls do
// not allocate.
func (r *Runner) Simulate(m *mapping.Mapping, opt Options) (Report, error) {
	e := &r.e
	if !m.Complete() {
		return Report{}, fmt.Errorf("stream: mapping is incomplete")
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return Report{}, err
	}
	if err := e.bind(m, opt); err != nil {
		return Report{}, err
	}

	n := len(e.nextCompute)
	// Kick off every operator that can compute its first result.
	for op := 0; op < n; op++ {
		e.tryStartCompute(op)
	}
	e.reflow()

	for e.err == nil && len(e.completions) < opt.Results {
		if e.events >= opt.MaxEvents {
			return Report{}, fmt.Errorf("stream: event budget exhausted after %d results", len(e.completions))
		}
		if e.next < 0 {
			return Report{}, fmt.Errorf("stream: deadlock after %d results", len(e.completions))
		}
		e.events++
		e.finish(e.next)
	}
	if e.err != nil {
		return Report{}, e.err
	}

	first, last := e.completions[opt.Warmup], e.completions[len(e.completions)-1]
	measured := math.Inf(1)
	if last > first {
		measured = float64(len(e.completions)-1-opt.Warmup) / (last - first)
	}
	return Report{
		Throughput: measured,
		Analytic:   AnalyticMaxThroughput(m),
		Completed:  len(e.completions),
		SimTime:    e.now,
		Events:     e.events,
	}, nil
}

// bind points the engine at a mapping and resets all dynamic state. Every
// buffer is grow-only, so rebinding is allocation-free once warmed. Work
// and sizes must be finite and non-negative: completion times are derived
// from them, and a NaN or infinite one has no place on the clock.
func (e *engine) bind(m *mapping.Mapping, opt Options) error {
	in := m.Inst
	cat := in.Platform.Catalog
	n := in.Tree.NumOps()
	np := len(m.Procs)
	for op := 0; op < n; op++ {
		if w, d := in.W[op], in.Delta[op]; !(w >= 0 && w <= math.MaxFloat64 && d >= 0 && d <= math.MaxFloat64) {
			return fmt.Errorf("stream: operator %d has work %v and size %v; both must be finite and non-negative", op, w, d)
		}
	}
	e.m = m
	e.opt = opt
	e.err = nil
	e.now, e.events, e.next = 0, 0, -1
	e.flowsStale = false

	e.procOf = xslice.Grow(e.procOf, n)
	e.parentOf = xslice.Grow(e.parentOf, n)
	e.children = xslice.Grow(e.children, n)
	e.nextCompute = xslice.Grow(e.nextCompute, n)
	e.recv = xslice.Grow(e.recv, n)
	e.sendQueue = xslice.Grow(e.sendQueue, n)
	e.transRes = xslice.Grow(e.transRes, n)
	e.share = xslice.Grow(e.share, n)
	for op := 0; op < n; op++ {
		e.procOf[op] = m.OpProc(op)
		e.parentOf[op] = in.Tree.Ops[op].Parent
		e.children[op] = in.Tree.Ops[op].ChildOps
		e.nextCompute[op] = 0
		e.recv[op] = 0
		e.sendQueue[op] = 0
	}

	e.speed = xslice.Grow(e.speed, np)
	e.nicFree = xslice.Grow(e.nicFree, np)
	e.nicRes = xslice.Grow(e.nicRes, np)
	e.cpuActive = xslice.Grow(e.cpuActive, np)
	e.cpuRate = xslice.Grow(e.cpuRate, np)
	e.caps = e.caps[:0]
	for p := 0; p < np; p++ {
		e.nicRes[p] = -1
		e.cpuActive[p] = 0
		if !m.Procs[p].Alive {
			continue
		}
		e.speed[p] = cat.SpeedUnits(m.Procs[p].Config)
		e.nicFree[p] = cat.BandwidthMBps(m.Procs[p].Config) - m.DownloadLoad(p)
		if e.nicFree[p] < 0 {
			return fmt.Errorf("stream: processor %d downloads exceed its NIC", p)
		}
		e.nicRes[p] = len(e.caps)
		e.caps = append(e.caps, e.nicFree[p])
	}
	// One shared resource per processor pair that a transfer can cross.
	e.linkRes = xslice.Grow(e.linkRes, np*np)
	for i := range e.linkRes {
		e.linkRes[i] = -1
	}
	for op := 0; op < n; op++ {
		par := e.parentOf[op]
		if par == apptree.NoParent || e.procOf[par] == e.procOf[op] {
			continue
		}
		from, to := e.procOf[op], e.procOf[par]
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		if e.linkRes[a*np+b] < 0 {
			e.linkRes[a*np+b] = len(e.caps)
			e.caps = append(e.caps, in.Platform.ProcLinkMBps)
		}
		e.transRes[op] = [3]int{e.nicRes[from], e.nicRes[to], e.linkRes[a*np+b]}
	}

	e.jobs = xslice.Grow(e.jobs, 2*n) // a slot is written whole when its job starts
	e.live = xslice.Grow(e.live, (2*n+63)/64)
	for i := range e.live {
		e.live[i] = 0
	}

	if cap(e.completions) < opt.Results {
		e.completions = make([]float64, 0, opt.Results)
	} else {
		e.completions = e.completions[:0]
	}
	return nil
}

// canCompute checks input availability and pipeline credits for op's next
// result.
func (e *engine) canCompute(op int) bool {
	t := e.nextCompute[op]
	if e.isLive(op) { // computing
		return false
	}
	// Credit: do not run more than Credits results ahead of the parent.
	if par := e.parentOf[op]; par != apptree.NoParent {
		if t >= e.nextCompute[par]+e.opt.Credits {
			return false
		}
	}
	// Back-pressure: an unbounded send queue means the transfer path is
	// the bottleneck; stall computation once the queue holds Credits
	// outputs so the simulation reaches a finite steady state.
	if e.sendQueue[op] >= e.opt.Credits {
		return false
	}
	for _, c := range e.children[op] {
		if e.recv[c] <= t {
			return false
		}
	}
	return true
}

func (e *engine) tryStartCompute(op int) {
	if !e.canCompute(op) {
		return
	}
	e.addCPU(e.procOf[op], 1)
	e.jobs[op] = job{
		result:    e.nextCompute[op],
		remaining: e.m.Inst.W[op],
		updated:   e.now,
	}
	e.setLive(op)
}

// addCPU changes processor p's active compute count by d and refreshes
// its cached processor-sharing rate from the same operands reflow used
// to divide per job, so the rate keeps its bits.
func (e *engine) addCPU(p, d int) {
	e.cpuActive[p] += d
	e.cpuRate[p] = e.speed[p] / float64(e.cpuActive[p])
}

func (e *engine) setLive(i int)     { e.live[i>>6] |= 1 << (i & 63) }
func (e *engine) clearLive(i int)   { e.live[i>>6] &^= 1 << (i & 63) }
func (e *engine) isLive(i int) bool { return e.live[i>>6]&(1<<(i&63)) != 0 }

// computeDone handles the completion of op's result t.
func (e *engine) computeDone(op, t int) {
	e.nextCompute[op] = t + 1
	par := e.parentOf[op]
	if par == apptree.NoParent {
		e.completions = append(e.completions, e.now)
	} else if e.procOf[par] == e.procOf[op] {
		e.recv[op] = t + 1
		e.tryStartCompute(par)
	} else {
		e.sendQueue[op]++
		e.tryStartTransfer(op)
	}
	// This operator may proceed, and its children may have been waiting on
	// the parent-credit.
	e.tryStartCompute(op)
	for _, c := range e.children[op] {
		e.tryStartCompute(c)
	}
}

// tryStartTransfer starts the next queued output transfer of op to its
// (remote) parent; one transfer per edge at a time.
func (e *engine) tryStartTransfer(op int) {
	n := len(e.nextCompute)
	if e.isLive(n+op) || e.sendQueue[op] == 0 {
		return
	}
	e.sendQueue[op]--
	t := e.nextCompute[op] - 1 - e.sendQueue[op] // oldest unsent result
	e.jobs[n+op] = job{
		result:    t,
		remaining: e.m.Inst.Delta[op],
		updated:   e.now,
	}
	e.setLive(n + op)
	e.flowsStale = true
}

func (e *engine) transferDone(op, t int) {
	par := e.parentOf[op]
	e.recv[op] = t + 1
	e.tryStartCompute(par)
	e.tryStartTransfer(op)
	e.tryStartCompute(op)
}

// reflow settles every active job's progress under its old rate, sets
// its new rate and completion time, and picks the next job to finish.
// Called after any state change. Only live slots are visited, in
// ascending slot order — computes by ascending operator, then transfers
// — which is exactly the (kind, op) order the float accumulation and
// the tie-breaking (the earliest due wins, then the lowest slot) were
// defined with.
func (e *engine) reflow() {
	n := len(e.nextCompute)
	// Transfer rates: max-min over the precomputed NIC and link
	// resources, a pure function of the active transfer set.
	if e.flowsStale {
		e.flowsStale = false
		e.transfers = e.transfers[:0]
		e.flows = e.flows[:0]
		for w := n >> 6; w < len(e.live); w++ {
			word := e.live[w]
			if w == n>>6 {
				word &^= 1<<(n&63) - 1 // the compute slots below n
			}
			for ; word != 0; word &= word - 1 {
				op := w<<6 + bits.TrailingZeros64(word) - n
				e.transfers = append(e.transfers, op)
				e.flows = append(e.flows, flow.Flow{Resources: e.transRes[op][:]})
			}
		}
		if len(e.flows) > 0 {
			rates, err := e.alloc.MaxMin(e.caps, e.flows)
			if err != nil {
				e.err = fmt.Errorf("stream: %v", err)
				return
			}
			for i, op := range e.transfers {
				e.share[op] = rates[i]
			}
		}
	}

	now := e.now
	e.next = -1
	for w, word := range e.live {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			j := &e.jobs[i]
			if j.rate > 0 {
				j.remaining -= j.rate * (now - j.updated)
				if j.remaining < 0 {
					j.remaining = 0
				}
			}
			j.updated = now
			if i < n {
				j.rate = e.cpuRate[e.procOf[i]] // processor sharing
			} else {
				j.rate = e.share[i-n]
			}
			if j.rate <= 0 {
				e.err = fmt.Errorf("stream: job stalled at zero rate (op %d)", i%n)
				return
			}
			j.due = now + j.remaining/j.rate
			if j.due > math.MaxFloat64 {
				e.err = fmt.Errorf("stream: op %d completion time overflows at %v", i%n, now)
				return
			}
			if e.next < 0 || j.due < e.jobs[e.next].due {
				e.next = i
			}
		}
	}
}

// finish advances the clock to job slot idx's completion, retires the
// job and advances the pipeline.
func (e *engine) finish(idx int) {
	n := len(e.nextCompute)
	j := &e.jobs[idx]
	e.now = j.due
	e.clearLive(idx)
	if idx < n {
		e.addCPU(e.procOf[idx], -1)
		e.computeDone(idx, j.result)
	} else {
		e.transferDone(idx-n, j.result)
		// transferDone starts no transfer but this edge's next one, so
		// the active set changed exactly when that did not happen.
		e.flowsStale = !e.isLive(idx)
	}
	e.reflow()
}
