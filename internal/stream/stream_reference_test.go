package stream

// The stream engine as it stood before reflow walked a live-slot bitset:
// every event visits all 2n job slots and skips the inactive ones, and
// every compute job divides its processor's speed by the active count.
// It is kept test-only as the reference TestEngineMatchesReference
// holds the live-slot engine to, Report field by Report field.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apptree"
	"repro/internal/flow"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/xslice"
)

// TestEngineMatchesReference runs the engine and the reference on
// mappings beyond the golden corpus — seeds 2-21, N in {10, 20, 40, 60},
// all six heuristics, the default and a homogeneous multi-processor
// catalog — under tight, medium and default credits and a small event
// budget. Every Report field must match bit for bit and every error
// string exactly. One Runner and one reference engine serve every run,
// so rebinding over a previous mapping's live set is covered too.
func TestEngineMatchesReference(t *testing.T) {
	hom := platform.DefaultPlatform()
	hom.Catalog = platform.Homogeneous(0, 4)
	catalogs := []struct {
		name string
		p    *platform.Platform
	}{{"default", nil}, {"hom", hom}}
	opts := []Options{
		{Results: 20, Credits: 1},
		{Results: 20, Credits: 2},
		{Results: 20, Credits: 8},
		{Results: 20, MaxEvents: 200},
	}
	alphas := []float64{0.9, 1.5, 2.3}
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	r := NewRunner()
	var ref refEngine
	runs := 0
	for seed := int64(2); seed < int64(2+seeds); seed++ {
		for _, cat := range catalogs {
			for _, n := range []int{10, 20, 40, 60} {
				alpha := alphas[int(seed)%len(alphas)]
				in := instance.Generate(instance.Config{NumOps: n, Alpha: alpha, Platform: cat.p}, seed)
				for _, h := range heuristics.All() {
					res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
					if err != nil {
						continue
					}
					for _, opt := range opts {
						key := fmt.Sprintf("%s seed=%d N=%d alpha=%g %s %+v", cat.name, seed, n, alpha, h.Name(), opt)
						got, gotErr := r.Simulate(res.Mapping, opt)
						want, wantErr := refSimulate(&ref, res.Mapping, opt)
						runs++
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, reference %v", key, gotErr, wantErr)
						}
						if !sameReport(got, want) {
							t.Fatalf("%s: report %+v, reference %+v", key, got, want)
						}
					}
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no feasible mapping simulated")
	}
}

// sameReport compares every Report field, floats by their bit patterns.
func sameReport(a, b Report) bool {
	return math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Analytic) == math.Float64bits(b.Analytic) &&
		math.Float64bits(a.SimTime) == math.Float64bits(b.SimTime) &&
		a.Completed == b.Completed && a.Events == b.Events
}

// refJob is one slot of the reference job table.
type refJob struct {
	result    int     // result index
	remaining float64 // work-units or MB
	rate      float64
	updated   float64 // sim time of the last remaining-update
	due       float64 // completion time under the current rate
	active    bool
}

// refEngine holds the run-time state of one simulation. All slices are
// grow-only and rebound per run, so one engine serves many simulations
// without reallocating.
type refEngine struct {
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

	// job table: [0, n) compute jobs, [n, 2n) transfer jobs.
	jobs []refJob

	// dynamic per-operator state
	nextCompute []int  // next result index the operator will compute
	recv        []int  // results of this operator delivered to its parent
	computing   []bool // a compute job is active
	sendBusy    []bool // a transfer of its output is in flight
	sendQueue   []int  // outputs produced but not yet transferred (remote parents only)

	completions []float64
	err         error

	alloc      flow.Allocator
	flows      []flow.Flow
	transfers  []int     // operators with an active transfer at the last MaxMin, ascending
	share      []float64 // operator -> max-min rate of its active transfer
	flowsStale bool      // the active transfer set changed since the last MaxMin
	cpuActive  []int     // per processor: active compute jobs
}

// refSimulate is Runner.Simulate on the reference engine.
func refSimulate(e *refEngine, m *mapping.Mapping, opt Options) (Report, error) {
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
func (e *refEngine) bind(m *mapping.Mapping, opt Options) error {
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
	e.computing = xslice.Grow(e.computing, n)
	e.sendBusy = xslice.Grow(e.sendBusy, n)
	e.sendQueue = xslice.Grow(e.sendQueue, n)
	e.transRes = xslice.Grow(e.transRes, n)
	e.share = xslice.Grow(e.share, n)
	for op := 0; op < n; op++ {
		e.procOf[op] = m.OpProc(op)
		e.parentOf[op] = in.Tree.Ops[op].Parent
		e.children[op] = in.Tree.Ops[op].ChildOps
		e.nextCompute[op] = 0
		e.recv[op] = 0
		e.computing[op] = false
		e.sendBusy[op] = false
		e.sendQueue[op] = 0
	}

	e.speed = xslice.Grow(e.speed, np)
	e.nicFree = xslice.Grow(e.nicFree, np)
	e.nicRes = xslice.Grow(e.nicRes, np)
	e.cpuActive = xslice.Grow(e.cpuActive, np)
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

	e.jobs = xslice.Grow(e.jobs, 2*n)
	for i := range e.jobs {
		e.jobs[i] = refJob{}
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
func (e *refEngine) canCompute(op int) bool {
	t := e.nextCompute[op]
	if e.computing[op] {
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

func (e *refEngine) tryStartCompute(op int) {
	if !e.canCompute(op) {
		return
	}
	e.computing[op] = true
	e.cpuActive[e.procOf[op]]++
	e.jobs[op] = refJob{
		result:    e.nextCompute[op],
		remaining: e.m.Inst.W[op],
		updated:   e.now,
		active:    true,
	}
}

// computeDone handles the completion of op's result t.
func (e *refEngine) computeDone(op, t int) {
	e.computing[op] = false
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
func (e *refEngine) tryStartTransfer(op int) {
	if e.sendBusy[op] || e.sendQueue[op] == 0 {
		return
	}
	e.sendBusy[op] = true
	e.sendQueue[op]--
	t := e.nextCompute[op] - 1 - e.sendQueue[op] // oldest unsent result
	n := len(e.nextCompute)
	e.jobs[n+op] = refJob{
		result:    t,
		remaining: e.m.Inst.Delta[op],
		updated:   e.now,
		active:    true,
	}
	e.flowsStale = true
}

func (e *refEngine) transferDone(op, t int) {
	e.sendBusy[op] = false
	par := e.parentOf[op]
	e.recv[op] = t + 1
	e.tryStartCompute(par)
	e.tryStartTransfer(op)
	e.tryStartCompute(op)
}

// reflow settles every active job's progress under its old rate, sets
// its new rate and completion time, and picks the next job to finish.
// Called after any state change. Jobs are visited in table order —
// computes by ascending operator, then transfers — which is exactly the
// (kind, op) order the float accumulation and the tie-breaking (the
// earliest due wins, then the lowest slot) were defined with.
func (e *refEngine) reflow() {
	n := len(e.nextCompute)
	// Transfer rates: max-min over the precomputed NIC and link
	// resources, a pure function of the active transfer set.
	if e.flowsStale {
		e.flowsStale = false
		e.transfers = e.transfers[:0]
		e.flows = e.flows[:0]
		for op := 0; op < n; op++ {
			if e.jobs[n+op].active {
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
	for i := range e.jobs {
		j := &e.jobs[i]
		if !j.active {
			continue
		}
		if j.rate > 0 {
			j.remaining -= j.rate * (now - j.updated)
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		j.updated = now
		if i < n {
			// CPU rates: processor sharing per processor.
			p := e.procOf[i]
			j.rate = e.speed[p] / float64(e.cpuActive[p])
		} else {
			j.rate = e.share[i-n]
		}
		if j.rate <= 0 {
			e.err = fmt.Errorf("stream: refJob stalled at zero rate (op %d)", i%n)
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

// finish advances the clock to job slot idx's completion, retires the
// job and advances the pipeline.
func (e *refEngine) finish(idx int) {
	n := len(e.nextCompute)
	j := &e.jobs[idx]
	e.now = j.due
	j.active = false
	if idx < n {
		e.cpuActive[e.procOf[idx]]--
		e.computeDone(idx, j.result)
	} else {
		e.transferDone(idx-n, j.result)
		// transferDone starts no transfer but this edge's next one, so
		// the active set changed exactly when that did not happen.
		e.flowsStale = !j.active
	}
	e.reflow()
}
