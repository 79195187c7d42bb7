package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/rng"
)

// span is one timed call. Spans live in a preallocated slice and are
// written out when the run ends; name indexes tracer.names and parent
// is the index of the calling span (-1 for an operation's root).
type span struct {
	name       uint16
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records the replay's spans: one root per replayed operation
// and, when children is set, one child per call into a module's public
// functions. It is single-threaded, like the replay.
type tracer struct {
	epoch    time.Time
	names    []string
	nameIdx  map[string]uint16
	spans    []span
	open     []int32
	children bool
}

func newTracer(capacity int, children bool) *tracer {
	return &tracer{
		epoch:    time.Now(),
		nameIdx:  map[string]uint16{},
		spans:    make([]span, 0, capacity),
		children: children,
	}
}

func (t *tracer) intern(name string) uint16 {
	if i, ok := t.nameIdx[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = i
	return i
}

// full reports whether the span buffer is exhausted; the replay stops
// at the next operation boundary rather than grow it mid-measurement.
func (t *tracer) full() bool { return len(t.spans)+64 > cap(t.spans) }

// begin opens a span under the innermost open one. Child spans are
// skipped (id -1) when the tracer records roots only.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		if !t.children {
			return -1
		}
		parent = t.open[n-1]
	}
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: t.intern(name), parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// endAs closes span id under a name decided by the call's result.
func (t *tracer) endAs(id int32, name string) {
	if id >= 0 {
		t.spans[id].name = t.intern(name)
	}
	t.end(id)
}

func (s *span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanStat summarises every span of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50us   float64 `json:"p50_us"`
	SelfP50 float64 `json:"self_p50_us"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_total_us"`
	durs    []float64
}

// stats groups the spans by name. A span's self time is its duration
// minus the durations of its direct children.
func (t *tracer) stats() map[string]*spanStat {
	childSum := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			childSum[p] += t.spans[i].end - t.spans[i].start
		}
	}
	out := map[string]*spanStat{}
	selfs := map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		name := t.names[s.name]
		st := out[name]
		if st == nil {
			st = &spanStat{Name: name}
			out[name] = st
		}
		d := float64(s.end-s.start) / 1e3
		self := float64(s.end-s.start-childSum[i]) / 1e3
		st.Count++
		st.TotalUs += d
		st.SelfUs += self
		st.durs = append(st.durs, d)
		selfs[name] = append(selfs[name], self)
	}
	for name, st := range out {
		st.P50us = median(st.durs)
		st.SelfP50 = median(selfs[name])
	}
	return out
}

// rootDurations returns the duration of every root span in order, in
// microseconds.
func (t *tracer) rootDurations() []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].parent < 0 {
			out = append(out, float64(t.spans[i].dur().Nanoseconds())/1e3)
		}
	}
	return out
}

// childSumsByRoot returns, per root span in order, the summed duration
// of its descendants named name, in microseconds.
func (t *tracer) childSumsByRoot(name string) []float64 {
	idx, ok := t.nameIdx[name]
	var out []float64
	rootOf := make([]int32, len(t.spans))
	rootPos := map[int32]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent < 0 {
			rootOf[i] = int32(i)
			rootPos[int32(i)] = len(out)
			out = append(out, 0)
			continue
		}
		rootOf[i] = rootOf[s.parent]
		if ok && s.name == idx {
			out[rootPos[rootOf[i]]] += float64(s.dur().Nanoseconds()) / 1e3
		}
	}
	return out
}

// write stores the spans as JSON: the name table plus one
// [name, parent, start_ns, end_ns] row per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	names, _ := json.Marshal(t.names)
	fmt.Fprintf(bw, "{\"names\":%s,\"spans\":[", names)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "[%d,%d,%d,%d]", s.name, s.parent, s.start, s.end)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the per-span summary: count, p50 and self time.
func printTable(w io.Writer, workload string, st map[string]*spanStat) {
	fmt.Fprintf(w, "\n%s: spans by name\n%-44s %8s %12s %12s %14s\n", workload, "span", "count", "p50_us", "self_p50_us", "self_total_ms")
	for _, name := range slices.Sorted(maps.Keys(st)) {
		s := st[name]
		fmt.Fprintf(w, "%-44s %8d %12.1f %12.1f %14.2f\n", name, s.Count, s.P50us, s.SelfP50, s.SelfUs/1e3)
	}
}

// counters are the replay's per-layer work counts (attempts, outcomes).
type counters map[string]float64

// pipeline replays heuristics.SolveContext.Solve stage by stage through
// the modules' public functions, one span per call, on a reused
// PlaceContext and arena mapping.
type pipeline struct {
	pc heuristics.PlaceContext
	m  *mapping.Mapping
}

// solve runs heuristic h on in with the request seed and returns the
// validated mapping (owned by the pipeline until its next solve). Its
// errors read like SolveContext.Solve's, so a rendered answer matches
// the daemon's byte for byte.
func (p *pipeline) solve(tr *tracer, ctr counters, in *instance.Instance, h heuristics.Heuristic, seed int64) (*mapping.Mapping, error) {
	root := tr.begin("heuristics.pipeline")
	defer tr.end(root)
	ctr["heuristics.pipelines"]++
	id := tr.begin("heuristics.Precheck")
	err := heuristics.Precheck(in)
	tr.end(id)
	if err != nil {
		ctr["heuristics.precheck_rejects"]++
		return nil, err
	}
	if p.m == nil {
		p.m = mapping.New(in)
	} else {
		p.m.Reset(in)
	}
	m := p.m
	name := h.Name()
	id = tr.begin("heuristics.Place/" + name)
	err = h.Place(&p.pc, m, rng.Derive(seed, "heuristic:"+name))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s placement: %w", name, err)
	}
	if !m.Complete() {
		return nil, fmt.Errorf("%s placement left operators unassigned: %w", name, heuristics.ErrInfeasible)
	}
	for q := range m.Procs {
		if m.Procs[q].Alive && m.NumOpsOn(q) == 0 {
			m.Sell(q)
		}
	}
	id = tr.begin("heuristics.SelectServers")
	if _, random := h.(heuristics.Random); random {
		err = heuristics.SelectServersRandom(m, rng.Derive(seed, "selection:"+name))
	} else {
		err = heuristics.SelectServersThreeLoop(m)
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s server selection: %w", name, err)
	}
	if !in.Platform.Catalog.Homogeneous() {
		id = tr.begin("heuristics.Downgrade")
		err = heuristics.Downgrade(m)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s downgrade: %w", name, err)
		}
	}
	id = tr.begin("mapping.Mapping.Validate")
	err = m.Validate()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s produced an invalid mapping: %v", name, err)
	}
	ctr["heuristics.feasible"]++
	return m, nil
}

// overheadPass is how many leading operations the roots-only pass
// replays to measure what child spans cost.
const overheadPass = 200

// replayPass replays a workload's generated operations in order into
// tr, stopping after limit operations or at deadline. An error means
// the replay disagreed with the library and the trace is void.
type replayPass func(tr *tracer, ctr counters, limit int, deadline time.Time) error

// runReplay runs the traced replay: a roots-only pass over the first
// operations for the tracing overhead, then the children-on pass the
// per-layer metrics come from. library names the spans a request's
// serve.Server.ServeHTTP span also contains, so their difference is
// the handler's own cost. It returns the children-on tracer, or nil when
// the replay disagreed and the trace is void.
func (r *runner) runReplay(w *WorkloadReport, pass replayPass, library []string) (*tracer, error) {
	off := newTracer(overheadPass*64, false)
	if err := pass(off, counters{}, overheadPass, time.Now().Add(r.measure/8)); err != nil {
		w.voidTrace(err)
		return nil, nil
	}
	on := newTracer(1<<20, true)
	ctr := counters{}
	if err := pass(on, ctr, math.MaxInt, time.Now().Add(r.measure/2)); err != nil {
		w.voidTrace(err)
		return nil, nil
	}
	layerMetrics(w, on, off, ctr)

	handler := on.childSumsByRoot("serve.Server.ServeHTTP")
	lib := make([]float64, len(handler))
	for _, name := range library {
		for i, v := range on.childSumsByRoot(name) {
			lib[i] += v
		}
	}
	var extra []float64
	for i, h := range handler {
		if h > 0 {
			extra = append(extra, h-lib[i])
		}
	}
	w.layer("serve.handler_extra_us", median(extra), "us")

	st := on.stats()
	if r.log != nil {
		printTable(r.log, w.Workload, st)
	}
	w.Spans = sortedStats(st)
	if r.spanPath != nil {
		path := r.spanPath(w.Workload)
		if err := on.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("%s: wrote %d spans to %s", w.Workload, len(on.spans), path)
	}
	return on, nil
}

// layerMetrics derives the per-layer metrics from a children-on replay
// (st, tr), its roots-only twin (off) and the replay's counters.
func layerMetrics(w *WorkloadReport, tr, off *tracer, ctr counters) {
	st := tr.stats()
	p50 := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.P50us
		}
		return 0
	}
	total := func(prefix string) float64 {
		t := 0.0
		for name, s := range st {
			if name == prefix || strings.HasPrefix(name, prefix+"/") {
				t += s.TotalUs
			}
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	w.layer("instance.generate_us", p50("instance.Generator.Generate"), "us")
	w.layer("bounds.lower_bound_us", p50("bounds.CostLowerBound"), "us")
	w.layer("heuristics.precheck_us", p50("heuristics.Precheck"), "us")
	var place []float64
	for _, h := range heuristics.All() {
		if s := st["heuristics.Place/"+h.Name()]; s != nil {
			place = append(place, s.durs...)
		}
		w.layer("heuristics.place_us."+h.Name(), p50("heuristics.Place/"+h.Name()), "us")
	}
	w.layer("heuristics.place_us", median(place), "us")
	w.layer("heuristics.select_us", p50("heuristics.SelectServers"), "us")
	w.layer("heuristics.downgrade_us", p50("heuristics.Downgrade"), "us")
	w.layer("heuristics.precheck_reject_frac", ratio(ctr["heuristics.precheck_rejects"], ctr["heuristics.pipelines"]), "ratio")
	w.layer("heuristics.feasible_frac", ratio(ctr["heuristics.feasible"], ctr["heuristics.pipelines"]), "ratio")
	w.layer("mapping.validate_us", p50("mapping.Mapping.Validate"), "us")
	w.layer("mapping.validate_share", ratio(total("mapping.Mapping.Validate"), total("heuristics.pipeline")), "ratio")

	w.layer("stream.simulate_us", p50("stream.Runner.Simulate"), "us")
	w.layer("stream.analytic_us", p50("stream.AnalyticMaxThroughput"), "us")
	w.layer("stream.events_per_sim", ratio(ctr["stream.events"], ctr["stream.sims"]), "count")

	w.layer("serve.decode_us", p50("serve.decode"), "us")
	w.layer("serve.render_us", p50("serve.render"), "us")

	for _, oc := range []string{"repaired", "resolved", "rejected"} {
		w.layer("churn.step_us."+oc, p50("churn.Engine.Step/"+oc), "us")
		w.layer("churn."+oc+"_frac", ratio(ctr["churn."+oc], ctr["churn.events"]), "ratio")
	}
	w.layer("churn.resolve_us", p50("churn.resolve"), "us")
	w.layer("churn.create_ms", p50("churn.Engine.Start")/1e3, "ms")
	w.layer("churn.moved_per_event", ratio(ctr["churn.moved"], ctr["churn.events"]), "count")
	w.layer("multiapp.combine_us", p50("multiapp.Combine"), "us")
	w.layer("refine.improve_us", p50("refine.Improve"), "us")

	w.layer("coord.submit_us", p50("coord.Coordinator.Submit"), "us")
	w.layer("coord.claim_us", p50("coord.Coordinator.Claim"), "us")
	w.layer("coord.complete_us", p50("coord.Coordinator.Complete"), "us")
	w.layer("coord.journal_us", p50("coord.Coordinator.Complete")-p50("coord.Coordinator.Complete/memory"), "us")
	w.layer("experiments.shard_ms", p50("experiments.RunFigureShard")/1e3, "ms")
	w.layer("experiments.encode_us", p50("experiments.ShardCells.Encode"), "us")
	w.layer("experiments.merge_ms", p50("experiments.MergeFigure")/1e3, "ms")

	roots := tr.rootDurations()
	offRoots := off.rootDurations()
	n := min(len(roots), len(offRoots))
	on, base := median(roots[:n]), median(offRoots[:n])
	w.layer("trace.overhead_frac", ratio(on-base, base), "ratio")
	w.layer("trace.spans", float64(len(tr.spans)), "count")
	w.layer("trace.ops", float64(len(roots)), "count")
}

// sortedStats lists span summaries by name, for the report file.
func sortedStats(st map[string]*spanStat) []*spanStat {
	out := make([]*spanStat, 0, len(st))
	for _, name := range slices.Sorted(maps.Keys(st)) {
		out = append(out, st[name])
	}
	return out
}
