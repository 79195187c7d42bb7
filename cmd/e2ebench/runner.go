package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"syscall"
	"time"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// WorkloadReport is everything one workload run measured.
type WorkloadReport struct {
	Workload  string         `json:"workload"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  map[string]int `json:"failures,omitempty"`
	// Samples is the smaller of the latency sample counts behind p50_ms
	// and tail_ms, each the pooled fastest quarter of the Slices slices
	// of the timed window. TailQuantile is the quantile tail_ms reports.
	Samples      int     `json:"latency_samples"`
	Slices       int     `json:"slices"`
	TailQuantile float64 `json:"tail_quantile"`
	// The per-slice values the fastest quarters are picked by, in window
	// order; slices without a latency sample are left out of the first
	// two.
	SliceP50  []float64 `json:"slice_p50_ms"`
	SliceTail []float64 `json:"slice_tail_ms"`
	SliceRate []float64 `json:"slice_ops_s"`
	// OracleChecked operations were compared against the in-process
	// library oracle; OracleMismatched of them disagreed (and count as
	// failed).
	OracleChecked    int      `json:"oracle_checked"`
	OracleMismatched int      `json:"oracle_mismatched"`
	Mismatches       []string `json:"mismatches,omitempty"`
	// Invalid lists reasons the run does not measure the system under
	// test, such as a generator that fell behind its schedule.
	Invalid []string          `json:"invalid,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
	Layers  map[string]Metric `json:"layers,omitempty"`
	// TraceVoid is set when the traced replay disagreed with the library
	// (or with the daemon's answers); its per-layer numbers are then
	// meaningless and the run is not correct.
	TraceVoid bool        `json:"trace_void,omitempty"`
	Spans     []*spanStat `json:"spans,omitempty"`
}

func newReport(name string) *WorkloadReport {
	return &WorkloadReport{Workload: name, Metrics: map[string]Metric{}, Layers: map[string]Metric{}}
}

// correct reports whether every checked answer matched its oracle and
// the traced replay, if any, held.
func (w *WorkloadReport) correct() bool {
	return w.OracleMismatched == 0 && !w.TraceVoid && w.OracleChecked > 0
}

func (w *WorkloadReport) voidTrace(err error) {
	w.TraceVoid = true
	w.Invalid = append(w.Invalid, "trace void: "+err.Error())
}

// count folds the recorders' attempts, failures and failure kinds into
// the report.
func (w *WorkloadReport) count(recs ...*recorder) {
	for _, rec := range recs {
		a, f := rec.tally()
		w.Attempted += a
		w.Failed += f
		rec.mu.Lock()
		for oc := outcome(1); oc < numOutcomes; oc++ {
			if c := rec.counts[oc]; c > 0 {
				if w.Failures == nil {
					w.Failures = map[string]int{}
				}
				w.Failures[outcomeNames[oc]] += c
			}
		}
		rec.mu.Unlock()
	}
}

// mismatch records one oracle disagreement, keeping the first few
// messages for the report.
func (w *WorkloadReport) mismatch(format string, args ...any) {
	w.OracleMismatched++
	if len(w.Mismatches) < 8 {
		w.Mismatches = append(w.Mismatches, fmt.Sprintf(format, args...))
	}
}

// set records an end-to-end metric; layer a per-layer one. A value
// that could not be measured (no samples, no process) reads 0, since
// JSON has no NaN.
func (w *WorkloadReport) set(name string, v float64, unit string) {
	w.Metrics[name] = metric(v, unit)
}

func (w *WorkloadReport) layer(name string, v float64, unit string) {
	w.Layers[name] = metric(v, unit)
}

func metric(v float64, unit string) Metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return Metric{Value: v, Unit: unit}
}

// runner carries the settings every workload shares.
type runner struct {
	l       launcher
	client  *http.Client
	clk     clock
	seed    int64
	measure time.Duration // timed window per workload
	warmup  time.Duration // untimed warm-up per workload
	conns   int           // closed-loop connections and transport cap
	setups  int           // daemon boots per run behind setup_s
	trace   bool
	// spanPath names the span file of a workload's traced replay; nil
	// writes none.
	spanPath func(workload string) string
	tmp      string
	log      io.Writer
	// sweepJobsPerBoot bounds the measured jobs per coordinator
	// lifetime (it retains at most 64 jobs, finished ones included).
	sweepJobsPerBoot int
}

func (r *runner) logf(format string, args ...any) {
	if r.log != nil {
		fmt.Fprintf(r.log, "e2ebench: "+format+"\n", args...)
	}
}

// newClient returns the generator's HTTP client: at most conns
// connections to the daemon, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// opTimeout bounds every benchmark request; beyond it the request counts
// as a timeout failure.
const opTimeout = 30 * time.Second

// do issues one request and reads the whole answer.
func (r *runner) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// boot starts the system under test n times and keeps the last one
// running. stateDir, when set, names a fresh durable coordinator
// directory per boot; ready, when set, finishes the set-up on each boot
// (churn sessions are created there) and counts toward its time.
// Returns the running system and every boot's set-up time in seconds.
func (r *runner) boot(ctx context.Context, n int, stateDir func() (string, error), sweepWorkers int, ready func(*sut) error) (*sut, []float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		dir := ""
		if stateDir != nil {
			var err error
			if dir, err = stateDir(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		s, err := r.l.start(ctx, dir, sweepWorkers)
		if err != nil {
			return nil, nil, err
		}
		if ready != nil {
			if err := ready(s); err != nil {
				s.stop()
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == n-1 {
			return s, setups, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no set-up runs configured")
}

// probe is a point-in-time reading of the daemon and the generator.
type probe struct {
	at        time.Time
	st        *statsz
	serverCPU time.Duration
	workerCPU time.Duration
	genCPU    time.Duration
}

func (r *runner) probe(ctx context.Context, s *sut) (probe, error) {
	p := probe{at: time.Now(), genCPU: selfCPU()}
	st, err := fetchStatsz(ctx, r.client, s.url)
	if err != nil {
		return p, err
	}
	p.st = st
	if s.serverPID != 0 {
		if p.serverCPU, err = procCPU(s.serverPID); err != nil {
			return p, err
		}
	}
	for _, pid := range s.workerPIDs {
		c, err := procCPU(pid)
		if err != nil {
			return p, err
		}
		p.workerCPU += c
	}
	return p, nil
}

// selfCPU is the generator process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the largest VmHWM among the system's processes, in MiB;
// NaN for an in-process system.
func peakRSS(s *sut) float64 {
	if s.serverPID == 0 {
		return math.NaN()
	}
	peak := 0.0
	for _, pid := range append([]int{s.serverPID}, s.workerPIDs...) {
		if mb, err := procPeakRSSMB(pid); err == nil && mb > peak {
			peak = mb
		}
	}
	return peak
}

// httpRTT is the median of sequential loopback GET /healthz round trips
// on the generator's client, in microseconds.
func (r *runner) httpRTT(ctx context.Context, s *sut) float64 {
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if status, _, err := r.do(ctx, http.MethodGet, s.url+"/healthz", nil); err != nil || status != http.StatusOK {
			continue
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// daemonLayers records the per-layer metrics read from outside the
// daemon across the timed window: /statsz deltas, process CPU and the
// generator's own health. ops is the number of operations the window
// completed.
func (r *runner) daemonLayers(w *WorkloadReport, s *sut, before, after probe, ops, jobs int) {
	b, a := before.st, after.st
	reqs := float64(a.SolveRequests - b.SolveRequests)
	var solves float64
	maxJobs, sumJobs := 0.0, 0.0
	for i := range a.PerWorker {
		solves += float64(a.PerWorker[i].Solves - b.PerWorker[i].Solves)
		j := float64(a.PerWorker[i].Jobs - b.PerWorker[i].Jobs)
		sumJobs += j
		maxJobs = math.Max(maxJobs, j)
	}
	w.layer("serve.solves_per_request", solves/reqs, "count")
	skew := 0.0
	if sumJobs > 0 {
		skew = maxJobs / (sumJobs / float64(len(a.PerWorker)))
	}
	w.layer("serve.worker_skew", skew, "ratio")
	w.addLayer("serve.rejected_429", float64(a.Rejected429-b.Rejected429), "count")
	w.addLayer("serve.timeouts", float64(a.Timeouts-b.Timeouts), "count")
	w.addLayer("serve.server_errors", float64(a.ServerErrors-b.ServerErrors), "count")
	if !r.l.inProcess() {
		w.addLayer("proc.server_cpu_us", float64((after.serverCPU - before.serverCPU).Microseconds()), "us")
		w.addLayer("proc.worker_cpu_us", float64((after.workerCPU - before.workerCPU).Microseconds()), "us")
	}
	w.addLayer("gen.cpu_us", float64((after.genCPU - before.genCPU).Microseconds()), "us")
	w.addLayer("gen.wall_us", float64(after.at.Sub(before.at).Microseconds()), "us")
	w.addLayer("gen.ops", float64(ops), "count")
	w.addLayer("coord.jobs", float64(jobs), "count")
	sb, sa := b.Sweep, a.Sweep
	w.addLayer("coord.releases", float64(sa.Releases-sb.Releases), "count")
	w.addLayer("coord.duplicates", float64(sa.Duplicates-sb.Duplicates), "count")
	w.addLayer("coord.journal_appends", float64(sa.JournalAppends-sb.JournalAppends), "count")
	w.addLayer("coord.journal_syncs", float64(sa.JournalSyncs-sb.JournalSyncs), "count")
	w.addLayer("coord.snapshots", float64(sa.Snapshots-sb.Snapshots), "count")
}

// addLayer accumulates a raw per-layer total; finishLayers turns the
// totals into the reported ratios once every boot has been added.
func (w *WorkloadReport) addLayer(name string, v float64, unit string) {
	m := w.Layers[name]
	m.Value += v
	m.Unit = unit
	w.Layers[name] = m
}

// finishLayers derives the per-operation ratios from the raw totals the
// daemon phases accumulated, then drops the totals.
func (w *WorkloadReport) finishLayers() {
	get := func(name string) float64 { return w.Layers[name].Value }
	ops, jobs := get("gen.ops"), get("coord.jobs")
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	w.layer("proc.server_cpu_us_per_op", per(get("proc.server_cpu_us"), ops), "us")
	w.layer("proc.worker_cpu_us_per_job", per(get("proc.worker_cpu_us"), jobs), "us")
	w.layer("gen.cpu_frac", per(get("gen.cpu_us"), get("gen.wall_us")*float64(genProcs())), "ratio")
	w.layer("coord.journal_appends_per_job", per(get("coord.journal_appends"), jobs), "count")
	w.layer("coord.journal_syncs_per_job", per(get("coord.journal_syncs"), jobs), "count")
	w.layer("coord.snapshots_per_job", per(get("coord.snapshots"), jobs), "count")
	for _, raw := range []string{"proc.server_cpu_us", "proc.worker_cpu_us", "gen.cpu_us", "gen.wall_us",
		"gen.ops", "coord.jobs", "coord.journal_appends", "coord.journal_syncs", "coord.snapshots"} {
		delete(w.Layers, raw)
	}
}

// latencyMetrics fills p50_ms and tail_ms from per-slice sorted
// latencies. Each is taken over the pooled samples of the fastest
// quarter of the slices by that quantile (see fastestQuarter): a slice
// whose median is low can still hold a stall that sets its tail. A pool
// with fewer than minBeyond samples beyond the tail quantile marks the
// run invalid.
func (w *WorkloadReport) latencyMetrics(groups [][]float64, tailQ float64) {
	w.Slices = len(groups)
	w.TailQuantile = tailQ
	w.SliceP50, w.SliceTail = nil, nil
	var live [][]float64
	for _, g := range groups {
		if len(g) > 0 {
			live = append(live, g)
			w.SliceP50 = append(w.SliceP50, quantile(g, 0.5))
			w.SliceTail = append(w.SliceTail, quantile(g, tailQ))
		}
	}
	pooled := func(perSlice []float64, q float64) (float64, int) {
		var pool []float64
		for _, k := range fastestQuarter(perSlice, false) {
			pool = append(pool, live[k]...)
		}
		sort.Float64s(pool)
		return quantile(pool, q), len(pool)
	}
	p50, n := pooled(w.SliceP50, 0.5)
	tail, nTail := pooled(w.SliceTail, tailQ)
	w.Samples = min(n, nTail)
	if samplesBeyond(nTail, tailQ) < minBeyond {
		w.Invalid = append(w.Invalid, fmt.Sprintf("the fastest quarter of the slices leaves %d latency samples beyond p%g, fewer than %d", samplesBeyond(nTail, tailQ), tailQ*100, minBeyond))
	}
	w.set("p50_ms", p50, "ms")
	w.set("tail_ms", tail, "ms")
}

// throughputMetric sets throughput_ops_s from the successful operations
// each slice completed: their total over the slices with the fastest
// quarter of rates, per second of those slices.
func (w *WorkloadReport) throughputMetric(groups [][]float64, secs func(slice int) float64) {
	w.SliceRate = make([]float64, len(groups))
	for k, g := range groups {
		w.SliceRate[k] = float64(len(g)) / secs(k)
	}
	ops, t := 0.0, 0.0
	for _, k := range fastestQuarter(w.SliceRate, true) {
		ops += float64(len(groups[k]))
		t += secs(k)
	}
	w.set("throughput_ops_s", ops/t, "1/s")
}

// closedWindow runs op on clients closed-loop clients for the timed
// window, cut into 1 s slices, and fills the report's counts, throughput
// and latency. op runs and records operation first+i of client c.
func (r *runner) closedWindow(ctx context.Context, w *WorkloadReport, clients, first int, op func(rec *recorder, c, i int)) {
	slice, n := slicing(r.measure, time.Second)
	rec := newRecorder(r.clk.Now(), slice)
	runClosed(ctx, r.clk, clients, r.measure, func(c, i int) { op(rec, c, first+i) })
	w.count(rec)
	groups := rec.slices(n)
	w.throughputMetric(groups, every(slice))
	w.latencyMetrics(groups, 0.99)
}

// every returns a slice-length function for equal slices.
func every(d time.Duration) func(int) float64 {
	return func(int) float64 { return d.Seconds() }
}

// genHealth flags a run whose generator, not the system under test,
// was the bottleneck: an open loop that sent late, or a generator that
// used nearly all of its CPUs.
func (w *WorkloadReport) genHealth(late []float64) {
	p99 := 0.0
	if len(late) > 0 {
		p99 = quantile(late, 0.99)
	}
	w.layer("gen.late_p99_ms", p99, "ms")
	if p99 > 5 {
		w.Invalid = append(w.Invalid, fmt.Sprintf("generator sent p99 %.1f ms late", p99))
	}
	if f := w.Layers["gen.cpu_frac"].Value; f > 0.9 {
		w.Invalid = append(w.Invalid, fmt.Sprintf("generator used %.0f%% of its CPUs", 100*f))
	}
}
