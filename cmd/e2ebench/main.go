// Command e2ebench is the repository's end-to-end benchmark. It builds
// cmd/serve and cmd/sweepworker, runs them as separate processes on
// loopback, drives them from this one generator process with four
// workloads (solve-mix, solve-verify, churn-sessions, sweep-durable),
// checks every answer against an in-process library oracle, and prints
// each metric by name and unit. A traced run also replays the same
// generated operations in-process, one span per call into a module's
// public functions, for the per-layer numbers.
//
// Usage, from the repository root (see README.md):
//
//	bash cmd/e2ebench/run.sh -workload all -seed 1 -o run.json
//	bash cmd/e2ebench/run.sh --workload solve-mix --seed 3 --seconds 15 --trace 1
//	bash cmd/e2ebench/run.sh -compare A1.json A2.json -- B1.json B2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Schema identifies the report layout.
const Schema = "e2ebench/v1"

// workload is one traffic mix of the benchmark.
type workload struct {
	name, why string
	run       func(*runner, context.Context) (*WorkloadReport, error)
}

var workloads = []workload{
	{"solve-mix", "portfolio solves of the cells of the paper's Figures 2(a), 2(b) and 3, paced and closed in turn: heuristics, mapping and selection dominate", (*runner).solveMix},
	{"solve-verify", "small inline solve plus stream-engine verify: JSON decode, validation and simulation dominate, heuristics barely run", (*runner).solveVerify},
	{"churn-sessions", "two live churn sessions replaying pinned event streams: repair, refine and multiapp on HTTP goroutines", (*runner).churnSessions},
	{"sweep-durable", "fig2a sweeps through a durable coordinator and two sweepworkers: journal, leases, shard compute and merge", (*runner).sweepDurable},
}

// Env records what a report was measured on; compare refuses reports
// whose environments differ.
type Env struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS map[string]int    `json:"gomaxprocs"`
	Conns      int               `json:"connections"`
	GoVersion  string            `json:"go_version"`
	Revision   string            `json:"revision,omitempty"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	WarmupS    float64           `json:"warmup_s"`
	Trace      bool              `json:"trace"`
	RunLengths map[string]string `json:"run_lengths"`
}

// Report is the file -o writes.
type Report struct {
	Schema    string            `json:"schema"`
	Env       Env               `json:"env"`
	Workloads []*WorkloadReport `json:"workloads"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// genProcs is the generator's GOMAXPROCS.
func genProcs() int { return runtime.GOMAXPROCS(0) }

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "input seed; the same seed generates the same operations")
		seconds = flag.Int("seconds", 20, "timed window per workload, seconds")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1 or a file path: also replay traced and report per-layer metrics (span file at the path, or under -tmp for 1)")
		out     = flag.String("o", "", "write the full JSON report here")
		src     = flag.String("src", ".", "repository root to build cmd/serve and cmd/sweepworker from")
		bin     = flag.String("bin", "", "directory for the built binaries (default <src>/.bench_build/bin)")
		tmp     = flag.String("tmp", "", "scratch directory for port files and coordinator state (default <src>/.bench_build/tmp)")
		cmp     = flag.Bool("compare", false, "compare reports: -compare A.json... -- B.json...")
		bench   = flag.String("benchmark", "BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Parse()
	if *cmp {
		if err := compareMain(os.Stdout, *bench, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if *bin == "" {
		*bin = filepath.Join(*src, ".bench_build", "bin")
	}
	if *tmp == "" {
		*tmp = filepath.Join(*src, ".bench_build", "tmp")
	}
	var sel []workload
	for _, wl := range workloads {
		if *name == "all" || *name == wl.name {
			sel = append(sel, wl)
		}
	}
	if len(sel) == 0 || *seconds < 1 || (*trace != "0" && *trace == "") {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q or bad -seconds/-trace\n", *name)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, sel, *src, *bin, *tmp, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing report:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(summarize(rep.Workloads, *trace != "0"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run builds the binaries and runs the selected workloads.
func run(ctx context.Context, sel []workload, src, bin, tmp string, seed int64, seconds int, trace string) (*Report, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	for _, d := range []string{bin, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	serveBin, workerBin, err := buildBinaries(src, bin)
	if err != nil {
		return nil, err
	}
	r := &runner{
		l:                &procLauncher{serveBin: serveBin, workerBin: workerBin, tmp: tmp},
		client:           newClient(procs),
		clk:              wallClock{},
		seed:             seed,
		measure:          time.Duration(seconds) * time.Second,
		warmup:           2 * time.Second,
		conns:            procs,
		setups:           25,
		trace:            trace != "0",
		tmp:              tmp,
		log:              os.Stderr,
		sweepJobsPerBoot: 60,
	}
	if r.trace {
		r.spanPath = func(wl string) string {
			if trace == "1" {
				return filepath.Join(tmp, "trace-"+wl+".json")
			}
			if len(sel) > 1 {
				return strings.TrimSuffix(trace, ".json") + "-" + wl + ".json"
			}
			return trace
		}
	}
	rep := &Report{Schema: Schema, Env: environment(r, src, seconds)}
	for _, wl := range sel {
		r.logf("running %s (seed %d, %ds)", wl.name, seed, seconds)
		w, err := wl.run(r, ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		w.finish()
		r.logf("%s: correct=%v attempted=%d failed=%d %s", w.Workload, w.Correct, w.Attempted, w.Failed, formatMetrics(w.Metrics))
		for _, why := range w.Invalid {
			r.logf("%s: invalid run: %s", w.Workload, why)
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// finish folds oracle mismatches into the failure count and settles
// the verdict.
func (w *WorkloadReport) finish() {
	if w.OracleMismatched > 0 {
		w.Failed += w.OracleMismatched
		if w.Failures == nil {
			w.Failures = map[string]int{}
		}
		w.Failures[outcomeNames[outWrong]] += w.OracleMismatched
	}
	w.Correct = w.correct()
}

// summarize builds the last output line. With one workload the metric
// names are bare; with several they carry the workload as a prefix.
func summarize(ws []*WorkloadReport, trace bool) result {
	res := result{Correct: true, Metrics: map[string]Metric{}}
	for _, w := range ws {
		res.Correct = res.Correct && w.Correct
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.Workload + "."
		}
		if trace {
			for _, l := range perLayer {
				res.Metrics[prefix+l.name] = Metric{Value: w.Layers[l.name].Value, Unit: l.unit}
			}
			continue
		}
		for _, m := range endToEnd {
			res.Metrics[prefix+m.name] = w.Metrics[m.name]
		}
	}
	return res
}

func formatMetrics(ms map[string]Metric) string {
	var b strings.Builder
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "%s=%.4g %s ", m.name, ms[m.name].Value, ms[m.name].Unit)
	}
	return strings.TrimSpace(b.String())
}

// environment records nproc, every process's GOMAXPROCS, the toolchain,
// the revision when src is a git checkout, and the pinned run lengths.
func environment(r *runner, src string, seconds int) Env {
	m := r.measure
	env := Env{
		NumCPU: runtime.NumCPU(),
		GOMAXPROCS: map[string]int{
			"generator": genProcs(), "serve": runtime.NumCPU(), "sweepworker": 1,
		},
		Conns:     r.conns,
		GoVersion: runtime.Version(),
		Seed:      r.seed,
		Seconds:   seconds,
		WarmupS:   r.warmup.Seconds(),
		Trace:     r.trace,
		RunLengths: map[string]string{
			"solve-mix": fmt.Sprintf("%d cycles of an open loop %v at %d/s (%d latency slices) and a closed loop %v on %d connections (one throughput slice), %d cells",
				m/solveMixCycle, solveMixCycle*3/4, solveMixRate, solveMixPacedSlices, solveMixCycle/4, r.conns, len(solveMixCells())),
			"solve-verify": fmt.Sprintf("closed loop %v on %d connections (1 s slices), %d instances", m, r.conns, verifyPool),
			"churn-sessions": fmt.Sprintf("closed loop %v (1 s slices), %d sessions of %d scenarios of %d events",
				m, churnSessions, churnLifetimes, churnEvents),
			"sweep-durable": fmt.Sprintf("closed loop of %s jobs (%d seeds, %d shards) for %v, %d workers, %d jobs per boot, %d jobs per slice",
				sweepFigure, sweepSeeds, sweepShards, m, sweepWorkers, r.sweepJobsPerBoot, sweepSliceJobs),
			"setup": fmt.Sprintf("median of %d boots", r.setups),
		},
	}
	if _, err := os.Stat(filepath.Join(src, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", src, "rev-parse", "HEAD").Output(); err == nil {
			env.Revision = strings.TrimSpace(string(b))
		}
	}
	return env
}
