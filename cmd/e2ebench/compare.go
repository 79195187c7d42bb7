package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
)

var errUsage = errors.New("usage: e2ebench -compare A.json... -- B.json...")

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// comparison is one (workload, metric) row of a compare.
type comparison struct {
	workload, metric string
	a, b             [3]float64 // Q1, median, Q3 of each side
	worse            float64    // share by which B's median is worse than A's; for failed_frac their difference
	bound            float64
	wins, pairs      int
	verdict          string
}

// compareMain compares the reports before "--" (A, the parent) with
// those after it (B, the change), pairing runs by position.
func compareMain(w io.Writer, benchPath string, args []string) error {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		return errUsage
	}
	as, err := loadReports(args[:i])
	if err != nil {
		return err
	}
	bs, err := loadReports(args[i+1:])
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	rows, err := compareReports(as, bs, bf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-17s %28s %28s %8s %6s %6s  %s\n", "workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]", "worse", "bound", "wins", "verdict")
	regressed := 0
	for _, c := range rows {
		fmt.Fprintf(w, "%-15s %-17s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %5.0f%% %3d/%-2d  %s\n",
			c.workload, c.metric, c.a[1], c.a[0], c.a[2], c.b[1], c.b[0], c.b[2], 100*c.worse, 100*c.bound, c.wins, c.pairs, c.verdict)
		if c.verdict == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

func loadReports(paths []string) ([]*Report, error) {
	var out []*Report
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != Schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, Schema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// comparable refuses reports measured under different conditions: the
// machine's CPU count, any process's GOMAXPROCS, the connection cap or
// the pinned run lengths must agree everywhere, and paired runs must
// share their seed.
func comparable(as, bs []*Report) error {
	if len(as) != len(bs) {
		return fmt.Errorf("refusing: %d parent reports against %d change reports; runs are compared in pairs", len(as), len(bs))
	}
	ref := as[0].Env
	for i, r := range append(slices.Clone(as), bs...) {
		e := r.Env
		switch {
		case e.NumCPU != ref.NumCPU:
			return fmt.Errorf("refusing: nproc %d differs from %d", e.NumCPU, ref.NumCPU)
		case !reflect.DeepEqual(e.GOMAXPROCS, ref.GOMAXPROCS) || e.Conns != ref.Conns:
			return fmt.Errorf("refusing: GOMAXPROCS %v/%d connections differ from %v/%d", e.GOMAXPROCS, e.Conns, ref.GOMAXPROCS, ref.Conns)
		case e.Seconds != ref.Seconds || e.WarmupS != ref.WarmupS || !reflect.DeepEqual(e.RunLengths, ref.RunLengths):
			return fmt.Errorf("refusing: run lengths differ (report %d)", i)
		}
	}
	for i := range as {
		if as[i].Env.Seed != bs[i].Env.Seed {
			return fmt.Errorf("refusing: pair %d ran seeds %d and %d", i, as[i].Env.Seed, bs[i].Env.Seed)
		}
	}
	return nil
}

// compareReports builds one row per (workload, end-to-end metric), after
// a failed_frac row per workload: no timing counts while the change
// fails more operations than the parent.
func compareReports(as, bs []*Report, bf benchmarkFile) ([]comparison, error) {
	if err := comparable(as, bs); err != nil {
		return nil, err
	}
	var rows []comparison
	for _, wr := range as[0].Workloads {
		a, err := workloadRuns(as, wr.Workload)
		if err != nil {
			return nil, err
		}
		for i, w := range a {
			if !w.Correct || len(w.Invalid) > 0 {
				return nil, fmt.Errorf("refusing: parent run %d of %s is not a valid measurement (correct=%v, invalid %q)", i, wr.Workload, w.Correct, w.Invalid)
			}
		}
		b, err := workloadRuns(bs, wr.Workload)
		if err != nil {
			return nil, err
		}
		fails := judgeFailures(wr.Workload, a, b)
		rows = append(rows, fails)
		for _, m := range bf.EndToEnd {
			av, err := metricValues(a, m.Name)
			if err != nil {
				return nil, err
			}
			bv, err := metricValues(b, m.Name)
			if err != nil {
				return nil, err
			}
			c := judge(wr.Workload, m.Name, m.Better == "higher", m.Bound, av, bv)
			if fails.verdict == "regressed" && c.verdict == "improved" {
				c.verdict = "void: more failures"
			}
			rows = append(rows, c)
		}
	}
	return rows, nil
}

// workloadRuns returns each report's run of workload.
func workloadRuns(rs []*Report, workload string) ([]*WorkloadReport, error) {
	var out []*WorkloadReport
	for _, r := range rs {
		i := slices.IndexFunc(r.Workloads, func(w *WorkloadReport) bool { return w.Workload == workload })
		if i < 0 {
			return nil, fmt.Errorf("a report lacks workload %s", workload)
		}
		out = append(out, r.Workloads[i])
	}
	return out, nil
}

func metricValues(runs []*WorkloadReport, metric string) ([]float64, error) {
	var out []float64
	for _, w := range runs {
		m, ok := w.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("a %s report lacks metric %s", w.Workload, metric)
		}
		out = append(out, m.Value)
	}
	return out, nil
}

// judgeFailures is the failed_frac row of a workload: failed operations
// over attempted ones, compared pair by pair with a bound of 0. The
// change regresses when any of its runs fails a larger share than its
// paired parent run, is not correct, or is marked invalid. worse is the
// difference of the medians in absolute terms.
func judgeFailures(workload string, a, b []*WorkloadReport) comparison {
	frac := func(w *WorkloadReport) float64 { return float64(w.Failed) / float64(max(1, w.Attempted)) }
	c := comparison{workload: workload, metric: "failed_frac", pairs: len(a), verdict: "within bound"}
	fa, fb := make([]float64, len(a)), make([]float64, len(b))
	for i := range a {
		fa[i], fb[i] = frac(a[i]), frac(b[i])
		switch {
		case fb[i] > fa[i] || !b[i].Correct || len(b[i].Invalid) > 0:
			c.verdict = "regressed"
		case fb[i] < fa[i]:
			c.wins++
		}
	}
	c.a[0], c.a[1], c.a[2] = quartiles(fa)
	c.b[0], c.b[1], c.b[2] = quartiles(fb)
	c.worse = c.b[1] - c.a[1]
	return c
}

// judge applies the claim rules to paired samples a (parent) and b
// (change):
//   - improved: b wins at least 9/10 of the pairs, ties counting for
//     neither, and the medians differ by more than a's quartile spread;
//   - unresolved: either side's quartile spread exceeds the bound,
//     unless every b run is better than every a run;
//   - regressed: b's median is worse than a's by more than the bound;
//   - otherwise within bound.
func judge(workload, metric string, higher bool, bound float64, a, b []float64) comparison {
	c := comparison{workload: workload, metric: metric, bound: bound, pairs: len(a)}
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	c.worse = (c.b[1] - c.a[1]) / c.a[1]
	if higher {
		c.worse = -c.worse
	}
	spread := math.Max((c.a[2]-c.a[0])/c.a[1], (c.b[2]-c.b[0])/c.b[1])
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case 10*c.wins >= 9*c.pairs && math.Abs(c.b[1]-c.a[1]) > c.a[2]-c.a[0] && better(c.b[1], c.a[1]):
		c.verdict = "improved"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within bound"
	}
	return c
}
