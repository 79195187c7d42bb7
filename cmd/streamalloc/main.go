// Command streamalloc solves one instance of the constructive in-network
// stream processing problem and reports the purchased platform.
//
// Usage:
//
//	streamalloc [-n N] [-alpha A] [-seed S] [-in FILE] [-heuristic NAME|all] [-verify] [-workers W] [-batch B]
//
// With -in the instance is loaded from JSON (see cmd/gentree); otherwise a
// random instance is generated with the paper's defaults. With -verify the
// best mapping runs on the stream engine: the command prints the analytic
// and measured throughput and a verdict against rho, and exits 1 on a
// miss. With -batch B the command solves B instances (seeds S..S+B-1)
// concurrently on W workers and prints one summary line per instance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	streamalloc "repro"
)

func main() {
	n := flag.Int("n", 40, "operators in the random tree")
	alpha := flag.Float64("alpha", 0.9, "computation exponent")
	seed := flag.Int64("seed", 1, "random seed")
	inFile := flag.String("in", "", "load instance JSON instead of generating")
	name := flag.String("heuristic", "all", "heuristic name or 'all'")
	verify := flag.Bool("verify", false, "execute the best mapping on the stream engine")
	workers := flag.Int("workers", 0, "solver worker goroutines (0: one per CPU, 1: serial)")
	batch := flag.Int("batch", 0, "solve this many instances (seeds seed..seed+batch-1) concurrently")
	flag.Parse()

	if *batch > 0 {
		if *inFile != "" || *name != "all" {
			fatal(fmt.Errorf("-batch generates random instances and runs the full portfolio; it cannot be combined with -in or -heuristic"))
		}
		runBatch(*batch, *n, *alpha, *seed, *workers, *verify)
		return
	}

	var in *streamalloc.Instance
	if *inFile != "" {
		data, err := os.ReadFile(*inFile)
		if err != nil {
			fatal(err)
		}
		in = new(streamalloc.Instance)
		if err := json.Unmarshal(data, in); err != nil {
			fatal(err)
		}
	} else {
		in = streamalloc.Generate(streamalloc.InstanceConfig{NumOps: *n, Alpha: *alpha}, *seed)
	}
	if err := in.Validate(); err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %d operators, %d leaves, %d object types, rho=%g, alpha=%g\n",
		in.Tree.NumOps(), in.Tree.NumLeaves(), in.NumTypes, in.Rho, in.Alpha)
	fmt.Printf("cost lower bound: $%.0f\n\n", streamalloc.LowerBound(in))

	var solver streamalloc.Solver
	solver.Options.Seed = *seed
	solver.Workers = *workers

	var best *streamalloc.Result
	if *name == "all" {
		for _, o := range solver.SolveAll(in) {
			if o.Err != nil {
				fmt.Printf("%-22s FAILED: %v\n", o.Name, o.Err)
				continue
			}
			fmt.Printf("%-22s $%-8.0f (%d processors)\n", o.Name, o.Result.Cost, o.Result.Procs)
			if best == nil || o.Result.Cost < best.Cost {
				best = o.Result
			}
		}
	} else {
		res, err := solver.Solve(in, *name)
		if err != nil {
			fatal(err)
		}
		best = res
		fmt.Printf("%-22s $%-8.0f (%d processors)\n", res.Heuristic, res.Cost, res.Procs)
	}
	if best == nil {
		fatal(fmt.Errorf("no feasible mapping found"))
	}

	fmt.Printf("\nbest mapping (%s):\n", best.Heuristic)
	procs, ops, dl := best.Mapping.Compact()
	cat := in.Platform.Catalog
	for i := range procs {
		fmt.Printf("  P%d: %.2f GHz / %.0f Gbps ($%.0f) operators=%v downloads=%v\n",
			i, cat.CPUs[procs[i].Config.CPU].SpeedGHz, cat.NICs[procs[i].Config.NIC].Gbps,
			cat.Cost(procs[i].Config), ops[i], dl[i])
	}

	if *verify {
		rep, err := streamalloc.Verify(best, streamalloc.SimOptions{})
		if rep == nil {
			fatal(err)
		}
		fmt.Printf("\nstream engine (target rho %.3f results/s):\n", in.Rho)
		fmt.Printf("  analytic max : %.3f results/s\n", rep.Analytic)
		fmt.Printf("  measured     : %.3f results/s\n", rep.Throughput)
		fmt.Printf("  simulated    : %d results in %.2f virtual seconds (%d events)\n",
			rep.Completed, rep.SimTime, rep.Events)
		if err != nil {
			fmt.Printf("VERDICT: mapping MISSES the QoS target (%v)\n", err)
			os.Exit(1)
		}
		fmt.Println("VERDICT: mapping sustains the QoS target")
	}
}

// runBatch generates and solves `batch` instances concurrently via
// SolveBatch, optionally verifying every feasible mapping on the stream
// engine (also fanned out), and prints one line per instance.
func runBatch(batch, n int, alpha float64, seed int64, workers int, verify bool) {
	ins := make([]*streamalloc.Instance, batch)
	for i := range ins {
		ins[i] = streamalloc.Generate(streamalloc.InstanceConfig{NumOps: n, Alpha: alpha}, seed+int64(i))
	}
	// Each instance solves with its own seed, so every batch line matches
	// a standalone `streamalloc -seed <that seed>` run exactly.
	solver := streamalloc.Solver{Workers: workers}
	results, errs := solver.SolveBatchWith(context.Background(), ins, func(i int) streamalloc.Options {
		return streamalloc.Options{Seed: seed + int64(i)}
	})

	var reports []*streamalloc.SimReport
	var verrs []error
	if verify {
		var feasible []*streamalloc.Result
		for _, res := range results {
			if res != nil {
				feasible = append(feasible, res)
			}
		}
		reps, ve := streamalloc.VerifyBatch(context.Background(), feasible, streamalloc.SimOptions{}, workers)
		reports, verrs = reps, ve
	}

	solved, vi := 0, 0
	for i := range ins {
		if errs[i] != nil {
			fmt.Printf("seed %-6d INFEASIBLE: %v\n", seed+int64(i), errs[i])
			continue
		}
		solved++
		line := fmt.Sprintf("seed %-6d %-22s $%-8.0f (%d processors)",
			seed+int64(i), results[i].Heuristic, results[i].Cost, results[i].Procs)
		if verify {
			if verrs[vi] != nil {
				line += fmt.Sprintf("  verify FAILED: %v", verrs[vi])
			} else {
				line += fmt.Sprintf("  verified %.2f results/s", reports[vi].Throughput)
			}
			vi++
		}
		fmt.Println(line)
	}
	fmt.Printf("\nbatch: %d/%d feasible\n", solved, batch)
	if solved == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamalloc:", err)
	os.Exit(1)
}
