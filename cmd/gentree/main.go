// Command gentree generates random problem instances with the paper's
// Section 5 methodology and writes them as JSON for cmd/streamalloc
// (-in FILE, with -verify to run the mapping on the stream engine), plus
// optional Graphviz output of the operator tree.
//
// Usage:
//
//	gentree [-n N] [-alpha A] [-seed S] [-large] [-lowfreq] [-o FILE] [-dot FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	streamalloc "repro"
)

func main() {
	n := flag.Int("n", 40, "operators in the tree")
	alpha := flag.Float64("alpha", 0.9, "computation exponent")
	seed := flag.Int64("seed", 1, "random seed")
	large := flag.Bool("large", false, "large objects (450-530 MB) instead of 5-30 MB")
	lowfreq := flag.Bool("lowfreq", false, "low download frequency (1/50s) instead of 1/2s")
	out := flag.String("o", "", "output file (default stdout)")
	dot := flag.String("dot", "", "also write the tree in Graphviz dot format")
	flag.Parse()

	cfg := streamalloc.InstanceConfig{NumOps: *n, Alpha: *alpha}
	if *large {
		cfg.SizeMin, cfg.SizeMax = 450, 530
	}
	if *lowfreq {
		cfg.Freq = 1.0 / 50
	}
	in := streamalloc.Generate(cfg, *seed)

	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(in.Tree.DOT(fmt.Sprintf("tree_n%d_seed%d", *n, *seed))), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gentree:", err)
	os.Exit(1)
}
