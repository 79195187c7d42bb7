package stream

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/platform"
)

// -update regenerates testdata/reports.golden:
// go test ./internal/stream -run ReportsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/reports.golden")

// goldenReports simulates the pinned engine corpus — all six heuristics
// x N in {10, 20, 40, 60, 140} x alpha in {0.9, 1.5, 2.3}, on the
// default and a homogeneous (slow-CPU, multi-processor) catalog, under
// four option sets — and renders one line per simulation. Float fields
// are printed as their IEEE-754 bit patterns, so the golden pins every
// Report field bit for bit; infeasible solves and simulation errors are
// pinned by their error strings.
func goldenReports(t *testing.T) []byte {
	t.Helper()
	hom := platform.DefaultPlatform()
	hom.Catalog = platform.Homogeneous(0, 4)
	catalogs := []struct {
		name string
		p    *platform.Platform
	}{{"default", nil}, {"hom", hom}}
	opts := []Options{
		{Results: 30},
		{Results: 60},
		{Results: 60, Credits: 2},
		{Results: 60, MaxEvents: 500},
	}
	var buf bytes.Buffer
	r := NewRunner()
	for _, cat := range catalogs {
		for _, n := range []int{10, 20, 40, 60, 140} {
			for _, alpha := range []float64{0.9, 1.5, 2.3} {
				in := instance.Generate(instance.Config{NumOps: n, Alpha: alpha, Platform: cat.p}, 1)
				for _, h := range heuristics.All() {
					key := fmt.Sprintf("%s N=%d alpha=%g %s", cat.name, n, alpha, h.Name())
					res, err := heuristics.Solve(in, h, heuristics.Options{Seed: 1})
					if err != nil {
						fmt.Fprintf(&buf, "%s: solve: %v\n", key, err)
						continue
					}
					for _, opt := range opts {
						rep, err := r.Simulate(res.Mapping, opt)
						o := fmt.Sprintf("results=%d credits=%d max=%d", opt.Results, opt.Credits, opt.MaxEvents)
						if err != nil {
							fmt.Fprintf(&buf, "%s %s: error: %v\n", key, o, err)
							continue
						}
						fmt.Fprintf(&buf, "%s %s: throughput=%016x analytic=%016x simtime=%016x completed=%d events=%d\n",
							key, o, math.Float64bits(rep.Throughput), math.Float64bits(rep.Analytic),
							math.Float64bits(rep.SimTime), rep.Completed, rep.Events)
					}
				}
			}
		}
	}
	return buf.Bytes()
}

// TestReportsGolden recomputes the engine corpus and requires every
// line of testdata/reports.golden to match exactly: the engine's event
// order and float arithmetic are part of its contract, so a rewrite of
// the scheduler must leave every report bit-identical.
func TestReportsGolden(t *testing.T) {
	got := goldenReports(t)
	path := filepath.Join("testdata", "reports.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (run with -update to create)", path, err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, recomputed %d", path, len(wantLines), len(gotLines))
	}
}
