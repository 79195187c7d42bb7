package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/instance"
)

// writeReport marshals a minimal report with a calibration entry plus the
// given benchmarks.
func writeReport(t *testing.T, dir, name string, entries ...Entry) string {
	t.Helper()
	rep := Report{Schema: Schema}
	rep.Entries = append(rep.Entries, Entry{Name: calibrationName, NsPerOp: 1e6, NsMin: 1e6, NsMedian: 1e6})
	rep.Entries = append(rep.Entries, entries...)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func entry(name string, ns, allocs float64, gated bool) Entry {
	return Entry{Name: name, NsPerOp: ns, NsMin: ns, NsMedian: ns, AllocsPerO: allocs, AllocGated: gated}
}

func TestCompareOK(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/x", 5e5, 100, true))
	res := writeReport(t, dir, "res.json", entry("solve/x", 5.5e5, 100, true))
	if err := compare(base, res, 0.20); err != nil {
		t.Fatalf("10%% growth under a 20%% gate must pass: %v", err)
	}
}

func TestCompareNsRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/x", 5e5, 100, true))
	res := writeReport(t, dir, "res.json", entry("solve/x", 7e5, 100, true))
	if err := compare(base, res, 0.20); err == nil {
		t.Fatal("40% ns growth must fail the 20% gate")
	}
}

func TestCompareAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/x", 5e5, 100, true))
	res := writeReport(t, dir, "res.json", entry("solve/x", 5e5, 200, true))
	if err := compare(base, res, 0.20); err == nil {
		t.Fatal("allocs/op growth on a gated entry must fail")
	}
}

func TestCompareTinyEntryNsExempt(t *testing.T) {
	// A 2us entry (fails-Precheck corpus cell) may jitter wildly in ns
	// but must still gate allocations.
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/tiny", 2e3, 4, true))
	res := writeReport(t, dir, "res.json", entry("solve/tiny", 6e3, 4, true))
	if err := compare(base, res, 0.20); err != nil {
		t.Fatalf("tiny entry ns growth must not gate: %v", err)
	}
	res2 := writeReport(t, dir, "res2.json", entry("solve/tiny", 2e3, 40, true))
	if err := compare(base, res2, 0.20); err == nil {
		t.Fatal("tiny entry alloc growth must still fail")
	}
}

func TestCompareFailsOnEntryMissingFromResults(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json",
		entry("solve/x", 5e5, 100, true), entry("solve/dropped", 5e5, 100, true))
	res := writeReport(t, dir, "res.json", entry("solve/x", 5e5, 100, true))
	if err := compare(base, res, 0.20); err == nil {
		t.Fatal("an entry present in the baseline but absent from the results must fail")
	}
}

func TestCompareFailsOnUngatedNewAllocEntry(t *testing.T) {
	// A new alloc-gated entry (e.g. a fresh N=600 corpus cell) must not
	// escape gating silently: growing the corpus requires refreshing the
	// committed baseline.
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/x", 5e5, 100, true))
	res := writeReport(t, dir, "res.json",
		entry("solve/x", 5e5, 100, true), entry("solve/N=600", 5e7, 100, true))
	if err := compare(base, res, 0.20); err == nil {
		t.Fatal("a new alloc-gated entry absent from the baseline must fail")
	}
}

func TestCompareAllowsNewUntrackedEntry(t *testing.T) {
	// Non-gated additions (parallel trend entries) are informational.
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", entry("solve/x", 5e5, 100, true))
	res := writeReport(t, dir, "res.json",
		entry("solve/x", 5e5, 100, true), entry("sweep/workers=4", 5e7, 100, false))
	if err := compare(base, res, 0.20); err != nil {
		t.Fatalf("a new non-gated entry must pass: %v", err)
	}
}

// TestCorpusCellPinnedSeeds checks that a corpus cell holds seeds 1..k in
// order, each the instance.Generate instance of its (n, alpha, seed).
func TestCorpusCellPinnedSeeds(t *testing.T) {
	const n, alpha = 20, 0.9
	cell := corpusCell(n, alpha, 3)
	if len(cell) != 3 {
		t.Fatalf("cell has %d items, want 3", len(cell))
	}
	for i, it := range cell {
		if it.Seed != int64(i+1) {
			t.Fatalf("item %d has seed %d, want %d", i, it.Seed, i+1)
		}
		got, err := json.Marshal(it.Inst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(instance.Generate(instance.Config{NumOps: n, Alpha: alpha}, it.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: corpus instance differs from instance.Generate", it.Seed)
		}
	}
}
