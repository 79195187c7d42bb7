package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/serve"
)

// rebuild reconstructs a wire mapping on arena m with mapping's public
// calls, rejecting indices outside the instance, and validates it.
func rebuild(m *mapping.Mapping, in *instance.Instance, spec *serve.MappingSpec) error {
	cat := in.Platform.Catalog
	m.Reset(in)
	for i, pc := range spec.Procs {
		if pc.CPU < 0 || pc.CPU >= len(cat.CPUs) || pc.NIC < 0 || pc.NIC >= len(cat.NICs) {
			return fmt.Errorf("proc %d: config (%d, %d) outside the catalog", i, pc.CPU, pc.NIC)
		}
		m.Buy(platform.Config{CPU: pc.CPU, NIC: pc.NIC})
	}
	if len(spec.Assign) != in.Tree.NumOps() {
		return fmt.Errorf("assign lists %d operators, instance has %d", len(spec.Assign), in.Tree.NumOps())
	}
	for op, p := range spec.Assign {
		if p < 0 || p >= len(spec.Procs) {
			return fmt.Errorf("operator %d on invalid processor %d", op, p)
		}
		m.Place(op, p)
	}
	for i, d := range spec.Downloads {
		if d.Proc < 0 || d.Proc >= len(spec.Procs) || d.Object < 0 || d.Object >= in.NumTypes ||
			d.Server < 0 || d.Server >= len(in.Platform.Servers) {
			return fmt.Errorf("download %d out of range: %+v", i, d)
		}
		m.SelectServer(d.Proc, d.Object, d.Server)
	}
	return m.Validate()
}

// mappingSpec renders a mapping in the daemon's canonical wire form:
// compact processor numbering, downloads sorted by (proc, object).
func mappingSpec(m *mapping.Mapping) serve.MappingSpec {
	spec := serve.MappingSpec{
		Procs:     []serve.ProcSpec{},
		Assign:    make([]int, len(m.Assign)),
		Downloads: []serve.DownloadSpec{},
	}
	compact := make([]int, len(m.Procs))
	for p := range m.Procs {
		compact[p] = -1
		if m.Procs[p].Alive {
			compact[p] = len(spec.Procs)
			spec.Procs = append(spec.Procs, serve.ProcSpec{CPU: m.Procs[p].Config.CPU, NIC: m.Procs[p].Config.NIC})
		}
	}
	for op, p := range m.Assign {
		spec.Assign[op] = -1
		if p != mapping.Unassigned {
			spec.Assign[op] = compact[p]
		}
	}
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			continue
		}
		objs := make([]int, 0, len(m.DL[p]))
		for k := range m.DL[p] {
			objs = append(objs, k)
		}
		sort.Ints(objs)
		for _, k := range objs {
			spec.Downloads = append(spec.Downloads, serve.DownloadSpec{Proc: compact[p], Object: k, Server: m.DL[p][k]})
		}
	}
	return spec
}

// checkSolveShape is the per-response check every solve answer gets:
// it decodes, lists every requested heuristic, and its best is the
// cheapest feasible outcome (ties to the earlier heuristic).
func checkSolveShape(body []byte, heuristics int) (*serve.SolveResponse, error) {
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding solve response: %w", err)
	}
	if len(resp.Outcomes) != heuristics {
		return nil, fmt.Errorf("%d outcomes, want %d", len(resp.Outcomes), heuristics)
	}
	best := -1
	for i, o := range resp.Outcomes {
		if o.Error == "" && (best < 0 || o.Cost < resp.Outcomes[best].Cost) {
			best = i
		}
	}
	switch {
	case best < 0 && (resp.Feasible || resp.Best != nil):
		return nil, fmt.Errorf("feasible answer without a feasible outcome")
	case best >= 0 && (!resp.Feasible || resp.Best == nil):
		return nil, fmt.Errorf("feasible outcome %s but no best", resp.Outcomes[best].Heuristic)
	case best >= 0 && (resp.Best.Heuristic != resp.Outcomes[best].Heuristic || resp.Best.Cost != resp.Outcomes[best].Cost):
		return nil, fmt.Errorf("best %s/%v is not the cheapest outcome %s/%v",
			resp.Best.Heuristic, resp.Best.Cost, resp.Outcomes[best].Heuristic, resp.Outcomes[best].Cost)
	}
	return &resp, nil
}

// checkSolveOracle compares a solve answer with the library: every
// outcome against heuristics.Solve, the lower bound against
// bounds.CostLowerBound, and the best mapping rebuilt and validated on
// arena.
func checkSolveOracle(resp *serve.SolveResponse, in *instance.Instance, hs []heuristics.Heuristic, seed int64, arena *mapping.Mapping) error {
	if lb := bounds.CostLowerBound(in); lb != resp.LowerBound {
		return fmt.Errorf("lower_bound %v, library %v", resp.LowerBound, lb)
	}
	for i, h := range hs {
		o := resp.Outcomes[i]
		res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
		switch {
		case o.Heuristic != h.Name():
			return fmt.Errorf("outcome %d is %s, want %s", i, o.Heuristic, h.Name())
		case (err != nil) != (o.Error != ""):
			return fmt.Errorf("%s: daemon error %q, library error %v", h.Name(), o.Error, err)
		case err == nil && (res.Cost != o.Cost || res.Procs != o.Procs):
			return fmt.Errorf("%s: daemon cost %v/%d procs, library %v/%d", h.Name(), o.Cost, o.Procs, res.Cost, res.Procs)
		}
	}
	if resp.Best == nil {
		return nil
	}
	if err := rebuild(arena, in, &resp.Best.Mapping); err != nil {
		return fmt.Errorf("best mapping does not rebuild: %w", err)
	}
	if c := arena.Cost(); c != resp.Best.Cost {
		return fmt.Errorf("best mapping costs %v, answer says %v", c, resp.Best.Cost)
	}
	return nil
}
