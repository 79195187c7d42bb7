package mapping_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/churn"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/refine"
)

// fingerprint renders everything a solve's outcome consists of.
func fingerprint(m *mapping.Mapping, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(m.Assign, m.Procs, m.DL, m.Cost())
}

// replayProbes runs solve twice, once with every probe on the reference
// TryPlace and once on the estimate-driven one (each of whose probes
// WatchProbes checks), and requires identical probe logs and outcomes.
func replayProbes(t *testing.T, name string, solve func() string) {
	t.Helper()
	var logs [2][]mapping.ProbeRecord
	var outs [2]string
	for i, reference := range []bool{true, false} {
		t.Run(fmt.Sprintf("%s/reference=%v", name, reference), func(t *testing.T) {
			log := mapping.WatchProbes(t, reference)
			outs[i] = solve()
			logs[i] = *log
		})
	}
	if outs[0] != outs[1] {
		t.Fatalf("%s: outcome differs from the reference TryPlace's:\n got  %s\n want %s", name, outs[1], outs[0])
	}
	if !slices.EqualFunc(logs[0], logs[1], func(a, b mapping.ProbeRecord) bool {
		return a.P == b.P && a.OK == b.OK && slices.Equal(a.Ops, b.Ops)
	}) {
		t.Fatalf("%s: probe sequence differs from the reference TryPlace's (%d vs %d probes)", name, len(logs[1]), len(logs[0]))
	}
}

// TestProbeVerdictsMatchReference replays every probe of the six
// heuristics and Subtree-bottom-up-nofold over seeds, sizes, alphas and
// both catalogs, then of the exact search, refine.Improve and a churn
// repair scenario, on the estimate-driven TryPlace and on the reference
// one: every verdict and every final mapping must be identical.
func TestProbeVerdictsMatchReference(t *testing.T) {
	hs := append(heuristics.All(), heuristics.SubtreeBottomUp{DisableFold: true})
	ns := []int{10, 40, 140, 600}
	if testing.Short() {
		ns = ns[:3]
	}
	for _, hom := range []bool{false, true} {
		for _, n := range ns {
			for _, alpha := range []float64{0.5, 1.5, 2.5} {
				for seed := int64(1); seed <= 2; seed++ {
					cfg := instance.Config{NumOps: n, Alpha: alpha}
					if hom {
						cfg.Platform = platform.DefaultPlatform()
						cfg.Platform.Catalog = platform.Homogeneous(2, 3)
					}
					in := instance.Generate(cfg, seed)
					for _, h := range hs {
						replayProbes(t, fmt.Sprintf("%s/hom=%v/N=%d/alpha=%g/seed=%d", h.Name(), hom, n, alpha, seed), func() string {
							res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
							if err != nil {
								return fingerprint(nil, err)
							}
							return fingerprint(res.Mapping, nil)
						})
					}
				}
			}
		}
	}

	p := platform.DefaultPlatform()
	p.Catalog = platform.Homogeneous(0, 4)
	small := instance.Generate(instance.Config{NumOps: 14, Alpha: 2.0, Platform: p}, 2)
	replayProbes(t, "exact", func() string {
		res, err := exact.Solve(small, exact.Limits{})
		if err != nil {
			return fingerprint(nil, err)
		}
		return fmt.Sprint(fingerprint(res.Mapping, nil), res.Nodes, res.Proven)
	})

	for seed := int64(2); seed <= 4; seed++ {
		in := instance.Generate(instance.Config{NumOps: 60, Alpha: 0.9}, seed)
		seedRes, err := heuristics.Solve(in, heuristics.CompGreedy{}, heuristics.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		replayProbes(t, fmt.Sprintf("refine.Improve/seed=%d", seed), func() string {
			m := seedRes.Mapping.Clone()
			err := refine.Improve(context.Background(), m, nil, refine.Options{Seed: seed, SAIters: 400, LNSRounds: 4})
			return fingerprint(m, err)
		})
	}

	slow := platform.DefaultPlatform()
	slow.Catalog = platform.Homogeneous(0, 4)
	ccfg := churn.ScenarioConfig{Drift: churn.DriftUp, DriftMax: 1.6, Rho: 2, RhoMax: 8, Events: 10}
	ccfg.Base.Platform = slow
	ccfg.Base.Alpha = 2
	replayProbes(t, "churn", func() string {
		res, err := churn.RunScenario(context.Background(), churn.NewScenario(ccfg, 3), churn.Options{Policy: churn.PolicyRepair, Seed: 3})
		if err != nil {
			return "error: " + err.Error()
		}
		out := fmt.Sprint(res.InitialCost, res.FinalCost, res.FinalProcs, res.Moved, res.Repaired, res.Resolved, res.Rejected)
		for _, ev := range res.Events {
			out += fmt.Sprint(ev.Outcome, ev.Cost, ev.Procs, ev.Moved, ev.Ops, ev.Apps, ev.Err)
		}
		return out
	})
}

// boundaryKind is one capacity a boundary scan moves onto a load.
type boundaryKind struct {
	name string
	// load returns the processor or processor pair with the highest load
	// of this kind in m, and that load.
	load func(m *mapping.Mapping) (p, q int, load float64)
	// set gives the platform capacity c for this kind.
	set func(pl *platform.Platform, c float64)
	// limit is the capacity+Eps the constraint checks compare against.
	limit func(pl *platform.Platform) float64
	// server marks constraints (3) and (4), which no probe checks: their
	// boundary is held by Validate and the server selection alone.
	server bool
}

func maxOver(m *mapping.Mapping, f func(p int) float64) (int, int, float64) {
	best, bp := -1.0, -1
	for _, p := range mapping.AliveList(m) {
		if l := f(p); l > best {
			best, bp = l, p
		}
	}
	return bp, bp, best
}

var boundaryKinds = []boundaryKind{
	{
		name: "compute",
		load: func(m *mapping.Mapping) (int, int, float64) { return maxOver(m, m.ComputeLoad) },
		set: func(pl *platform.Platform, c float64) {
			pl.Catalog.CPUs[0].SpeedGHz = c / platform.WorkUnitsPerGHz
		},
		limit: func(pl *platform.Platform) float64 {
			return pl.Catalog.SpeedUnits(platform.Config{}) + mapping.Eps
		},
	},
	{
		name: "nic",
		load: func(m *mapping.Mapping) (int, int, float64) { return maxOver(m, m.NICLoad) },
		set: func(pl *platform.Platform, c float64) {
			pl.Catalog.NICs[0].Gbps = c / platform.MBpsPerGbps
		},
		limit: func(pl *platform.Platform) float64 {
			return pl.Catalog.BandwidthMBps(platform.Config{}) + mapping.Eps
		},
	},
	{
		name: "link",
		load: func(m *mapping.Mapping) (int, int, float64) {
			best, bp, bq := -1.0, -1, -1
			for _, p := range mapping.AliveList(m) {
				for _, q := range mapping.AliveList(m) {
					if l := m.LinkTraffic(p, q); p != q && l > best {
						best, bp, bq = l, p, q
					}
				}
			}
			return bp, bq, best
		},
		set:   func(pl *platform.Platform, c float64) { pl.ProcLinkMBps = c },
		limit: func(pl *platform.Platform) float64 { return pl.ProcLinkMBps + mapping.Eps },
	},
	{
		// Every server gets the same NIC, so the busiest server carries
		// the boundary load.
		name: "server-nic",
		load: func(m *mapping.Mapping) (int, int, float64) {
			best, bl := -1.0, -1
			for l := range m.Inst.Platform.Servers {
				load := 0.0
				for _, p := range mapping.AliveList(m) {
					load = addDownloads(m, l, p, load)
				}
				if load > best {
					best, bl = load, l
				}
			}
			return bl, bl, best
		},
		set: func(pl *platform.Platform, c float64) {
			for l := range pl.Servers {
				pl.Servers[l].NICMBps = c
			}
		},
		limit:  func(pl *platform.Platform) float64 { return pl.Servers[0].NICMBps + mapping.Eps },
		server: true,
	},
	{
		name: "server-link",
		load: func(m *mapping.Mapping) (int, int, float64) {
			best, bl, bp := -1.0, -1, -1
			for l := range m.Inst.Platform.Servers {
				for _, p := range mapping.AliveList(m) {
					if load := addDownloads(m, l, p, 0); load > best {
						best, bl, bp = load, l, p
					}
				}
			}
			return bl, bp, best
		},
		set:    func(pl *platform.Platform, c float64) { pl.ServerLinkMBps = c },
		limit:  func(pl *platform.Platform) float64 { return pl.ServerLinkMBps + mapping.Eps },
		server: true,
	},
}

// addDownloads adds the rates of p's downloads from server l to acc,
// objects ascending, so that chained calls over the processors round
// exactly like Validate's server sums. (ServerLoad and ServerLinkLoad
// range over the download maps in random order.)
func addDownloads(m *mapping.Mapping, l, p int, acc float64) float64 {
	for k := 0; k < m.Inst.NumTypes; k++ {
		if srv, ok := m.DL[p][k]; ok && srv == l {
			acc += m.Inst.Rate(k)
		}
	}
	return acc
}

// ulpsBetween is the signed number of float64 steps from a to b (both
// positive).
func ulpsBetween(a, b float64) int64 {
	return int64(math.Float64bits(b)) - int64(math.Float64bits(a))
}

// onInstance rebuilds m's placement, configurations and downloads on
// instance in, operator by operator.
func onInstance(m *mapping.Mapping, in *instance.Instance) *mapping.Mapping {
	c := mapping.New(in)
	for p := range m.Procs {
		c.Buy(m.Procs[p].Config)
	}
	for op, p := range m.Assign {
		c.Place(op, p)
	}
	for p := range m.Procs {
		if !m.Procs[p].Alive {
			c.Sell(p)
			continue
		}
		for k, l := range m.DL[p] {
			c.SelectServer(p, k, l)
		}
	}
	return c
}

// TestCapacityBoundaryAdmission is the capacity-boundary scan. For each
// of the six heuristics it solves homogeneous instances, then moves the
// CPU speed, the NIC bandwidth, the processor-link bandwidth, the server
// NIC or the server-link bandwidth so that the solution's highest load
// of that kind lands within ±4 ulps of capacity+Eps. On every such
// boundary instance Validate must accept the solution exactly when the
// load fits; for the processor kinds, re-probing an operator of the
// loaded processor must give the exact walk's verdict, through the exact
// fallback; and a fresh solve of the boundary instance, whose server
// selection meets the server boundaries, must either validate or report
// infeasibility, never produce a mapping Validate rejects.
func TestCapacityBoundaryAdmission(t *testing.T) {
	scanned := map[string]int{}
	for _, h := range heuristics.All() {
		for seed := int64(1); seed <= 3; seed++ {
			base := platform.DefaultPlatform()
			base.Catalog = platform.Homogeneous(4, 4)
			in := instance.Generate(instance.Config{NumOps: 40, Alpha: 0.9, Platform: base}, seed)
			res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", h.Name(), seed, err)
			}
			for _, kind := range boundaryKinds {
				p, q, load := kind.load(res.Mapping)
				if p < 0 || load <= 0 {
					continue // no load of this kind, e.g. no crossing edge
				}
				seen := map[float64]bool{}
				c0 := load - mapping.Eps
				for step := -12; step <= 12; step++ {
					c := c0
					for i := 0; i < abs(step); i++ {
						c = math.Nextafter(c, math.Copysign(math.Inf(1), float64(step)))
					}
					bin := *in
					pl := *base
					cat := *base.Catalog
					cat.CPUs = slices.Clone(cat.CPUs)
					cat.NICs = slices.Clone(cat.NICs)
					pl.Catalog = &cat
					pl.Servers = slices.Clone(pl.Servers)
					kind.set(&pl, c)
					bin.Platform = &pl
					limit := kind.limit(&pl)
					off := ulpsBetween(load, limit)
					if seen[limit] || off < -4 || off > 4 {
						continue
					}
					seen[limit] = true
					scanned[kind.name]++
					name := fmt.Sprintf("%s/seed=%d/%s/%+d ulps", h.Name(), seed, kind.name, off)
					if kind.server {
						checkServerBoundary(t, name, h, seed, res.Mapping, &bin, load <= limit)
					} else {
						checkBoundary(t, name, h, seed, res.Mapping, &bin, p, q, load <= limit)
					}
				}
			}
		}
	}
	for _, kind := range boundaryKinds {
		if scanned[kind.name] < 20 {
			t.Errorf("%s: only %d boundary instances scanned", kind.name, scanned[kind.name])
		}
	}
}

// edgeTo reports whether operator op shares a tree edge with an
// operator on processor q.
func edgeTo(m *mapping.Mapping, op, q int) bool {
	o := m.Inst.Tree.Ops[op]
	for _, c := range o.ChildOps {
		if m.OpProc(c) == q {
			return true
		}
	}
	return o.Parent >= 0 && m.OpProc(o.Parent) == q
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkBoundary runs the three admission checks on boundary instance in,
// where processor p (linked to q) carries the boundary load of solution
// sol, which fits exactly when fits.
func checkBoundary(t *testing.T, name string, h heuristics.Heuristic, seed int64, sol *mapping.Mapping, in *instance.Instance, p, q int, fits bool) {
	t.Helper()
	m := onInstance(sol, in)
	if got := mapping.ReferenceProbeFeasible(m, p); got != fits {
		t.Fatalf("%s: exact walk says fits=%v, the boundary was built for %v", name, got, fits)
	}
	if err := m.Validate(); (err == nil) != fits {
		t.Fatalf("%s: Validate = %v, want fits=%v", name, err, fits)
	}
	// Re-probe the loaded processor's last operator whose move changes
	// the boundary load (for a link, one with an edge to q).
	ops := m.AppendOpsOn(nil, p)
	op := ops[len(ops)-1]
	if p != q {
		for _, o := range ops {
			if edgeTo(m, o, q) {
				op = o
			}
		}
	}
	m.Unplace(op)
	checks, fallbacks := mapping.WatchFallbacks(t)
	if got := m.TryPlace(p, op); got != fits {
		t.Fatalf("%s: TryPlace(%d, %d) = %v, want %v", name, p, op, got, fits)
	}
	if checks[p] == 0 || fallbacks[p] != checks[p] {
		t.Fatalf("%s: processor %d made %d checks, %d through the exact fallback; want all", name, p, checks[p], fallbacks[p])
	}
	if !fits {
		m.Place(op, p)
	}
	if err := m.Validate(); (err == nil) != fits {
		t.Fatalf("%s: Validate after the probe = %v, want fits=%v", name, err, fits)
	}
	checkResolve(t, name, h, seed, in)
}

// checkServerBoundary runs the admission checks on boundary instance in,
// where a server NIC or server link carries the boundary load of
// solution sol, which fits exactly when fits: Validate must accept sol's
// downloads exactly when they fit, and a fresh solve's server selection
// must agree with Validate.
func checkServerBoundary(t *testing.T, name string, h heuristics.Heuristic, seed int64, sol *mapping.Mapping, in *instance.Instance, fits bool) {
	t.Helper()
	if err := onInstance(sol, in).Validate(); (err == nil) != fits {
		t.Fatalf("%s: Validate = %v, want fits=%v", name, err, fits)
	}
	checkResolve(t, name, h, seed, in)
}

// checkResolve solves boundary instance in afresh: the solve must either
// report infeasibility or produce a mapping Validate accepts.
func checkResolve(t *testing.T, name string, h heuristics.Heuristic, seed int64, in *instance.Instance) {
	t.Helper()
	res, err := heuristics.Solve(in, h, heuristics.Options{Seed: seed})
	switch {
	case err != nil && !errors.Is(err, heuristics.ErrInfeasible):
		t.Fatalf("%s: re-solve: %v", name, err)
	case err == nil:
		if verr := res.Mapping.Validate(); verr != nil {
			t.Fatalf("%s: re-solve produced an invalid mapping: %v", name, verr)
		}
	}
}
