package churn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/platform"
)

// tightConfig is the scenario family most tests use: upward-only drift
// on a slow homogeneous catalog, so repairs are frequent, overloads are
// real, and the downgrade pass is exercised as skipped.
func tightConfig() ScenarioConfig {
	slow := platform.DefaultPlatform()
	slow.Catalog = platform.Homogeneous(0, 4)
	cfg := ScenarioConfig{Drift: DriftUp, DriftMax: 1.6, Rho: 2, RhoMax: 8}
	cfg.Base.Platform = slow
	cfg.Base.Alpha = 2
	return cfg
}

// TestScenarioDeterminism: the generator and both engine policies are
// pure functions of (config, seed).
func TestScenarioDeterminism(t *testing.T) {
	cfg := tightConfig()
	cfg.Events = 10
	a := NewScenario(cfg, 42)
	b := NewScenario(cfg, 42)
	if !reflect.DeepEqual(a.Initial, b.Initial) || !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("NewScenario is not deterministic")
	}
	if reflect.DeepEqual(a.Events, NewScenario(cfg, 43).Events) {
		t.Fatal("different seeds produced identical event streams")
	}
	for _, pol := range []Policy{PolicyRepair, PolicyResolve} {
		r1, err1 := RunScenario(context.Background(), a, Options{Policy: pol, Seed: 7})
		r2, err2 := RunScenario(context.Background(), b, Options{Policy: pol, Seed: 7})
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: run failed: %v / %v", pol, err1, err2)
		}
		if r1.FinalCost != r2.FinalCost || r1.Moved != r2.Moved ||
			r1.Repaired != r2.Repaired || r1.Resolved != r2.Resolved || r1.Rejected != r2.Rejected {
			t.Fatalf("%v: two runs diverged: %+v vs %+v", pol, r1, r2)
		}
		for i := range r1.Events {
			e1, e2 := r1.Events[i], r2.Events[i]
			if e1.Outcome != e2.Outcome || e1.Cost != e2.Cost || e1.Moved != e2.Moved || e1.Procs != e2.Procs {
				t.Fatalf("%v: event %d diverged: %+v vs %+v", pol, i, e1, e2)
			}
		}
	}
}

// TestDifferentialRepairVsResolve is the subsystem's property test:
// across seeds and scenario sizes, after every event the repair
// engine's incumbent must re-validate cleanly (Validate and
// CheckInvariants on an independently rebuilt mapping), and repair must
// answer every event the resolve policy can answer — the fallback
// guarantees repair is never less available than a from-scratch solve.
func TestDifferentialRepairVsResolve(t *testing.T) {
	var m mapping.Mapping
	for _, events := range []int{6, 12} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := tightConfig()
			cfg.Events = events
			sc := NewScenario(cfg, seed)

			rep := NewEngine(Options{Policy: PolicyRepair, Seed: seed})
			res := NewEngine(Options{Policy: PolicyResolve, Seed: seed})
			if err := rep.Start(sc); err != nil {
				if errors.Is(err, heuristics.ErrInfeasible) {
					continue // this seed's initial workload has no mapping at all
				}
				t.Fatalf("events=%d seed=%d: repair Start: %v", events, seed, err)
			}
			if err := res.Start(sc); err != nil {
				t.Fatalf("events=%d seed=%d: resolve Start: %v", events, seed, err)
			}
			if rep.Cost() != res.Cost() {
				t.Fatalf("events=%d seed=%d: policies start from different incumbents: %v vs %v",
					events, seed, rep.Cost(), res.Cost())
			}
			for i, ev := range sc.Events {
				er, err := rep.Step(context.Background(), ev)
				if err != nil {
					t.Fatalf("events=%d seed=%d ev=%d: repair Step: %v", events, seed, i, err)
				}
				rr, err := res.Step(context.Background(), ev)
				if err != nil {
					t.Fatalf("events=%d seed=%d ev=%d: resolve Step: %v", events, seed, i, err)
				}
				if rr.Outcome != Rejected && er.Outcome == Rejected {
					t.Fatalf("events=%d seed=%d ev=%d (%v): resolve feasible but repair rejected: %v",
						events, seed, i, ev.Kind, er.Err)
				}
				if er.Moved < 0 || er.Moved > er.Ops {
					t.Fatalf("events=%d seed=%d ev=%d: moved=%d outside [0, ops=%d]",
						events, seed, i, er.Moved, er.Ops)
				}
				// The incumbent must re-validate from scratch after
				// every event, answered or rejected.
				if err := rep.IncumbentInto(&m); err != nil {
					t.Fatalf("events=%d seed=%d ev=%d: rebuild incumbent: %v", events, seed, i, err)
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("events=%d seed=%d ev=%d: incumbent invalid after %v/%v: %v",
						events, seed, i, ev.Kind, er.Outcome, err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("events=%d seed=%d ev=%d: incumbent invariants: %v", events, seed, i, err)
				}
				if math.Abs(m.Cost()-er.Cost) > mapping.Eps {
					t.Fatalf("events=%d seed=%d ev=%d: rebuilt incumbent cost %v != reported %v",
						events, seed, i, m.Cost(), er.Cost)
				}
			}
		}
	}
}

// TestRepairFallbackFires pins that the re-solve fallback is live code:
// on a tight upward-drifting corpus, at least one event must be
// answered by each path (journaled repair and the constructive
// fallback).
func TestRepairFallbackFires(t *testing.T) {
	repaired, resolved := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := tightConfig()
		cfg.Events = 10
		cfg.DriftMax = 2.5
		cfg.RhoMax = 12
		sc := NewScenario(cfg, seed)
		res, err := RunScenario(context.Background(), sc, Options{Policy: PolicyRepair, Seed: seed})
		if err != nil {
			if errors.Is(err, heuristics.ErrInfeasible) {
				continue
			}
			t.Fatalf("seed=%d: %v", seed, err)
		}
		repaired += res.Repaired
		resolved += res.Resolved
	}
	if repaired == 0 {
		t.Error("no event was answered by local repair across the corpus")
	}
	if resolved == 0 {
		t.Error("the re-solve fallback never fired across the corpus; tighten the scenario")
	}
}

// TestRejectedEventLeavesIncumbent: an inapplicable or infeasible event
// is rejected with the pre-event incumbent untouched, and the engine
// keeps answering later events.
func TestRejectedEventLeavesIncumbent(t *testing.T) {
	cfg := tightConfig()
	sc := NewScenario(cfg, 3)
	e := NewEngine(Options{Policy: PolicyRepair, Seed: 3})
	if err := e.Start(sc); err != nil {
		t.Fatal(err)
	}
	cost, procs, apps := e.Cost(), e.Procs(), e.Apps()
	bad := []Event{
		{Kind: Depart, Slot: 99},
		{Kind: Drift, Slot: 0, Factor: -1},
		{Kind: Arrive, NumOps: 0},
		{Kind: Drift, Slot: 0, Factor: 1e9}, // overloads every catalog entry
	}
	for i, ev := range bad {
		er, err := e.Step(context.Background(), ev)
		if err != nil {
			t.Fatalf("bad event %d: unexpected hard error: %v", i, err)
		}
		if er.Outcome != Rejected || er.Err == nil {
			t.Fatalf("bad event %d: want rejection with reason, got %v (%v)", i, er.Outcome, er.Err)
		}
		if e.Cost() != cost || e.Procs() != procs || e.Apps() != apps {
			t.Fatalf("bad event %d: rejection mutated the incumbent", i)
		}
	}
	er, err := e.Step(context.Background(), Event{Kind: Drift, Slot: 0, Factor: 1.1})
	if err != nil || er.Outcome == Rejected {
		t.Fatalf("engine did not recover after rejections: %v %v", er.Outcome, err)
	}
}

// TestStepContextCancel: a cancelled context rejects the event, leaves
// the pre-event incumbent untouched, and surfaces the context error.
func TestStepContextCancel(t *testing.T) {
	cfg := tightConfig()
	sc := NewScenario(cfg, 5)
	e := NewEngine(Options{Policy: PolicyRepair, Seed: 5})
	if err := e.Start(sc); err != nil {
		t.Fatal(err)
	}
	cost, procs := e.Cost(), e.Procs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	er, err := e.Step(ctx, sc.Events[0])
	if err == nil || er.Outcome != Rejected {
		t.Fatalf("cancelled Step: want rejection with error, got %v (%v)", er.Outcome, err)
	}
	if e.Cost() != cost || e.Procs() != procs {
		t.Fatal("cancelled Step mutated the incumbent")
	}
	// The same engine answers the same event once the pressure is off.
	er, err = e.Step(context.Background(), sc.Events[0])
	if err != nil || er.Outcome == Rejected {
		t.Fatalf("Step after cancellation: %v (%v)", er.Outcome, err)
	}
	// Run with a pre-cancelled context returns the partial trace and
	// the context error.
	res, err := RunScenario(ctx, sc, Options{Policy: PolicyRepair, Seed: 5})
	if err == nil {
		t.Fatal("RunScenario ignored a cancelled context")
	}
	if len(res.Events) != 1 || res.Rejected != 1 {
		t.Fatalf("cancelled RunScenario: want exactly one rejected event in the trace, got %+v", res)
	}
}

// flipCtx is a context whose Err reports context.Canceled from its n-th
// call on, so a test can cancel at an exact check point.
type flipCtx struct {
	context.Context
	calls, n int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestResolveHonoursContext: the re-solve paths read the event's
// context. Step checks it once on entry and the portfolio once before
// each heuristic, so a context whose Err flips on its third call cancels
// right after the first heuristic. The event must be rejected with the
// context error and the incumbent left exactly as it was.
func TestResolveHonoursContext(t *testing.T) {
	sc := NewScenario(tightConfig(), 5)
	e := NewEngine(Options{Policy: PolicyResolve, Seed: 5})
	if err := e.Start(sc); err != nil {
		t.Fatal(err)
	}
	var m mapping.Mapping
	incumbent := func() (float64, []mapping.Proc, []int) {
		t.Helper()
		if err := e.IncumbentInto(&m); err != nil {
			t.Fatal(err)
		}
		return m.Cost(), slices.Clone(m.Procs), slices.Clone(m.Assign)
	}
	cost, procs, assign := incumbent()

	ctx := &flipCtx{Context: context.Background(), n: 3}
	er, err := e.Step(ctx, sc.Events[0])
	if ctx.calls < ctx.n {
		t.Fatalf("the context was read %d times; the cancellation never fired", ctx.calls)
	}
	if er.Outcome != Rejected || !errors.Is(err, context.Canceled) || !errors.Is(er.Err, context.Canceled) {
		t.Fatalf("cancelled re-solve: got %v, err %v, er.Err %v; want a rejection with context.Canceled",
			er.Outcome, err, er.Err)
	}
	gotCost, gotProcs, gotAssign := incumbent()
	if gotCost != cost || !slices.Equal(gotProcs, procs) || !slices.Equal(gotAssign, assign) {
		t.Fatal("cancelled re-solve changed the incumbent")
	}
}

// TestRepairMovesFewerOps: over the tight corpus, journaled repair must
// migrate strictly fewer surviving operators in total than answering
// the same streams by from-scratch re-solves — the headline claim of
// the churn figure.
func TestRepairMovesFewerOps(t *testing.T) {
	movedRep, movedRes := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := tightConfig()
		cfg.Events = 10
		sc := NewScenario(cfg, seed)
		rep, err := RunScenario(context.Background(), sc, Options{Policy: PolicyRepair, Seed: seed})
		if err != nil {
			if errors.Is(err, heuristics.ErrInfeasible) {
				continue
			}
			t.Fatalf("seed=%d repair: %v", seed, err)
		}
		res, err := RunScenario(context.Background(), sc, Options{Policy: PolicyResolve, Seed: seed})
		if err != nil {
			t.Fatalf("seed=%d resolve: %v", seed, err)
		}
		movedRep += rep.Moved
		movedRes += res.Moved
	}
	if movedRep >= movedRes {
		t.Errorf("repair moved %d operators, full re-solve moved %d; repair must move strictly fewer",
			movedRep, movedRes)
	}
}
