// Package churn models dynamic workloads — applications arriving and
// departing, operator rates drifting — on top of the paper's static
// allocation problem, and answers each change by journaled local repair
// on the live mapping instead of a from-scratch solve.
//
// A Scenario is a deterministic seeded event stream applied to a shared
// Workload. The Engine holds the live incumbent allocation and answers
// every Event with one of two policies: PolicyRepair transplants the
// incumbent onto the post-event instance, unplaces only the operators
// the event invalidated, re-places them greedily through the move
// journal and runs a budgeted refinement pass (falling back to a full
// constructive re-solve when repair finds no feasible completion);
// PolicyResolve re-solves every event from scratch with the six-way
// constructive portfolio. Both policies install only validated
// mappings, so the incumbent is never invalid, and a rejected event
// leaves the pre-event incumbent untouched.
package churn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/instance"
	"repro/internal/multiapp"
	"repro/internal/rng"
)

// EventKind enumerates the dynamic changes a Scenario can apply.
type EventKind int

const (
	// Arrive adds a new application (a fresh random tree) to the
	// platform.
	Arrive EventKind = iota
	// Depart removes a live application; its operators are unplaced and
	// emptied processors are sold.
	Depart
	// Drift multiplies one live application's throughput target,
	// rescaling every operator's work and traffic.
	Drift
)

// String names the kind for logs and serve responses.
func (k EventKind) String() string {
	switch k {
	case Arrive:
		return "arrive"
	case Depart:
		return "depart"
	case Drift:
		return "drift"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one dynamic change. Only the fields of its kind are
// meaningful: an arrival carries the new application (NumOps operators
// drawn from TreeSeed, target Rho), a departure the Slot of the leaving
// application, a drift the Slot plus the multiplicative Factor applied
// to its target. Slots index the engine's live application list in
// arrival order.
type Event struct {
	Kind EventKind

	NumOps   int     // Arrive: tree size (>= 1)
	TreeSeed int64   // Arrive: drives the random tree
	Rho      float64 // Arrive: throughput target (<= 0 means 1)

	Slot int // Depart, Drift: live application index

	Factor float64 // Drift: target multiplier (> 0)
}

// DriftModel selects how drift factors are drawn.
type DriftModel int

const (
	// DriftBoth draws factors uniformly in [1/DriftMax, DriftMax].
	DriftBoth DriftModel = iota
	// DriftUp draws factors uniformly in [1, DriftMax]: rates only grow.
	DriftUp
	// DriftDown draws factors uniformly in [1/DriftMax, 1].
	DriftDown
)

// AppSpec describes one application of a generated scenario: the engine
// builds its tree from TreeSeed at arrival time on reusable arenas.
type AppSpec struct {
	NumOps   int
	TreeSeed int64
	Rho      float64
}

// Scenario is a fully materialized dynamic workload: the shared object
// universe and platform, the applications live at t=0, and the event
// stream. Everything is plain data — a Scenario is immutable under Run
// and safe to share across engines.
type Scenario struct {
	Workload multiapp.Workload
	Initial  []AppSpec
	Events   []Event
}

// ScenarioConfig parameterizes NewScenario. The zero value means "use
// the defaults" field by field.
type ScenarioConfig struct {
	InitialApps int // applications live at t=0 (default 3)
	Events      int // events in the stream (default 8)

	MinOps, MaxOps int     // application tree sizes (defaults 5 and 9)
	Rho            float64 // initial per-application target (default 1)

	// Event mix: arrivals and departures as fractions of the stream;
	// the remaining mass is drift. Defaults 0.25 and 0.2.
	ArriveFrac, DepartFrac float64
	MaxApps                int // arrivals beyond this many live apps become drift (default 6)

	Drift          DriftModel
	DriftMax       float64 // max multiplicative step per drift event (default 1.25)
	RhoMin, RhoMax float64 // factors are clamped to keep targets here (defaults 0.25 and 4)

	// Base seeds the shared object universe and platform (its NumOps
	// and Rho are ignored); the zero value uses the paper defaults.
	Base instance.Config
}

// WithDefaults returns c with every zero field replaced by its default
// (and MaxOps raised to MinOps when below it): the configuration
// NewScenario actually generates from.
func (c ScenarioConfig) WithDefaults() ScenarioConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.InitialApps, 3)
	def(&c.Events, 8)
	def(&c.MinOps, 5)
	def(&c.MaxOps, 9)
	def(&c.MaxApps, 6)
	deff(&c.Rho, 1)
	deff(&c.ArriveFrac, 0.25)
	deff(&c.DepartFrac, 0.2)
	deff(&c.DriftMax, 1.25)
	deff(&c.RhoMin, 0.25)
	deff(&c.RhoMax, 4)
	if c.MaxOps < c.MinOps {
		c.MaxOps = c.MinOps
	}
	return c
}

// NewScenario generates a deterministic scenario: the same (cfg, seed)
// produces the identical workload, initial applications and event
// stream on every machine. The generator tracks the live application
// count and each application's drifted target, so every emitted event
// is applicable when replayed in order (departures never empty the
// platform, drift factors keep targets within [RhoMin, RhoMax]).
func NewScenario(cfg ScenarioConfig, seed int64) *Scenario {
	cfg = cfg.WithDefaults()

	// The object universe and platform come from the standard instance
	// generator (sizes, frequencies, holders), on a decorrelated stream.
	bc := cfg.Base
	bc.NumOps = cfg.MaxOps
	base := instance.Generate(bc, rng.SeedFor(seed, "churn:universe"))
	sc := &Scenario{Workload: multiapp.Workload{
		NumTypes: base.NumTypes,
		Sizes:    base.Sizes,
		Freqs:    base.Freqs,
		Holders:  base.Holders,
		Platform: base.Platform,
		Alpha:    base.Alpha,
	}}

	r := rng.Derive(seed, "churn:events")
	size := func() int { return cfg.MinOps + r.Intn(cfg.MaxOps-cfg.MinOps+1) }
	var rhos []float64
	for i := 0; i < cfg.InitialApps; i++ {
		sc.Initial = append(sc.Initial, AppSpec{NumOps: size(), TreeSeed: r.Int63(), Rho: cfg.Rho})
		rhos = append(rhos, cfg.Rho)
	}

	for len(sc.Events) < cfg.Events {
		u := r.Float64()
		switch {
		case u < cfg.ArriveFrac && len(rhos) < cfg.MaxApps:
			sc.Events = append(sc.Events, Event{Kind: Arrive, NumOps: size(), TreeSeed: r.Int63(), Rho: cfg.Rho})
			rhos = append(rhos, cfg.Rho)
		case u < cfg.ArriveFrac+cfg.DepartFrac && len(rhos) > 1:
			slot := r.Intn(len(rhos))
			sc.Events = append(sc.Events, Event{Kind: Depart, Slot: slot})
			rhos = append(rhos[:slot], rhos[slot+1:]...)
		default:
			slot := r.Intn(len(rhos))
			f := driftFactor(r, cfg)
			// Clamp so the drifted target stays within the configured
			// band (and strictly positive).
			f = math.Min(f, cfg.RhoMax/rhos[slot])
			f = math.Max(f, cfg.RhoMin/rhos[slot])
			sc.Events = append(sc.Events, Event{Kind: Drift, Slot: slot, Factor: f})
			rhos[slot] *= f
		}
	}
	return sc
}

func driftFactor(r *rand.Rand, cfg ScenarioConfig) float64 {
	switch cfg.Drift {
	case DriftUp:
		return 1 + r.Float64()*(cfg.DriftMax-1)
	case DriftDown:
		lo := 1 / cfg.DriftMax
		return lo + r.Float64()*(1-lo)
	default:
		lo := 1 / cfg.DriftMax
		return lo + r.Float64()*(cfg.DriftMax-lo)
	}
}
