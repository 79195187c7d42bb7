// Package bounds computes provable lower bounds on the platform cost of
// an instance, used to assess the absolute performance of the heuristics
// (the role CPLEX's optimal solutions play in the paper's last
// experiment).
//
// All bounds are sound: no feasible mapping can cost less. They are not
// tight in general — tightness comes from the exact/ILP solvers on small
// instances.
package bounds

import (
	"math"
	"math/bits"

	"repro/internal/instance"
	"repro/internal/platform"
)

// TotalWork returns rho times the summed work of all operators, in
// work-units/s: the aggregate compute rate any platform must provide.
func TotalWork(in *instance.Instance) float64 {
	total := 0.0
	for _, w := range in.W {
		total += in.Rho * w
	}
	return total
}

// TotalDownload returns the summed download rate of every object type the
// tree uses, in MB/s. Every used type must be downloaded by at least one
// processor, so the platform's aggregate NIC bandwidth must cover it.
//
// The rates are summed in ascending object order, like a walk over
// Tree.ObjectSet, but the used types are marked in a stack bitset one
// window of types at a time, so the sum allocates nothing.
func TotalDownload(in *instance.Instance) float64 {
	const window = 512
	total := 0.0
	for base := 0; base < in.NumTypes; base += window {
		var used [window / 64]uint64
		for _, l := range in.Tree.Leaves {
			if k := l.Object - base; k >= 0 && k < window {
				used[k/64] |= 1 << (k % 64)
			}
		}
		for w, word := range used {
			for ; word != 0; word &= word - 1 {
				total += in.Rate(base + 64*w + bits.TrailingZeros64(word))
			}
		}
	}
	return total
}

// MinProcessors returns a lower bound on the number of processors any
// feasible mapping purchases: enough aggregate CPU for the total work and
// enough aggregate NIC for the mandatory downloads, given that a single
// processor provides at most the catalog's best CPU and widest NIC.
func MinProcessors(in *instance.Instance) int {
	return minProcessors(in.Platform.Catalog, TotalWork(in), TotalDownload(in))
}

func minProcessors(cat *platform.Catalog, work, download float64) int {
	best := cat.MostExpensive()
	n := 1
	if c := int(math.Ceil(work/cat.SpeedUnits(best) - 1e-9)); c > n {
		n = c
	}
	if c := int(math.Ceil(download/cat.BandwidthMBps(best) - 1e-9)); c > n {
		n = c
	}
	return n
}

// CostLowerBound returns a lower bound on the total platform cost in
// dollars. It combines three sound ingredients:
//
//   - every processor costs at least the cheapest configuration,
//   - aggregate CPU capacity must reach TotalWork; capacity beyond the
//     base CPU included with each chassis costs at least the catalog's
//     best marginal $/unit (the minimum slope from the base option, which
//     under-estimates every real option by construction),
//   - symmetrically for NIC capacity versus TotalDownload.
func CostLowerBound(in *instance.Instance) float64 {
	cat := in.Platform.Catalog
	work, download := TotalWork(in), TotalDownload(in)
	n := float64(minProcessors(cat, work, download))
	cheapest := cat.Cost(platform.Config{})
	cost := n * cheapest

	// Marginal cost of CPU capacity beyond n base CPUs.
	baseSpeed := cat.SpeedUnits(platform.Config{})
	if extra := work - n*baseSpeed; extra > 0 {
		cost += extra * minSlopeCPU(cat)
	}
	baseNIC := cat.BandwidthMBps(platform.Config{})
	if extra := download - n*baseNIC; extra > 0 {
		cost += extra * minSlopeNIC(cat)
	}
	return cost
}

// minSlopeCPU returns the smallest upcharge per extra work-unit/s over the
// base CPU option; every catalog option lies on or above the line from the
// base option with this slope, so charging it under-estimates all choices.
func minSlopeCPU(cat *platform.Catalog) float64 {
	base := cat.CPUs[0]
	slope := math.Inf(1)
	for _, o := range cat.CPUs[1:] {
		extra := (o.SpeedGHz - base.SpeedGHz) * platform.WorkUnitsPerGHz
		if extra > 0 {
			if s := (o.Upcharge - base.Upcharge) / extra; s < slope {
				slope = s
			}
		}
	}
	if math.IsInf(slope, 1) {
		return 0 // single option: no purchasable extra capacity to price
	}
	return slope
}

// minSlopeNIC is minSlopeCPU for network cards, in $ per extra MB/s.
func minSlopeNIC(cat *platform.Catalog) float64 {
	base := cat.NICs[0]
	slope := math.Inf(1)
	for _, o := range cat.NICs[1:] {
		extra := o.MBps() - base.MBps()
		if extra > 0 {
			if s := (o.Upcharge - base.Upcharge) / extra; s < slope {
				slope = s
			}
		}
	}
	if math.IsInf(slope, 1) {
		return 0
	}
	return slope
}
