// Package platform models the "constructive" compute platform of Benoit
// et al.: processors are purchased (or rented) from a price catalog of CPU
// and network-card options, data servers are fixed and free, and all
// resources obey the full-overlap bounded multi-port model.
//
// The default catalog reproduces the paper's Table 1 exactly (Dell
// PowerEdge R900 configurations, March 2008): a base chassis at $7,548
// plus a CPU upcharge and a NIC upcharge.
//
// # Units
//
// The paper mixes GB and Gb and leaves the GHz-to-operations scale
// implicit; this package fixes the units used throughout the repository:
//
//   - data sizes are in MB,
//   - bandwidths are in MB/s (catalog NICs are Gbps x 125),
//   - CPU work is in abstract work-units, with a processor of speed s GHz
//     sustaining s x WorkUnitsPerGHz units/s.
//
// WorkUnitsPerGHz is the single calibration constant of the reproduction.
// The paper leaves the GHz-to-work scale unstated, so the constant was
// chosen to put the feasibility thresholds in alpha where the paper
// reports them: 60-operator trees stop being mappable just above
// alpha = 1.8, 20-operator trees just above 2.1-2.2, and at alpha = 1.7
// no mapping exists beyond roughly 80-90 operators.
package platform

import "fmt"

// BaseChassisCost is the Table 1 base price in dollars shared by every
// processor configuration.
const BaseChassisCost = 7548.0

// WorkUnitsPerGHz converts catalog GHz figures into work-units/s; work for
// an operator is (delta_l+delta_r)^alpha with delta in MB.
//
// The value 6000 makes the fastest CPU sustain 46.88 x 6000 = 281,280
// units/s, which places the paper's three reported feasibility anchors
// where it reports them: trees of 60 operators become unmappable just
// above alpha = 1.8 (root work (1068 MB)^1.8 = 2.8e5), trees of 20
// operators just above alpha = 2.1-2.2, and at alpha = 1.7 mappings
// disappear beyond roughly 80-90 operators.
const WorkUnitsPerGHz = 6000.0

// MBpsPerGbps converts the catalog's Gbps NIC figures to MB/s.
const MBpsPerGbps = 125.0

// CPUOption is one row of the CPU half of Table 1.
type CPUOption struct {
	SpeedGHz float64 // aggregate compute speed
	Upcharge float64 // dollars on top of the base chassis
}

// NICOption is one row of the network-card half of Table 1.
type NICOption struct {
	Gbps     float64
	Upcharge float64
}

// MBps returns the NIC bandwidth in MB/s.
func (n NICOption) MBps() float64 { return n.Gbps * MBpsPerGbps }

// Config identifies a purchasable processor configuration by its CPU and
// NIC indices into a Catalog.
type Config struct {
	CPU int
	NIC int
}

// Catalog is the set of purchasable CPU and NIC options. CPUs and NICs
// must each be sorted by non-decreasing capability (the constructors
// guarantee this for the defaults).
type Catalog struct {
	CPUs []CPUOption
	NICs []NICOption
	Base float64 // chassis cost added to every configuration
}

// Default returns the paper's Table 1 catalog (CONSTR-LAN: all 25 CPU x
// NIC combinations are purchasable).
func Default() *Catalog {
	return &Catalog{
		CPUs: []CPUOption{
			{SpeedGHz: 11.72, Upcharge: 0},
			{SpeedGHz: 19.20, Upcharge: 1550},
			{SpeedGHz: 25.60, Upcharge: 2399},
			{SpeedGHz: 38.40, Upcharge: 3949},
			{SpeedGHz: 46.88, Upcharge: 5299},
		},
		NICs: []NICOption{
			{Gbps: 1, Upcharge: 0},
			{Gbps: 2, Upcharge: 399},
			{Gbps: 4, Upcharge: 1197},
			{Gbps: 10, Upcharge: 2800},
			{Gbps: 20, Upcharge: 5999},
		},
		Base: BaseChassisCost,
	}
}

// Homogeneous returns a single-configuration catalog (the paper's
// CONSTR-HOM scenario) built from the given option of the default catalog.
func Homogeneous(cpu, nic int) *Catalog {
	d := Default()
	return &Catalog{
		CPUs: []CPUOption{d.CPUs[cpu]},
		NICs: []NICOption{d.NICs[nic]},
		Base: d.Base,
	}
}

// Homogeneous reports whether the catalog offers a single configuration.
func (c *Catalog) Homogeneous() bool { return len(c.CPUs) == 1 && len(c.NICs) == 1 }

// Validate checks catalog sanity: non-empty, positive capabilities,
// options sorted by capability with costs non-decreasing.
func (c *Catalog) Validate() error {
	if len(c.CPUs) == 0 || len(c.NICs) == 0 {
		return fmt.Errorf("platform: catalog needs at least one CPU and one NIC option")
	}
	for i, o := range c.CPUs {
		if o.SpeedGHz <= 0 || o.Upcharge < 0 {
			return fmt.Errorf("platform: CPU option %d has invalid values %+v", i, o)
		}
		if i > 0 && (o.SpeedGHz < c.CPUs[i-1].SpeedGHz || o.Upcharge < c.CPUs[i-1].Upcharge) {
			return fmt.Errorf("platform: CPU options not sorted at %d", i)
		}
	}
	for i, o := range c.NICs {
		if o.Gbps <= 0 || o.Upcharge < 0 {
			return fmt.Errorf("platform: NIC option %d has invalid values %+v", i, o)
		}
		if i > 0 && (o.Gbps < c.NICs[i-1].Gbps || o.Upcharge < c.NICs[i-1].Upcharge) {
			return fmt.Errorf("platform: NIC options not sorted at %d", i)
		}
	}
	if c.Base < 0 {
		return fmt.Errorf("platform: negative base cost")
	}
	return nil
}

// Cost returns the purchase price of a configuration in dollars.
func (c *Catalog) Cost(cfg Config) float64 {
	return c.Base + c.CPUs[cfg.CPU].Upcharge + c.NICs[cfg.NIC].Upcharge
}

// SpeedUnits returns the configuration's compute rate in work-units/s.
func (c *Catalog) SpeedUnits(cfg Config) float64 {
	return c.CPUs[cfg.CPU].SpeedGHz * WorkUnitsPerGHz
}

// BandwidthMBps returns the configuration's NIC bandwidth in MB/s.
func (c *Catalog) BandwidthMBps(cfg Config) float64 {
	return c.NICs[cfg.NIC].MBps()
}

// MostExpensive returns the most powerful (and priciest) configuration:
// fastest CPU with the widest NIC. The placement heuristics buy these
// first and rely on the later downgrade step for cost.
func (c *Catalog) MostExpensive() Config {
	return Config{CPU: len(c.CPUs) - 1, NIC: len(c.NICs) - 1}
}

// CheapestFitting returns the least expensive configuration able to
// sustain the given compute load (work-units/s) and NIC load (MB/s), and
// whether one exists. Ties are broken toward smaller capability.
func (c *Catalog) CheapestFitting(workUnits, bwMBps float64) (Config, bool) {
	best := Config{}
	bestCost := -1.0
	for ci := range c.CPUs {
		if c.CPUs[ci].SpeedGHz*WorkUnitsPerGHz < workUnits {
			continue
		}
		for ni := range c.NICs {
			if c.NICs[ni].MBps() < bwMBps {
				continue
			}
			cost := c.Cost(Config{ci, ni})
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best = Config{ci, ni}
			}
			break // NICs sorted by cost: the first fitting NIC is cheapest for this CPU
		}
	}
	return best, bestCost >= 0
}

// Server is a fixed data server with a NIC of the given bandwidth. Servers
// are not purchased; they host and continuously update basic objects.
type Server struct {
	NICMBps float64
}

// Platform bundles the purchase catalog with the fixed data-server fleet
// and the (uniform) link bandwidths of the paper's model: every
// server-to-processor link has bandwidth ServerLinkMBps (the paper's bs)
// and every processor-to-processor link ProcLinkMBps (bp).
type Platform struct {
	Catalog        *Catalog
	Servers        []Server
	ServerLinkMBps float64
	ProcLinkMBps   float64
}

// DefaultPlatform returns the paper's Section 5 setting: 6 servers with
// 10 GB/s NICs, and 1 GB/s links between all resources, over the Table 1
// catalog.
func DefaultPlatform() *Platform {
	servers := make([]Server, 6)
	for i := range servers {
		servers[i] = Server{NICMBps: 10000}
	}
	return &Platform{
		Catalog:        Default(),
		Servers:        servers,
		ServerLinkMBps: 1000,
		ProcLinkMBps:   1000,
	}
}

// Validate checks platform sanity.
func (p *Platform) Validate() error {
	if p.Catalog == nil {
		return fmt.Errorf("platform: nil catalog")
	}
	if err := p.Catalog.Validate(); err != nil {
		return err
	}
	if len(p.Servers) == 0 {
		return fmt.Errorf("platform: no data servers")
	}
	for i, s := range p.Servers {
		if s.NICMBps <= 0 {
			return fmt.Errorf("platform: server %d has non-positive NIC bandwidth", i)
		}
	}
	if p.ServerLinkMBps <= 0 || p.ProcLinkMBps <= 0 {
		return fmt.Errorf("platform: non-positive link bandwidth")
	}
	return nil
}
