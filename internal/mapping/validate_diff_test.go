package mapping_test

import (
	"fmt"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/platform"
)

// diffInstances are the 25 (N, alpha) cells of Figures 2(a), 2(b) and 3
// with two seeds each on the default catalog, plus the Figure 2(a) cells
// on a homogeneous catalog.
func diffInstances() map[string]*instance.Instance {
	type cell struct {
		n     int
		alpha float64
	}
	var cells []cell
	for _, alpha := range []float64{0.9, 1.7} {
		for n := 20; n <= 140; n += 20 {
			cells = append(cells, cell{n, alpha})
		}
	}
	for a := 5; a <= 25; a += 2 {
		cells = append(cells, cell{60, float64(a) / 10})
	}
	out := map[string]*instance.Instance{}
	for _, c := range cells {
		for seed := int64(1); seed <= 2; seed++ {
			out[fmt.Sprintf("N=%d,alpha=%g,seed=%d", c.n, c.alpha, seed)] =
				instance.Generate(instance.Config{NumOps: c.n, Alpha: c.alpha}, seed)
		}
	}
	for n := 20; n <= 140; n += 20 {
		p := platform.DefaultPlatform()
		p.Catalog = platform.Homogeneous(2, 3)
		out[fmt.Sprintf("hom/N=%d", n)] = instance.Generate(instance.Config{NumOps: n, Alpha: 0.9, Platform: p}, 3)
	}
	return out
}

// withPlatform returns m on a copy of its instance whose platform is a
// deep copy that edit may shrink.
func withPlatform(m *mapping.Mapping, edit func(*platform.Platform)) *mapping.Mapping {
	in := *m.Inst
	p := *in.Platform
	cat := *p.Catalog
	cat.CPUs = append([]platform.CPUOption(nil), cat.CPUs...)
	cat.NICs = append([]platform.NICOption(nil), cat.NICs...)
	p.Catalog = &cat
	p.Servers = append([]platform.Server(nil), p.Servers...)
	edit(&p)
	in.Platform = &p
	c := m.Clone()
	c.Inst = &in
	return c
}

// mutants derives broken and tightened variants of a valid mapping: a
// direct Assign write that bypasses Place, a bumped leaf refcount, a
// deleted, spurious or non-holder download, and shrunk CPU, NIC, server
// NIC and link capacities (scaled to the mapping's own peak loads, so
// some variants stay feasible and some do not).
func mutants(m *mapping.Mapping) map[string]*mapping.Mapping {
	in := m.Inst
	out := map[string]*mapping.Mapping{}
	alive := mapping.AliveList(m)
	p0, pN := alive[0], -1 // pN: the last processor with a download
	for _, p := range alive {
		if len(m.DL[p]) > 0 {
			pN = p
		}
	}

	c := m.Clone()
	c.Assign[len(c.Assign)-1] = p0
	out["assign-write"] = c
	c = m.Clone()
	c.Assign[0] = mapping.Unassigned
	out["assign-unassign"] = c

	need := m.NeededObjects(pN)
	k := need[len(need)-1]
	c = m.Clone()
	mapping.BumpObjRef(c, pN, k)
	out["objref-bump"] = c
	c = m.Clone()
	mapping.BumpObjRef(c, pN, (k+1)%in.NumTypes)
	out["objref-bump-other"] = c

	c = m.Clone()
	delete(c.DL[pN], k)
	out["dl-deleted"] = c
	for spur := 0; spur < in.NumTypes; spur++ {
		if _, ok := m.DL[pN][spur]; !ok && len(in.Holders[spur]) > 0 {
			c = m.Clone()
			c.DL[pN][spur] = in.Holders[spur][0]
			out["dl-spurious"] = c
			c = m.Clone()
			delete(c.DL[pN], k)
			c.DL[pN][spur] = in.Holders[spur][0]
			out["dl-swapped"] = c
			break
		}
	}
	for l := range in.Platform.Servers {
		holds := false
		for _, h := range in.Holders[k] {
			holds = holds || h == l
		}
		if !holds {
			c = m.Clone()
			c.DL[pN][k] = l
			out["dl-non-holder"] = c
			break
		}
	}
	c = m.Clone()
	c.DL[pN][k] = mapping.NoServer
	out["dl-no-server"] = c

	var maxSrv, maxSrvLink, maxProcLink float64
	for l := range in.Platform.Servers {
		maxSrv = max(maxSrv, m.ServerLoad(l))
		for _, p := range alive {
			maxSrvLink = max(maxSrvLink, m.ServerLinkLoad(l, p))
		}
	}
	for _, p := range alive {
		for _, q := range alive {
			maxProcLink = max(maxProcLink, m.LinkTraffic(p, q))
		}
	}
	for _, f := range []float64{0.5, 0.9, 0.97, 1} {
		out[fmt.Sprintf("cpu*%g", f)] = withPlatform(m, func(p *platform.Platform) {
			for i := range p.Catalog.CPUs {
				p.Catalog.CPUs[i].SpeedGHz *= f
			}
		})
		out[fmt.Sprintf("nic*%g", f)] = withPlatform(m, func(p *platform.Platform) {
			for i := range p.Catalog.NICs {
				p.Catalog.NICs[i].Gbps *= f
			}
		})
		out[fmt.Sprintf("server-nic=%g*peak", f)] = withPlatform(m, func(p *platform.Platform) {
			for l := range p.Servers {
				p.Servers[l].NICMBps = f * maxSrv
			}
		})
		out[fmt.Sprintf("server-link=%g*peak", f)] = withPlatform(m, func(p *platform.Platform) {
			p.ServerLinkMBps = f * maxSrvLink
		})
		out[fmt.Sprintf("proc-link=%g*peak", f)] = withPlatform(m, func(p *platform.Platform) {
			p.ProcLinkMBps = f * maxProcLink
		})
	}
	return out
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestValidateMatchesReference holds the single-pass CheckInvariants and
// Validate to the historical per-processor full-walk checker: on every
// heuristic's mapping of every cell, and on every mutant of it, both
// return nil or the same error string.
func TestValidateMatchesReference(t *testing.T) {
	valid, failing := 0, map[string]int{}
	for name, in := range diffInstances() {
		for _, h := range heuristics.All() {
			res, err := heuristics.Solve(in, h, heuristics.Options{Seed: 7})
			if err != nil {
				continue
			}
			valid++
			cases := mutants(res.Mapping)
			cases["valid"] = res.Mapping
			for mut, m := range cases {
				ref := m.Clone()
				if got, want := m.CheckInvariants(), mapping.ReferenceCheckInvariants(ref); !sameErr(got, want) {
					t.Fatalf("%s/%s/%s: CheckInvariants = %v, reference %v", name, h.Name(), mut, got, want)
				}
				got, want := m.Validate(), mapping.ReferenceValidate(ref)
				if !sameErr(got, want) {
					t.Fatalf("%s/%s/%s: Validate = %v, reference %v", name, h.Name(), mut, got, want)
				}
				if mut == "valid" && got != nil {
					t.Fatalf("%s/%s: solved mapping fails Validate: %v", name, h.Name(), got)
				}
				if got != nil {
					failing[mut]++
				}
			}
		}
	}
	// Every mutant kind must have produced a violation somewhere, or the
	// comparison never exercised that check's error path.
	if valid < 200 {
		t.Fatalf("only %d solved mappings", valid)
	}
	for _, mut := range []string{"assign-write", "assign-unassign", "objref-bump", "objref-bump-other",
		"dl-deleted", "dl-spurious", "dl-swapped", "dl-non-holder", "dl-no-server",
		"cpu*0.5", "nic*0.5", "server-nic=0.5*peak", "server-link=0.5*peak", "proc-link=0.5*peak"} {
		if failing[mut] == 0 {
			t.Errorf("mutant %s never failed Validate", mut)
		}
	}
}
