package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workloads"
)

// refLevel is the reference LRU for one cache level: a plain
// MRU-first list of line numbers per (instance, set), updated by
// deleting and prepending.
type refLevel struct {
	sets, ways int
	lineSize   uint64
	lists      [][]uint64 // [instance*sets+set]
}

func newRefLevel(instances, sets, ways int, lineSize units.Bytes) *refLevel {
	return &refLevel{sets: sets, ways: ways, lineSize: uint64(lineSize),
		lists: make([][]uint64, instances*sets)}
}

func (r *refLevel) access(inst int, addr uint64) bool {
	line := addr / r.lineSize
	i := inst*r.sets + int(line%uint64(r.sets))
	l := r.lists[i]
	hit := false
	for j, x := range l {
		if x == line {
			l = append(l[:j:j], l[j+1:]...)
			hit = true
			break
		}
	}
	if !hit && len(l) == r.ways {
		l = l[:len(l)-1]
	}
	r.lists[i] = append([]uint64{line}, l...)
	return hit
}

// refHierarchy restates Hierarchy.Access's lookup order over refLevels:
// the CPU's L1 and L2, its domain's L3, a snoop of a remote home's L3,
// then DRAM classified by the home.
type refHierarchy struct {
	topo       *topology.Machine
	l1, l2, l3 *refLevel
	counts     map[cache.DataSource]uint64
}

func newRefHierarchy(topo *topology.Machine, cfg cache.Config) *refHierarchy {
	cpus, doms := topo.NumCPUs(), topo.NumDomains()
	return &refHierarchy{
		topo:   topo,
		l1:     newRefLevel(cpus, cfg.L1Sets, cfg.L1Ways, cfg.LineSize),
		l2:     newRefLevel(cpus, cfg.L2Sets, cfg.L2Ways, cfg.LineSize),
		l3:     newRefLevel(doms, cfg.L3Sets, cfg.L3Ways, cfg.LineSize),
		counts: map[cache.DataSource]uint64{},
	}
}

func (r *refHierarchy) access(cpu topology.CPUID, addr uint64, home topology.DomainID) cache.DataSource {
	src := r.classify(cpu, addr, home)
	r.counts[src]++
	return src
}

func (r *refHierarchy) classify(cpu topology.CPUID, addr uint64, home topology.DomainID) cache.DataSource {
	local := r.topo.DomainOfCPU(cpu)
	if local != topology.NoDomain {
		switch {
		case r.l1.access(int(cpu), addr):
			return cache.SrcL1
		case r.l2.access(int(cpu), addr):
			return cache.SrcL2
		case r.l3.access(int(local), addr):
			return cache.SrcL3
		}
	}
	if home != local && home >= 0 && int(home) < r.topo.NumDomains() && r.l3.access(int(home), addr) {
		return cache.SrcRemoteCache
	}
	if home == topology.NoDomain || home == local {
		return cache.SrcLocalDRAM
	}
	return cache.SrcRemoteDRAM
}

// TestHierarchyMatchesReferenceLRU feeds the same random access streams
// to the hierarchy and to the reference and requires the same data
// source for every access; the reference's counts show that each
// stream reaches every source. The streams mix
// a few hot lines (MRU and near-MRU hits), lines that conflict in a
// handful of L3 sets (so every level evicts, and lines move from any
// way to the front), and lines spread over a wider range; CPUs come
// from every domain and homes from every domain plus NoDomain, so
// remote snoops hit and miss.
func TestHierarchyMatchesReferenceLRU(t *testing.T) {
	geoms := []struct {
		name string
		cfg  cache.Config
	}{
		{"default", cache.DefaultConfig()},
		{"tuned", workloads.TunedCacheConfig()},
	}
	machines := []*topology.Machine{
		topology.New(topology.Config{Name: "2x2", NumDomains: 2, CPUsPerDomain: 2,
			MemoryPerDomain: units.GiB, RemoteDistance: 16}),
		topology.New(topology.Config{Name: "4x2", NumDomains: 4, CPUsPerDomain: 2,
			MemoryPerDomain: units.GiB, RemoteDistance: 16}),
	}
	for _, g := range geoms {
		for _, m := range machines {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", g.name, m.Name, seed), func(t *testing.T) {
					diffStream(t, m, g.cfg, seed, 60000)
				})
			}
		}
	}
}

func diffStream(t *testing.T, m *topology.Machine, cfg cache.Config, seed int64, n int) {
	h := cache.NewHierarchy(m, cfg)
	ref := newRefHierarchy(m, cfg)
	rng := rand.New(rand.NewSource(seed))
	line := uint64(cfg.LineSize)
	conflictStride := uint64(cfg.L3Sets) * line
	for i := 0; i < n; i++ {
		var addr uint64
		switch k := rng.Intn(10); {
		case k < 3:
			addr = uint64(rng.Intn(8)) * line
		case k < 7:
			// 4 L3 sets, 3x their ways: evictions at every level.
			set := uint64(rng.Intn(4))
			addr = set*line + uint64(rng.Intn(3*cfg.L3Ways))*conflictStride
		default:
			addr = uint64(rng.Intn(1<<16)) * line
		}
		addr += uint64(rng.Intn(int(line))) // any byte of the line
		cpu := topology.CPUID(rng.Intn(m.NumCPUs()))
		home := topology.DomainID(rng.Intn(m.NumDomains()+1)) - 1 // NoDomain included
		got := h.Access(cpu, addr, home).Source
		want := ref.access(cpu, addr, home)
		if got != want {
			t.Fatalf("access %d (cpu %d, addr %#x, home %d) = %v, reference %v", i, cpu, addr, home, got, want)
		}
	}
	for s := cache.SrcL1; s <= cache.SrcRemoteDRAM; s++ {
		if ref.counts[s] == 0 {
			t.Errorf("stream never produced %v: it does not exercise that path", s)
		}
	}
}
