package proc

import (
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/vm"
)

// TestLatencyTableMatchesFormula checks the per-region latency tables
// against the expressions they cache: after NewEngine and after each
// EndRegion, every pair of the machine's domains reads the formula, and
// NoDomain and the ids -2 and NumDomains() past either end of the
// machine fall back to it. The regions pile every thread's misses onto
// domain 0, so the contention factors leave 1 and the check is not
// vacuous.
func TestLatencyTableMatchesFormula(t *testing.T) {
	e, _, site := testEngine(8)
	n := e.Machine().NumDomains()
	check := func(stage string) {
		t.Helper()
		for from := -2; from <= n; from++ {
			for to := -2; to <= n; to++ {
				f, d := topology.DomainID(from), topology.DomainID(to)
				if got, want := e.hopLatency(f, d), e.fabric.HopLatency(f, d).Scale(e.linkFactor(f, d)); got != want {
					t.Errorf("%s: hop latency %d->%d = %v, formula %v", stage, from, to, got, want)
				}
				if got, want := e.dramLatency(f, d), e.memory.DRAMLatency(f, d).Scale(e.memFactor(d)); got != want {
					t.Errorf("%s: DRAM latency %d->%d = %v, formula %v", stage, from, to, got, want)
				}
			}
		}
	}
	check("NewEngine")

	e.BeginRegion("init", e.Threads()[:1])
	r := e.Ctx(0).Alloc(site, "hot", 1<<24, vm.OnNode{Domain: 0})
	e.EndRegion()
	check("region 0")
	for region := 1; region <= 3; region++ {
		e.BeginRegion("sweep", e.Threads())
		for tid := 0; tid < e.NumThreads(); tid++ {
			c := e.Ctx(tid)
			for i := uint64(0); i < 200; i++ {
				c.Load(site, r.Base+uint64(region)<<20+(uint64(tid)*200+i)*641)
			}
		}
		e.EndRegion()
		check(fmt.Sprintf("region %d", region))
	}
	if e.memFactor(0) <= 1 || e.linkFactor(1, 0) <= 1 {
		t.Fatalf("factors memory[0] = %v, link[1][0] = %v: the regions did not contend",
			e.memFactor(0), e.linkFactor(1, 0))
	}
}

// TestRegionBoundaryAllocatesNothing pins the per-region work of an
// engine with no hooks, the contention factors and latency tables
// included, at zero allocations.
func TestRegionBoundaryAllocatesNothing(t *testing.T) {
	e, _, _ := testEngine(8)
	team := e.Threads()
	allocs := testing.AllocsPerRun(100, func() {
		e.BeginRegion("r", team)
		e.EndRegion()
	})
	if allocs != 0 {
		t.Fatalf("BeginRegion+EndRegion allocated %v times per run, want 0", allocs)
	}
}
