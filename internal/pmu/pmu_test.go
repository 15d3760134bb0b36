package pmu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

func testEngine(threads int) (*proc.Engine, *isa.Program, isa.SiteID) {
	m := topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB,
	})
	prog := isa.NewProgram("test")
	fn := prog.AddFunc("main", "main.c", 1)
	// Two adjacent sites so PEBS off-by-one has a "next instruction".
	prog.AddSite(fn, 9, isa.KindStore)
	site := prog.AddSite(fn, 10, isa.KindLoad)
	prog.AddSite(fn, 11, isa.KindLoad)
	e := proc.NewEngine(proc.Config{Machine: m, Program: prog, Threads: threads})
	return e, prog, site
}

// runSweep drives count remote-ish loads plus compute through the
// engine with the monitor attached, returning collected samples.
func runSweep(e *proc.Engine, site isa.SiteID, count int, computePer uint64) {
	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "arr", uint64(count)*64+4096, vm.OnNode{Domain: 1})
	for i := 0; i < count; i++ {
		c.Load(site, r.Base+uint64(i)*64)
		if computePer > 0 {
			c.Compute(computePer)
		}
	}
	e.EndRegion()
}

func TestNamesAndByName(t *testing.T) {
	for _, name := range Names() {
		mech, err := ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if mech.Name() != name {
			t.Errorf("Name() = %q, want %q", mech.Name(), name)
		}
		if mech.Period() == 0 {
			t.Errorf("%s: zero operating period", name)
		}
		if mech.PaperConfig().Event == "" || mech.PaperConfig().Period == 0 {
			t.Errorf("%s: incomplete paper config %+v", name, mech.PaperConfig())
		}
	}
	if _, err := ByName("bogus", 0); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

// Every mechanism's Table 1 testbed is a topology preset: the server's
// default machine and the experiments' testbeds both read it.
func TestPaperConfigMachineIsPreset(t *testing.T) {
	for _, name := range Names() {
		mech, _ := ByName(name, 0)
		machine := mech.PaperConfig().Machine
		if m, ok := topology.Preset(machine); !ok || m.Name != machine {
			t.Errorf("%s: testbed %q is not a topology preset", name, machine)
		}
	}
}

func TestCapabilityMatrixMatchesPaper(t *testing.T) {
	// Section 10: IBS and PEBS-LL measure latency; IBS and PEBS sample
	// all instructions; MRK samples only its event; PEBS is imprecise;
	// Soft-IBS needs instrumentation and thread binding.
	caps := map[string]Capability{}
	for _, n := range Names() {
		m, _ := ByName(n, 0)
		caps[n] = m.Caps()
	}
	if !caps["IBS"].MeasuresLatency || !caps["PEBS-LL"].MeasuresLatency {
		t.Error("IBS and PEBS-LL must measure latency")
	}
	for _, n := range []string{"MRK", "PEBS", "DEAR", "Soft-IBS"} {
		if caps[n].MeasuresLatency {
			t.Errorf("%s must not measure latency", n)
		}
	}
	if !caps["IBS"].SamplesAllInstructions || !caps["PEBS"].SamplesAllInstructions {
		t.Error("IBS and PEBS sample all instructions")
	}
	if caps["MRK"].SamplesAllInstructions {
		t.Error("MRK is event-only")
	}
	if caps["PEBS"].PreciseIP {
		t.Error("PEBS IP must be imprecise (off-by-one)")
	}
	if !caps["Soft-IBS"].RequiresInstrumentation || !caps["Soft-IBS"].RequiresThreadBinding {
		t.Error("Soft-IBS is instrumentation-based with static binding")
	}
}

func TestIBSSamplesAtPeriod(t *testing.T) {
	e, prog, site := testEngine(1)
	var samples []Sample
	mon := NewMonitor(NewIBS(100), prog, func(s *Sample) { samples = append(samples, *s) })
	e.AddHook(mon)
	runSweep(e, site, 1000, 0)
	// ~1001 memory instructions + 1 alloc at period 100 -> ~10 samples.
	if n := len(samples); n < 8 || n > 12 {
		t.Fatalf("IBS samples = %d, want ~10", n)
	}
	for _, s := range samples {
		if !s.HasEA {
			t.Fatal("IBS memory sample must carry EA")
		}
		if !s.HasLatency {
			t.Fatal("IBS sample must carry latency")
		}
		if s.IP != site {
			t.Fatalf("IBS sample IP = %d, want %d", s.IP, site)
		}
	}
}

func TestIBSSamplesComputeInstructions(t *testing.T) {
	e, prog, site := testEngine(1)
	var memSamples, otherSamples int
	mon := NewMonitor(NewIBS(50), prog, func(s *Sample) {
		if s.HasEA {
			memSamples++
		} else {
			otherSamples++
		}
	})
	e.AddHook(mon)
	runSweep(e, site, 2000, 40) // 40 compute instructions per load
	if otherSamples == 0 {
		t.Fatal("IBS should sample non-memory instructions")
	}
	if memSamples == 0 {
		t.Fatal("IBS should sample memory instructions too")
	}
	// Compute dominates the stream 40:1, so non-memory samples must
	// dominate (unbiased instruction sampling).
	if otherSamples < memSamples*10 {
		t.Errorf("samples: %d mem vs %d other; expected compute-dominated", memSamples, otherSamples)
	}
	if mon.SampledInstructions() != uint64(memSamples+otherSamples) {
		t.Errorf("I^s = %d, want %d", mon.SampledInstructions(), memSamples+otherSamples)
	}
}

func TestMRKSamplesOnlyL3Misses(t *testing.T) {
	e, prog, site := testEngine(1)
	var samples []Sample
	mon := NewMonitor(NewMRK(1), prog, func(s *Sample) { samples = append(samples, *s) })
	e.AddHook(mon)

	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "a", 1<<16, vm.OnNode{Domain: 0})
	c.Load(site, r.Base) // cold: local DRAM -> beyond local L3 -> marked
	for i := 0; i < 50; i++ {
		c.Load(site, r.Base) // L1 hits: never marked
	}
	e.EndRegion()

	if len(samples) != 1 {
		t.Fatalf("MRK samples = %d, want 1 (only the miss)", len(samples))
	}
	if samples[0].HasLatency {
		t.Error("MRK must not deliver latency")
	}
}

func TestPEBSOffByOneCorrection(t *testing.T) {
	e, prog, site := testEngine(1)
	var ips []isa.SiteID
	mon := NewMonitor(NewPEBS(10), prog, func(s *Sample) {
		if s.HasEA {
			ips = append(ips, s.IP)
		}
	})
	e.AddHook(mon)
	runSweep(e, site, 200, 0)
	if len(ips) == 0 {
		t.Fatal("no PEBS memory samples")
	}
	for _, ip := range ips {
		if ip != site {
			t.Fatalf("corrected IP = %d, want %d", ip, site)
		}
	}
}

func TestPEBSWithoutCorrectionReportsNextSite(t *testing.T) {
	e, prog, site := testEngine(1)
	var ips []isa.SiteID
	mon := NewMonitor(NewPEBS(10), prog, func(s *Sample) {
		if s.HasEA {
			ips = append(ips, s.IP)
			if s.PreciseIP {
				t.Error("uncorrected PEBS sample should be imprecise")
			}
		}
	})
	mon.CorrectOffByOne = false
	e.AddHook(mon)
	runSweep(e, site, 100, 0)
	if len(ips) == 0 {
		t.Fatal("no samples")
	}
	for _, ip := range ips {
		if ip != site+1 {
			t.Fatalf("uncorrected IP = %d, want %d (next site)", ip, site+1)
		}
	}
}

func TestPEBSCorrectionCostsMore(t *testing.T) {
	run := func(correct bool) units.Cycles {
		e, prog, site := testEngine(1)
		mon := NewMonitor(NewPEBS(10), prog, nil)
		mon.CorrectOffByOne = correct
		e.AddHook(mon)
		runSweep(e, site, 500, 0)
		return e.TotalTime()
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Fatalf("correction overhead %v should exceed uncorrected %v", with, without)
	}
}

func TestDEARSamplesOnlySlowLoads(t *testing.T) {
	e, prog, site := testEngine(1)
	var samples []Sample
	mon := NewMonitor(NewDEAR(1), prog, func(s *Sample) { samples = append(samples, *s) })
	e.AddHook(mon)

	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "a", 1<<16, vm.OnNode{Domain: 0})
	c.Load(site, r.Base) // cold miss: sampled
	for i := 0; i < 20; i++ {
		c.Load(site, r.Base) // L1 hit at 4 cycles < threshold: skipped
	}
	c.Store(site, r.Base+uint64(units.PageSize)) // store: DEAR ignores
	e.EndRegion()

	if len(samples) != 1 {
		t.Fatalf("DEAR samples = %d, want 1", len(samples))
	}
	if samples[0].IsStore {
		t.Error("DEAR must not sample stores")
	}
}

func TestPEBSLLLatencyAndAbsoluteEvents(t *testing.T) {
	e, prog, site := testEngine(1)
	mech := NewPEBSLL(4)
	var samples []Sample
	mon := NewMonitor(mech, prog, func(s *Sample) { samples = append(samples, *s) })
	e.AddHook(mon)
	const loads = 256
	runSweep(e, site, loads, 0) // sequential lines: 1 miss per line... all DRAM-bound lines distinct
	if len(samples) == 0 {
		t.Fatal("PEBS-LL sampled none of the sweep's DRAM-bound loads")
	}
	// At most every load is a qualifying event. Jittered periods
	// average the nominal period but can dip to 3/4 of it, so allow
	// headroom.
	if float64(len(samples)) > loads/4*1.5+2 {
		t.Errorf("samples %d inconsistent with at most %d events at period 4", len(samples), loads)
	}
	for _, s := range samples {
		if !s.HasLatency || s.Latency < PEBSLLLatencyThreshold {
			t.Fatalf("PEBS-LL sample latency = %v (has=%v), want >= threshold", s.Latency, s.HasLatency)
		}
	}
}

func TestSoftIBSChargesEveryAccess(t *testing.T) {
	base := func() units.Cycles {
		e, _, site := testEngine(1)
		runSweep(e, site, 500, 0)
		return e.TotalTime()
	}()
	e, prog, site := testEngine(1)
	mon := NewMonitor(NewSoftIBS(100), prog, nil)
	e.AddHook(mon)
	runSweep(e, site, 500, 0)
	monitored := e.TotalTime()

	overheadPct := float64(monitored-base) / float64(base)
	if overheadPct < 0.10 {
		t.Errorf("Soft-IBS overhead = %.1f%%, want substantial (>10%%)", overheadPct*100)
	}
}

func TestOverheadOrderingMatchesTable2(t *testing.T) {
	// Reproduce Table 2's ordering on a memory-heavy sweep:
	// Soft-IBS >> PEBS > IBS > each of {MRK, DEAR, PEBS-LL}.
	overhead := map[string]float64{}
	base := func() units.Cycles {
		e, _, site := testEngine(1)
		runSweep(e, site, 2000, 4)
		return e.TotalTime()
	}()
	// Pin one period for every mechanism so the comparison isolates
	// the cost structure (per-access tax, off-by-one fix, filter cost)
	// from sampling-rate tuning.
	for _, name := range Names() {
		e, prog, site := testEngine(1)
		mech, _ := ByName(name, 500)
		mon := NewMonitor(mech, prog, nil)
		e.AddHook(mon)
		runSweep(e, site, 2000, 4)
		overhead[name] = float64(e.TotalTime()-base) / float64(base)
	}
	if !(overhead["Soft-IBS"] > overhead["PEBS"]) {
		t.Errorf("Soft-IBS (%.3f) should exceed PEBS (%.3f)", overhead["Soft-IBS"], overhead["PEBS"])
	}
	if !(overhead["PEBS"] > overhead["IBS"]) {
		t.Errorf("PEBS (%.3f) should exceed IBS (%.3f)", overhead["PEBS"], overhead["IBS"])
	}
	for _, cheap := range []string{"MRK", "DEAR", "PEBS-LL"} {
		if !(overhead["IBS"] > overhead[cheap]) {
			t.Errorf("IBS (%.3f) should exceed %s (%.3f)", overhead["IBS"], cheap, overhead[cheap])
		}
	}
}

func TestMonitorCountsRemoteSamples(t *testing.T) {
	e, prog, site := testEngine(2)
	mon := NewMonitor(NewIBS(10), prog, nil)
	e.AddHook(mon)
	runSweep(e, site, 500, 0) // array homed in domain 1, accessed from domain 0
	if mon.SampledRemote() == 0 {
		t.Fatal("expected sampled remote accesses")
	}
	if mon.SampledRemoteLatency() == 0 {
		t.Fatal("expected accumulated remote latency (IBS measures latency)")
	}
}

func TestPeriodCounterJitteredRate(t *testing.T) {
	var pc periodCounter
	// Over many events the jittered thresholds must average out to
	// the nominal period: 100k events at period 100 -> ~1000 samples.
	fired := pc.add(0, 100_000, 100)
	if fired < 850 || fired > 1250 {
		t.Fatalf("fired %d times for 100k events at period 100, want ~1000", fired)
	}
	if got := pc.add(0, 10, 0); got != 0 {
		t.Fatal("zero period should never fire")
	}
	// Independent threads have independent counters.
	if got := pc.add(7, 30, 100); got != 0 {
		t.Fatalf("new thread add(30,100) = %d, want 0 (threshold >= 75)", got)
	}
}

func TestJitterNextBounds(t *testing.T) {
	rng := uint64(42)
	for i := 0; i < 1000; i++ {
		n := jitterNext(1000, &rng)
		if n < 750 || n >= 1250 {
			t.Fatalf("jitterNext out of [750,1250): %d", n)
		}
	}
	// Tiny periods never return zero.
	for i := 0; i < 100; i++ {
		if jitterNext(1, &rng) == 0 {
			t.Fatal("jitterNext(1) must be nonzero")
		}
	}
}

// Regression test for sampling aliasing: a pathological loop whose
// memory accesses recur at exactly the sampling period must still be
// sampled in proportion to their true share of the instruction stream.
// With deterministic (unjittered) periods the sampler can lock onto a
// phase and miss the access class entirely — violating Section 3's
// requirement that "memory accesses are uniformly sampled".
func TestJitterDefeatsPeriodAliasing(t *testing.T) {
	const period = 100
	e, prog, site := testEngine(1)
	var memSamples, otherSamples int
	mon := NewMonitor(NewIBS(period), prog, func(s *Sample) {
		if s.HasEA {
			memSamples++
		} else {
			otherSamples++
		}
	})
	e.AddHook(mon)

	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "arr", 1<<22, vm.OnNode{Domain: 1})
	// Each iteration is exactly `period` instructions: 1 load + 99
	// compute. A phase-locked sampler would hit the same offset every
	// time — either always the load or never.
	const iters = 20000
	for i := 0; i < iters; i++ {
		c.Load(site, r.Base+uint64(i)*64)
		c.Compute(period - 1)
	}
	e.EndRegion()

	total := memSamples + otherSamples
	if total < iters/2 {
		t.Fatalf("sampler starved: %d samples", total)
	}
	// True memory share of the stream is 1/period = 1%; accept 0.2-5%.
	share := float64(memSamples) / float64(total)
	if share < 0.002 || share > 0.05 {
		t.Fatalf("memory-sample share = %.4f (mem %d / total %d), want ~0.01 — aliasing?",
			share, memSamples, total)
	}
}
