package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/omp"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

// serialInitApp is the canonical NUMA anti-pattern from Section 2: the
// master thread allocates and initialises one large array (first-touch
// homes every page in domain 0), then all threads process disjoint
// blocks of it in parallel. Its profile must show the Figure 3
// signatures: M_r >> M_l, all samples to NUMA_NODE0, a staircase
// address-centric pattern, and a serial first-touch location.
type serialInitApp struct {
	prog      *isa.Program
	mainFn    isa.FuncID
	initFn    isa.FuncID
	workFn    isa.FuncID
	allocSite isa.SiteID
	initSite  isa.SiteID
	loadSite  isa.SiteID

	elems     int
	iters     int
	usePolicy vm.Policy // nil: first touch
	paraInit  bool
}

func newSerialInitApp(elems, iters int) *serialInitApp {
	a := &serialInitApp{elems: elems, iters: iters}
	p := isa.NewProgram("serial-init")
	a.mainFn = p.AddFunc("main", "main.c", 1)
	a.initFn = p.AddFunc("initialize", "main.c", 10)
	a.workFn = p.AddFunc("compute._omp", "main.c", 30)
	a.allocSite = p.AddSite(a.mainFn, 3, isa.KindAlloc)
	a.initSite = p.AddSite(a.initFn, 12, isa.KindStore)
	a.loadSite = p.AddSite(a.workFn, 33, isa.KindLoad)
	a.prog = p
	return a
}

func (a *serialInitApp) Name() string         { return "serial-init" }
func (a *serialInitApp) Binary() *isa.Program { return a.prog }

func (a *serialInitApp) Run(e *proc.Engine) {
	const stride = 64 // one element per cache line, to defeat caching
	var z vm.Region
	omp.Serial(e, a.mainFn, "main", func(c *proc.Ctx) {
		z = c.Alloc(a.allocSite, "z", uint64(a.elems)*stride, a.usePolicy)
	})
	if a.paraInit {
		omp.ParallelFor(e, a.initFn, "initialize", a.elems, omp.Static{}, func(c *proc.Ctx, i int) {
			c.Store(a.initSite, z.Base+uint64(i)*stride)
		})
	} else {
		omp.Serial(e, a.initFn, "initialize", func(c *proc.Ctx) {
			for i := 0; i < a.elems; i++ {
				c.Store(a.initSite, z.Base+uint64(i)*stride)
			}
		})
	}
	for it := 0; it < a.iters; it++ {
		omp.ParallelFor(e, a.workFn, "compute", a.elems, omp.Static{}, func(c *proc.Ctx, i int) {
			c.Load(a.loadSite, z.Base+uint64(i)*stride)
			c.Compute(2)
		})
	}
}

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t8", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func analyze(t *testing.T, cfg Config, app App) *Profile {
	t.Helper()
	prof, err := Analyze(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestAnalyzeRequiresMachine(t *testing.T) {
	if _, err := Analyze(Config{}, newSerialInitApp(10, 1)); err == nil {
		t.Fatal("missing machine should error")
	}
	if _, err := Run(Config{}, newSerialInitApp(10, 1)); err == nil {
		t.Fatal("missing machine should error")
	}
	if _, err := Analyze(Config{Machine: testMachine(), Mechanism: "nope"}, newSerialInitApp(10, 1)); err == nil {
		t.Fatal("unknown mechanism should error")
	}
}

func TestSerialInitSignatures(t *testing.T) {
	cfg := Config{
		Machine:         testMachine(),
		Mechanism:       "IBS",
		Period:          64,
		TrackFirstTouch: true,
	}
	prof := analyze(t, cfg, newSerialInitApp(4096, 4))

	if prof.Totals.Samples == 0 {
		t.Fatal("no samples collected")
	}
	zp, ok := prof.VarByName("z")
	if !ok {
		t.Fatal("variable z not profiled")
	}
	// 8 threads on 4 domains: 3/4 of blocks are remote from domain 0.
	if zp.Mr <= zp.Ml {
		t.Errorf("M_r (%v) should exceed M_l (%v) for serial init", zp.Mr, zp.Ml)
	}
	// All samples hit domain 0 (where the master first-touched).
	for d := 1; d < 4; d++ {
		if zp.PerDomain[d] != 0 {
			t.Errorf("NUMA_NODE%d = %v, want 0 (all pages in domain 0)", d, zp.PerDomain[d])
		}
	}
	if zp.PerDomain[0] != zp.Ml+zp.Mr {
		t.Errorf("NUMA_NODE0 (%v) should equal M_l+M_r (%v)", zp.PerDomain[0], zp.Ml+zp.Mr)
	}
	// First touch: the master thread alone, inside initialize.
	if !reflect.DeepEqual(zp.FirstTouchThreads, []int{0}) {
		t.Errorf("FirstTouchThreads = %v, want [0]", zp.FirstTouchThreads)
	}
	if len(zp.FirstTouchPath) == 0 {
		t.Fatal("no first-touch path")
	}
	lastFn := zp.FirstTouchPath[len(zp.FirstTouchPath)-1].Fn
	fn, _ := prof.Binary.Func(lastFn)
	if fn.Name != "initialize" {
		t.Errorf("first-touch function = %q, want initialize", fn.Name)
	}
	// Imbalance: fully centralised on 4 domains.
	if prof.Totals.Imbalance < 3.9 {
		t.Errorf("Imbalance = %v, want ~4 (centralised)", prof.Totals.Imbalance)
	}
	// The program is memory-bound on remote accesses: significant lpi.
	if !prof.Totals.Significant {
		t.Errorf("lpi = %v should be significant", prof.Totals.LPI)
	}
}

func TestStaircasePatternInComputeRegion(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 16}
	prof := analyze(t, cfg, newSerialInitApp(8192, 4))
	v, ok := prof.Registry.Lookup("z")
	if !ok {
		t.Fatal("z not registered")
	}
	pat, ok := prof.Patterns.Pattern(v, "compute")
	if !ok {
		t.Fatal("no pattern for the compute region")
	}
	if !pat.IsStaircase(0.15) {
		for _, tr := range pat.Threads() {
			lo, hi, _ := pat.Normalized(tr.Thread)
			t.Logf("thread %d: [%.3f, %.3f]", tr.Thread, lo, hi)
		}
		t.Fatal("static-schedule block access should be a staircase")
	}
	// Higher-ranked threads touch higher address intervals (Figure 3).
	trs := pat.Threads()
	if len(trs) < 4 {
		t.Fatalf("only %d threads sampled", len(trs))
	}
	firstLo, _, _ := pat.Normalized(trs[0].Thread)
	lastLo, _, _ := pat.Normalized(trs[len(trs)-1].Thread)
	if lastLo <= firstLo {
		t.Errorf("thread ranges should ascend: first lo %.3f, last lo %.3f", firstLo, lastLo)
	}
}

func TestParallelInitColocatesAndReducesLPI(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 64}
	serial := analyze(t, cfg, newSerialInitApp(4096, 4))

	app := newSerialInitApp(4096, 4)
	app.paraInit = true
	parallel := analyze(t, cfg, app)

	zs, _ := serial.VarByName("z")
	zp, ok := parallel.VarByName("z")
	if !ok {
		t.Fatal("z missing in parallel-init profile")
	}
	if zp.Mr >= zp.Ml {
		t.Errorf("parallel init: M_r (%v) should be below M_l (%v)", zp.Mr, zp.Ml)
	}
	if parallel.Totals.LPI >= serial.Totals.LPI {
		t.Errorf("parallel-init lpi (%v) should be below serial-init lpi (%v)",
			parallel.Totals.LPI, serial.Totals.LPI)
	}
	if parallel.Totals.Imbalance >= serial.Totals.Imbalance {
		t.Errorf("parallel-init imbalance (%v) should be below serial (%v)",
			parallel.Totals.Imbalance, serial.Totals.Imbalance)
	}
	_ = zs
}

func TestBlockedPolicyMatchesParallelInit(t *testing.T) {
	// The paper's fix: keep the serial initialiser but distribute pages
	// block-wise at the first-touch site. Locality must match the
	// parallel-init fix.
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 64}
	app := newSerialInitApp(4096, 4)
	app.usePolicy = vm.Blocked{Domains: []topology.DomainID{0, 1, 2, 3}}
	prof := analyze(t, cfg, app)
	zp, ok := prof.VarByName("z")
	if !ok {
		t.Fatal("z missing")
	}
	if zp.Mr >= zp.Ml {
		t.Errorf("blocked placement: M_r (%v) should be below M_l (%v)", zp.Mr, zp.Ml)
	}
}

func TestLPIEstimatorsTrackExact(t *testing.T) {
	// Equation 2 (IBS) and Equation 3 (PEBS-LL) should land within a
	// factor of ~2 of the exact Equation 1 on a steady workload.
	for _, mech := range []string{"IBS", "PEBS-LL"} {
		cfg := Config{Machine: testMachine(), Mechanism: mech, Period: 32}
		prof := analyze(t, cfg, newSerialInitApp(8192, 4))
		exact := prof.Totals.LPIExact
		est := prof.Totals.LPI
		if math.IsNaN(est) {
			t.Fatalf("%s: estimator returned NaN", mech)
		}
		if exact == 0 {
			t.Fatalf("%s: exact lpi is 0", mech)
		}
		ratio := est / exact
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: estimated lpi %v vs exact %v (ratio %.2f)", mech, est, exact, ratio)
		}
	}
}

func TestMechanismsWithoutLatencyReportNaN(t *testing.T) {
	for _, mech := range []string{"MRK", "PEBS", "DEAR", "Soft-IBS"} {
		cfg := Config{Machine: testMachine(), Mechanism: mech, Period: 16}
		prof := analyze(t, cfg, newSerialInitApp(1024, 2))
		if !math.IsNaN(prof.Totals.LPI) {
			t.Errorf("%s: LPI = %v, want NaN (no latency capability)", mech, prof.Totals.LPI)
		}
		// Significance falls back to the exact value in the simulator.
		if !prof.Totals.Significant {
			t.Errorf("%s: remote-heavy workload should still be significant", mech)
		}
	}
}

func TestCodeCentricTreeHasAccessPaths(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 32}
	prof := analyze(t, cfg, newSerialInitApp(2048, 2))

	access, ok := prof.Tree.Root().FindChild(cct.DummyKey(cct.DummyAccess))
	if !ok {
		t.Fatal("merged tree missing access dummy")
	}
	if access.InclusiveMetric(metrics.Samples) == 0 {
		t.Fatal("access subtree has no samples")
	}
	// The work function must appear with mismatch metrics somewhere.
	var sawWork bool
	access.Visit(func(n *cct.Node) {
		if n.Key.Kind == cct.KindFrame {
			fn, _ := prof.Binary.Func(n.Key.Fn)
			if fn.Name == "compute._omp" && n.InclusiveMetric(metrics.Mismatch) > 0 {
				sawWork = true
			}
		}
	})
	if !sawWork {
		t.Fatal("compute._omp frame with mismatches not found in CCT")
	}
}

func TestDataCentricTreeHasAllocPathAndBins(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 32}
	prof := analyze(t, cfg, newSerialInitApp(4096, 2))

	alloc, ok := prof.Tree.Root().FindChild(cct.DummyKey(cct.DummyAlloc))
	if !ok {
		t.Fatal("merged tree missing allocation dummy")
	}
	var varNode *cct.Node
	alloc.Visit(func(n *cct.Node) {
		if n.Key.Kind == cct.KindVariable && n.Key.Label == "z" {
			varNode = n
		}
	})
	if varNode == nil {
		t.Fatal("variable node for z not grafted")
	}
	// z is 256 KiB > 5 pages: must have 5 bins (those with samples).
	var bins int
	for _, c := range varNode.Children() {
		if c.Key.Kind == cct.KindBin {
			bins++
		}
	}
	if bins != 5 {
		t.Fatalf("bin children = %d, want 5", bins)
	}
	// Per-thread [min,max] ranges recorded for the address-centric view.
	if len(varNode.AppendRangeOwners(nil)) < 4 {
		t.Fatalf("range owners = %v, want most threads", varNode.AppendRangeOwners(nil))
	}
}

func TestPerThreadTreesMergeMatchesGlobal(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 32}
	prof := analyze(t, cfg, newSerialInitApp(2048, 2))
	var perThread float64
	for _, tr := range prof.PerThreadTrees {
		perThread += tr.Root().InclusiveMetric(metrics.Samples)
	}
	access, _ := prof.Tree.Root().FindChild(cct.DummyKey(cct.DummyAccess))
	if got := access.InclusiveMetric(metrics.Samples); got != perThread {
		t.Fatalf("merged samples %v != per-thread sum %v", got, perThread)
	}
}

func TestMeasureOverhead(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "Soft-IBS", Period: 128}
	ov, prof, err := MeasureOverhead(cfg, newSerialInitApp(2048, 2))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(cfg, newSerialInitApp(2048, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ov.Base != base.TotalTime() {
		t.Fatalf("base clock %v != unmonitored runtime %v", ov.Base, base.TotalTime())
	}
	if ov.Monitored != prof.Totals.SimTime {
		t.Fatalf("monitored %v != profile SimTime %v", ov.Monitored, prof.Totals.SimTime)
	}
	if ov.Monitored <= ov.Base {
		t.Fatalf("monitored (%v) should exceed base (%v)", ov.Monitored, ov.Base)
	}
	if ov.Percent() <= 0 {
		t.Fatalf("Percent = %v, want > 0", ov.Percent())
	}
}

func TestDeterministicProfiles(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 64, TrackFirstTouch: true}
	a := analyze(t, cfg, newSerialInitApp(2048, 2))
	b := analyze(t, cfg, newSerialInitApp(2048, 2))
	if a.Totals.Samples != b.Totals.Samples || a.Totals.LPI != b.Totals.LPI ||
		a.Totals.SimTime != b.Totals.SimTime || a.Totals.Mr != b.Totals.Mr {
		t.Fatalf("profiles differ: %+v vs %+v", a.Totals, b.Totals)
	}
}

func TestFreedVariableStopsResolving(t *testing.T) {
	// An app that frees its array mid-run: later samples must not
	// attribute to the dead variable.
	app := newSerialInitApp(512, 1)
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 16}
	prof := analyze(t, cfg, app)
	// z stays live for the whole run here; just assert the registry
	// retains it postmortem.
	if _, ok := prof.Registry.Lookup("z"); !ok {
		t.Fatal("registry should retain z")
	}
}

func TestWholeProgramVsRegionScopes(t *testing.T) {
	cfg := Config{Machine: testMachine(), Mechanism: "IBS", Period: 16}
	prof := analyze(t, cfg, newSerialInitApp(4096, 3))
	v, _ := prof.Registry.Lookup("z")
	scopes := prof.Patterns.Scopes(v)
	if len(scopes) < 2 || scopes[0] != addrcentric.WholeProgram {
		t.Fatalf("scopes = %q, want whole-program plus regions", scopes)
	}
	found := false
	for _, s := range scopes {
		if s == "compute" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scopes = %q missing compute region", scopes)
	}
}
