package proc

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func testEngine(threads int) (*Engine, *isa.Program, isa.SiteID) {
	prog := isa.NewProgram("test")
	fn := prog.AddFunc("main", "main.c", 1)
	site := prog.AddSite(fn, 10, isa.KindLoad)
	e := NewEngine(Config{Machine: testMachine(), Program: prog, Threads: threads})
	return e, prog, site
}

// recorder captures every hook callback for assertions.
type recorder struct {
	BaseHook
	accesses []AccessEvent
	computes uint64
	allocs   []string
	frees    int
	regions  []string
	ends     []string
}

func (r *recorder) OnAccess(ev *AccessEvent)      { r.accesses = append(r.accesses, *ev) }
func (r *recorder) OnCompute(_ *Thread, n uint64) { r.computes += n }
func (r *recorder) OnAlloc(_ *Thread, _ isa.SiteID, _ vm.Region, name string) {
	r.allocs = append(r.allocs, name)
}
func (r *recorder) OnFree(*Thread, vm.Region)              { r.frees++ }
func (r *recorder) OnRegionBegin(name string, _ []*Thread) { r.regions = append(r.regions, name) }
func (r *recorder) OnRegionEnd(name string)                { r.ends = append(r.ends, name) }

func TestThreadBinding(t *testing.T) {
	e, _, _ := testEngine(0)
	if e.NumThreads() != 8 {
		t.Fatalf("NumThreads = %d, want 8 (all CPUs)", e.NumThreads())
	}
	for i, th := range e.Threads() {
		if th.ID != i || th.CPU != topology.CPUID(i) {
			t.Errorf("thread %d bound to CPU %d", th.ID, th.CPU)
		}
		if th.Domain != e.Machine().DomainOfCPU(th.CPU) {
			t.Errorf("thread %d domain mismatch", i)
		}
	}
	e2, _, _ := testEngine(3)
	if e2.NumThreads() != 3 {
		t.Fatalf("NumThreads = %d, want 3", e2.NumThreads())
	}
}

func TestAccessAccounting(t *testing.T) {
	e, _, site := testEngine(2)
	rec := &recorder{}
	e.AddHook(rec)

	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "arr", 4096, nil)
	c.Load(site, r.Base)
	c.Store(site, r.Base+8)
	c.Compute(10)
	e.EndRegion()

	th := e.Threads()[0]
	if th.MemAccesses() != 2 {
		t.Errorf("MemAccesses = %d, want 2", th.MemAccesses())
	}
	// 1 alloc + 2 accesses + 10 compute = 13 instructions.
	if th.Instructions() != 13 {
		t.Errorf("Instructions = %d, want 13", th.Instructions())
	}
	if e.TotalInstructions() != 13 || e.TotalMemAccesses() != 2 {
		t.Errorf("engine totals = %d instr, %d mem", e.TotalInstructions(), e.TotalMemAccesses())
	}
	if len(rec.accesses) != 2 || rec.computes != 10 || len(rec.allocs) != 1 {
		t.Errorf("hook saw %d accesses, %d computes, %d allocs",
			len(rec.accesses), rec.computes, len(rec.allocs))
	}
	if rec.allocs[0] != "arr" {
		t.Errorf("alloc name = %q", rec.allocs[0])
	}
}

// TestFirstTouchVisibleInEvent runs on both delivery paths, which fill
// engine-owned events in place: the unmapped access after two mapped
// ones must inherit none of their fields.
func TestFirstTouchVisibleInEvent(t *testing.T) {
	for _, batched := range []bool{false, true} {
		e, _, site := testEngine(2)
		rec := &recorder{}
		e.AddHook(rec)
		c := e.Ctx(0)
		e.BeginRegion("main", e.Threads())
		c.Alloc(site, "pad", 4096, nil) // so r's ID is not the zero Region's
		r := c.Alloc(site, "a", 4096, nil)
		if batched {
			c.StoreBatch(site, []uint64{r.Base})
			c.LoadBatch(site, []uint64{r.Base, 0x1})
		} else {
			c.Store(site, r.Base)
			c.Load(site, r.Base)
			c.Load(site, 0x1)
		}
		e.EndRegion()

		if len(rec.accesses) != 3 {
			t.Fatalf("batched=%v: hook saw %d accesses, want 3", batched, len(rec.accesses))
		}
		if !rec.accesses[0].FirstTouch {
			t.Errorf("batched=%v: first access should be a first touch", batched)
		}
		if rec.accesses[1].FirstTouch {
			t.Errorf("batched=%v: second access should not be a first touch", batched)
		}
		if rec.accesses[0].Home != 0 {
			t.Errorf("batched=%v: home = %d, want 0 (thread 0 runs in domain 0)", batched, rec.accesses[0].Home)
		}
		if !rec.accesses[0].RegionValid || rec.accesses[0].Region != r {
			t.Errorf("batched=%v: event should carry the containing allocation", batched)
		}
		if ev := rec.accesses[2]; ev.EA != 0x1 || ev.IsStore || ev.FirstTouch ||
			ev.Home != topology.NoDomain || ev.RegionValid || ev.Region != (vm.Region{}) {
			t.Errorf("batched=%v: unmapped access event carries stale fields: %+v", batched, ev)
		}
	}
}

// TestAccessEventFillCoversEveryField guards Engine.resolve, which
// assigns the reused event field by field: a field it missed would
// carry the previous access's value. A field added to AccessEvent
// fails this count until resolve assigns it and the count is raised.
func TestAccessEventFillCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(AccessEvent{}).NumField(); n != 10 {
		t.Fatalf("AccessEvent has %d fields, Engine.resolve assigns 10: fill the new field there, then update this count", n)
	}
}

func TestRemoteAccessLatencyExceedsLocal(t *testing.T) {
	e, _, site := testEngine(8)
	rec := &recorder{}
	e.AddHook(rec)
	c0 := e.Ctx(0) // domain 0
	c2 := e.Ctx(2) // CPU 2 -> domain 1

	e.BeginRegion("main", e.Threads())
	rLocal := c0.Alloc(site, "local", 4096, vm.OnNode{Domain: 0})
	rRemote := c0.Alloc(site, "remote", 4096, vm.OnNode{Domain: 1})
	c0.Load(site, rLocal.Base)  // local DRAM
	c0.Load(site, rRemote.Base) // remote DRAM (homed domain 1)
	_ = c2
	e.EndRegion()

	local, remote := rec.accesses[0], rec.accesses[1]
	if local.Source != cache.SrcLocalDRAM {
		t.Fatalf("local source = %v", local.Source)
	}
	if remote.Source != cache.SrcRemoteDRAM {
		t.Fatalf("remote source = %v", remote.Source)
	}
	if remote.Latency <= local.Latency {
		t.Errorf("remote latency %v should exceed local %v", remote.Latency, local.Latency)
	}
	// Paper: remote at least 30% slower.
	if float64(remote.Latency) < 1.3*float64(local.Latency) {
		t.Errorf("remote/local = %.2f, want >= 1.3",
			float64(remote.Latency)/float64(local.Latency))
	}
	if e.TotalRemoteAccesses() != 1 {
		t.Errorf("TotalRemoteAccesses = %d, want 1", e.TotalRemoteAccesses())
	}
	if e.TotalRemoteLatency() == 0 {
		t.Error("TotalRemoteLatency should be nonzero")
	}
}

func TestRegionTimeIsMaxOverTeam(t *testing.T) {
	e, _, _ := testEngine(2)
	e.BeginRegion("r", e.Threads())
	e.Ctx(0).Compute(100)
	e.Ctx(1).Compute(250)
	e.EndRegion()
	if e.TotalTime() != 250 {
		t.Fatalf("TotalTime = %v, want 250 (max over team)", e.TotalTime())
	}
	e.BeginRegion("r2", e.Threads())
	e.Ctx(0).Compute(50)
	e.EndRegion()
	if e.TotalTime() != 300 {
		t.Fatalf("TotalTime = %v, want 300 (sum of regions)", e.TotalTime())
	}
}

func TestNestedRegionPanics(t *testing.T) {
	e, _, _ := testEngine(1)
	e.BeginRegion("outer", e.Threads())
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginRegion should panic")
		}
	}()
	e.BeginRegion("inner", e.Threads())
}

func TestEndRegionWithoutBeginPanics(t *testing.T) {
	e, _, _ := testEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("EndRegion without BeginRegion should panic")
		}
	}()
	e.EndRegion()
}

func TestCallPathUnwinding(t *testing.T) {
	e, prog, site := testEngine(1)
	main := prog.AddFunc("main2", "m.c", 1)
	inner := prog.AddFunc("inner", "m.c", 20)

	var depthInside int
	var path []Frame
	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	c.Call(main, 0, func() {
		c.Call(inner, 5, func() {
			depthInside = c.Thread().Depth()
			path = c.Thread().CallPath()
			c.Compute(1)
		})
	})
	e.EndRegion()

	if depthInside != 2 {
		t.Fatalf("depth inside = %d, want 2", depthInside)
	}
	if path[0].Fn != main || path[1].Fn != inner || path[1].CallLine != 5 {
		t.Fatalf("path = %+v", path)
	}
	if c.Thread().Depth() != 0 {
		t.Fatal("stack should be empty after calls return")
	}
	_ = site
}

func TestOverheadInflatesTime(t *testing.T) {
	e, _, _ := testEngine(1)
	e.BeginRegion("r", e.Threads())
	e.Ctx(0).Compute(100)
	e.Threads()[0].AddOverhead(40)
	e.EndRegion()
	if e.TotalTime() != 140 {
		t.Fatalf("TotalTime = %v, want 140 (compute + overhead)", e.TotalTime())
	}
	if e.Threads()[0].Overhead() != 40 {
		t.Fatalf("Overhead = %v", e.Threads()[0].Overhead())
	}
}

func TestContentionFeedbackAcrossRegions(t *testing.T) {
	// All 8 threads hammer memory homed in domain 0. The first region
	// runs with factor 1; the second region sees inflated latency.
	e, _, site := testEngine(8)
	c0 := e.Ctx(0)

	e.BeginRegion("init", []*Thread{e.Threads()[0]})
	r := c0.Alloc(site, "hot", 1<<24, vm.OnNode{Domain: 0})
	e.EndRegion()

	sweep := func(offset uint64) units.Cycles {
		before := e.TotalTime()
		e.BeginRegion("sweep", e.Threads())
		for tid := 0; tid < 8; tid++ {
			c := e.Ctx(tid)
			// Distinct cache lines every sweep so every access misses.
			for i := uint64(0); i < 200; i++ {
				c.Load(site, r.Base+offset+(uint64(tid)*200+i)*641)
			}
		}
		e.EndRegion()
		return e.TotalTime() - before
	}
	first := sweep(0)
	second := sweep(1 << 22)
	if second <= first {
		t.Errorf("contended second sweep (%v) should be slower than first (%v)", second, first)
	}
}

func TestExactLPI(t *testing.T) {
	e, _, site := testEngine(8)
	c0 := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c0.Alloc(site, "a", 1<<16, vm.OnNode{Domain: 1})
	for i := uint64(0); i < 100; i++ {
		c0.Load(site, r.Base+i*641) // remote accesses from domain 0
	}
	e.EndRegion()
	lpi := e.ExactLPI()
	if lpi <= 0 {
		t.Fatalf("ExactLPI = %v, want > 0 for a remote-heavy program", lpi)
	}
	manual := float64(e.TotalRemoteLatency()) / float64(e.TotalInstructions())
	if lpi != manual {
		t.Fatalf("ExactLPI = %v, manual = %v", lpi, manual)
	}
}

func TestFreeNotifiesHooks(t *testing.T) {
	e, _, site := testEngine(1)
	rec := &recorder{}
	e.AddHook(rec)
	c := e.Ctx(0)
	e.BeginRegion("main", e.Threads())
	r := c.Alloc(site, "a", 64, nil)
	c.Free(r)
	e.EndRegion()
	if rec.frees != 1 {
		t.Fatalf("frees = %d, want 1", rec.frees)
	}
	if !e.AddressSpace().Freed(r) {
		t.Fatal("region should be freed")
	}
}

func TestRegionHooksFire(t *testing.T) {
	e, _, _ := testEngine(1)
	rec := &recorder{}
	e.AddHook(rec)
	e.BeginRegion("alpha", e.Threads())
	e.EndRegion()
	e.BeginRegion("beta", e.Threads())
	e.EndRegion()
	if len(rec.regions) != 2 || rec.regions[0] != "alpha" || rec.regions[1] != "beta" {
		t.Fatalf("regions = %v", rec.regions)
	}
	if len(rec.ends) != 2 || rec.ends[1] != "beta" {
		t.Fatalf("ends = %v", rec.ends)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (units.Cycles, uint64, float64) {
		e, _, site := testEngine(8)
		c := e.Ctx(0)
		e.BeginRegion("main", e.Threads())
		r := c.Alloc(site, "a", 1<<18, nil)
		for tid := 0; tid < 8; tid++ {
			cc := e.Ctx(tid)
			for i := uint64(0); i < 500; i++ {
				cc.Load(site, r.Base+(uint64(tid)*500+i)*57)
			}
		}
		e.EndRegion()
		return e.TotalTime(), e.TotalRemoteAccesses(), e.ExactLPI()
	}
	t1, r1, l1 := run()
	t2, r2, l2 := run()
	if t1 != t2 || r1 != r2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%v,%d,%v) vs (%v,%d,%v)", t1, r1, l1, t2, r2, l2)
	}
}
