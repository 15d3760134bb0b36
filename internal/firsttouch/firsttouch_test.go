package firsttouch

import (
	"reflect"
	"testing"

	"repro/internal/cct"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/omp"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

func testEngine(threads int) (*proc.Engine, *isa.Program) {
	m := topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB,
	})
	prog := isa.NewProgram("test")
	return proc.NewEngine(proc.Config{Machine: m, Program: prog, Threads: threads}), prog
}

func TestSerialFirstTouchTrapped(t *testing.T) {
	e, prog := testEngine(2)
	fn := prog.AddFunc("init", "main.c", 1)
	site := prog.AddSite(fn, 5, isa.KindStore)
	rec := New(e)

	ps := uint64(units.PageSize)
	var region vm.Region
	omp.Serial(e, fn, "init", func(c *proc.Ctx) {
		region = c.Alloc(site, "z", ps*4, nil)
		n := rec.Protect(region)
		if n != 4 {
			t.Fatalf("protected %d pages, want 4", n)
		}
		// Serial init: master touches every page.
		for p := uint64(0); p < 4; p++ {
			c.Store(site, region.Base+p*ps)
		}
		// Re-touch: must not fault again.
		c.Store(site, region.Base)
	})

	evs := rec.Events(region)
	if len(evs) != 4 {
		t.Fatalf("trapped %d first touches, want 4", len(evs))
	}
	for _, ev := range evs {
		if ev.Thread != 0 {
			t.Errorf("toucher = thread %d, want 0", ev.Thread)
		}
		if !ev.IsWrite {
			t.Error("store fault should be a write")
		}
		if ev.Site != site {
			t.Errorf("faulting site = %d, want %d", ev.Site, site)
		}
		if len(ev.Path) == 0 || ev.Path[0].Fn != fn {
			t.Errorf("fault path = %+v, want rooted at init", ev.Path)
		}
	}
	if got := rec.TouchingThreads(region); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("TouchingThreads = %v (serial init should be one thread)", got)
	}
	loc, ok := rec.FirstTouchLocation(region)
	if !ok || loc[0].Fn != fn {
		t.Fatalf("FirstTouchLocation = %+v, %v", loc, ok)
	}
}

func TestParallelFirstTouchManyThreads(t *testing.T) {
	e, prog := testEngine(4)
	initFn := prog.AddFunc("parallel_init._omp", "main.c", 10)
	allocFn := prog.AddFunc("main", "main.c", 1)
	site := prog.AddSite(initFn, 12, isa.KindStore)
	allocSite := prog.AddSite(allocFn, 3, isa.KindAlloc)
	rec := New(e)

	ps := uint64(units.PageSize)
	var region vm.Region
	omp.Serial(e, allocFn, "main", func(c *proc.Ctx) {
		region = c.Alloc(allocSite, "z", ps*8, nil)
		rec.Protect(region)
	})
	// Parallel initialisation: thread t touches block t.
	omp.ParallelFor(e, initFn, "parallel_init", 8, omp.Static{}, func(c *proc.Ctx, i int) {
		c.Store(site, region.Base+uint64(i)*ps)
	})

	if got := rec.TouchingThreads(region); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("TouchingThreads = %v, want all four", got)
	}
	evs := rec.Events(region)
	if len(evs) != 8 {
		t.Fatalf("trapped %d touches, want 8", len(evs))
	}
	// Pages homed where their toucher ran (first-touch policy observed
	// through the trap).
	for _, ev := range evs {
		home, _ := e.AddressSpace().PageNode(ev.Addr)
		if home != ev.Domain {
			t.Errorf("page %d homed in %d but touched from %d", ev.Page, home, ev.Domain)
		}
	}
}

func TestMergedPaths(t *testing.T) {
	e, prog := testEngine(2)
	fn := prog.AddFunc("init._omp", "main.c", 1)
	site := prog.AddSite(fn, 2, isa.KindStore)
	rec := New(e)

	ps := uint64(units.PageSize)
	var region vm.Region
	omp.Serial(e, fn, "alloc", func(c *proc.Ctx) {
		region = c.Alloc(site, "z", ps*4, nil)
		rec.Protect(region)
	})
	omp.ParallelFor(e, fn, "init", 4, omp.Static{}, func(c *proc.Ctx, i int) {
		c.Store(site, region.Base+uint64(i)*ps)
	})

	tree := rec.MergedPaths(region)
	dummy, ok := tree.Root().FindChild(cct.DummyKey(cct.DummyFirstTouch))
	if !ok {
		t.Fatal("merged tree missing first-touch dummy node")
	}
	if got := dummy.InclusiveMetric(metrics.FirstTouches); got != 4 {
		t.Fatalf("merged first touches = %v, want 4", got)
	}
	// Both threads' paths merged under one tree; the leaf holds
	// per-thread ranges.
	var leaves int
	dummy.Visit(func(n *cct.Node) {
		if n.NumChildren() == 0 && len(n.AppendRangeOwners(nil)) > 0 {
			leaves++
			if len(n.AppendRangeOwners(nil)) != 2 {
				t.Errorf("leaf owners = %v, want both threads", n.AppendRangeOwners(nil))
			}
		}
	})
	if leaves != 1 {
		t.Fatalf("leaves with ranges = %d, want 1 (same call path merged)", leaves)
	}
}

func TestUnprotectedAllocationNotRecorded(t *testing.T) {
	e, prog := testEngine(1)
	fn := prog.AddFunc("f", "f.c", 1)
	site := prog.AddSite(fn, 2, isa.KindStore)
	rec := New(e)
	var region vm.Region
	omp.Serial(e, fn, "main", func(c *proc.Ctx) {
		region = c.Alloc(site, "a", uint64(units.PageSize)*2, nil)
		// No Protect: touches must not be trapped.
		c.Store(site, region.Base)
	})
	if len(rec.Events(region)) != 0 {
		t.Fatal("unmonitored allocation should record no events")
	}
}

func TestSubPageAllocationNotMonitorable(t *testing.T) {
	e, prog := testEngine(1)
	fn := prog.AddFunc("f", "f.c", 1)
	site := prog.AddSite(fn, 2, isa.KindAlloc)
	rec := New(e)
	omp.Serial(e, fn, "main", func(c *proc.Ctx) {
		r := c.Alloc(site, "tiny", 100, nil)
		if n := rec.Protect(r); n != 0 {
			t.Fatalf("sub-page allocation protected %d pages, want 0", n)
		}
	})
}

func TestFaultOverheadCharged(t *testing.T) {
	e, prog := testEngine(1)
	fn := prog.AddFunc("f", "f.c", 1)
	site := prog.AddSite(fn, 2, isa.KindStore)
	rec := New(e)
	omp.Serial(e, fn, "main", func(c *proc.Ctx) {
		r := c.Alloc(site, "a", uint64(units.PageSize)*2, nil)
		rec.Protect(r)
		c.Store(site, r.Base)
	})
	if ov := e.Threads()[0].Overhead(); ov < DefaultFaultOverhead {
		t.Fatalf("overhead = %v, want >= %v (one trapped fault)", ov, DefaultFaultOverhead)
	}
}
