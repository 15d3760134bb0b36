package proc

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

func TestMarksAndTimeSince(t *testing.T) {
	e, _, _ := testEngine(1)
	e.BeginRegion("a", e.Threads())
	e.Ctx(0).Compute(100)
	e.EndRegion()
	e.Mark("roi")
	e.BeginRegion("b", e.Threads())
	e.Ctx(0).Compute(40)
	e.EndRegion()
	if got := e.TimeSince("roi"); got != 40 {
		t.Fatalf("TimeSince = %v, want 40", got)
	}
	// Unset marks fall back to total time.
	if got := e.TimeSince("nope"); got != 140 {
		t.Fatalf("TimeSince(unset) = %v, want total 140", got)
	}
	// Re-marking overwrites.
	e.Mark("roi")
	if got := e.TimeSince("roi"); got != 0 {
		t.Fatalf("TimeSince after re-mark = %v, want 0", got)
	}
}

func TestNowTracksThreadProgress(t *testing.T) {
	e, _, _ := testEngine(2)
	e.BeginRegion("a", e.Threads())
	e.Ctx(0).Compute(100)
	if got := e.Now(e.Threads()[0]); got != 100 {
		t.Fatalf("Now(t0) = %v, want 100", got)
	}
	if got := e.Now(e.Threads()[1]); got != 0 {
		t.Fatalf("Now(t1) = %v, want 0 (no progress)", got)
	}
	if got := e.Now(nil); got != 0 {
		t.Fatalf("Now(nil) = %v, want total time 0", got)
	}
	e.EndRegion()
	if got := e.Now(e.Threads()[1]); got != 100 {
		t.Fatalf("Now(t1) after region = %v, want 100", got)
	}
}

func TestScatterBinding(t *testing.T) {
	m := topology.New(topology.Config{
		Name: "s", NumDomains: 4, CPUsPerDomain: 4,
		MemoryPerDomain: units.GiB,
	})
	prog := isa.NewProgram("scatter-test")
	e := NewEngine(Config{Machine: m, Program: prog, Threads: 8, Binding: Scatter})
	// Threads 0..7 land on domains 0,1,2,3,0,1,2,3.
	for i, th := range e.Threads() {
		want := topology.DomainID(i % 4)
		if th.Domain != want {
			t.Errorf("thread %d in domain %d, want %d", i, th.Domain, want)
		}
	}
	// No two threads share a CPU.
	seen := map[topology.CPUID]bool{}
	for _, th := range e.Threads() {
		if seen[th.CPU] {
			t.Fatalf("CPU %d assigned twice", th.CPU)
		}
		seen[th.CPU] = true
	}
}

func TestScatterBindingWrapsWhenOversubscribed(t *testing.T) {
	m := topology.New(topology.Config{
		Name: "s", NumDomains: 2, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB,
	})
	cpus := bindCPUs(m, 4, Scatter)
	if len(cpus) != 4 {
		t.Fatalf("bound %d CPUs", len(cpus))
	}
}

func TestCompactBindingIsIdentity(t *testing.T) {
	m := topology.New(topology.Config{
		Name: "c", NumDomains: 2, CPUsPerDomain: 4,
		MemoryPerDomain: units.GiB,
	})
	cpus := bindCPUs(m, 6, Compact)
	for i, c := range cpus {
		if int(c) != i {
			t.Fatalf("compact binding cpus[%d] = %d", i, c)
		}
	}
}

func TestStaticRegionsLoadedAtConstruction(t *testing.T) {
	prog := isa.NewProgram("statics-test")
	prog.AddStatic("tbl", 3*uint64(units.PageSize))
	prog.AddStatic("small", 16)
	e := NewEngine(Config{Machine: testMachine(), Program: prog, Threads: 1})
	tbl, small := e.StaticRegion(0), e.StaticRegion(1)
	if tbl.Size != 3*uint64(units.PageSize) || small.Size != 16 {
		t.Fatalf("sizes = %d, %d", tbl.Size, small.Size)
	}
	// They are real allocations: touches resolve.
	if _, _, _, _, err := e.AddressSpace().TouchRegion(tbl.Base, true, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStackAllocFreedOnReturnEvenAfterNesting(t *testing.T) {
	e, prog, site := testEngine(1)
	fn := prog.AddFunc("g", "g.c", 1)
	c := e.Ctx(0)
	e.BeginRegion("r", e.Threads())
	var outer, inner vm.Region
	c.Call(fn, 0, func() {
		outer = c.AllocStack(site, "outer", 4096)
		c.Call(fn, 1, func() {
			inner = c.AllocStack(site, "inner", 4096)
			c.Store(site, inner.Base)
		})
		// inner freed; outer still live.
		if !e.AddressSpace().Freed(inner) {
			t.Fatal("inner not freed at frame exit")
		}
		if e.AddressSpace().Freed(outer) {
			t.Fatal("outer freed too early")
		}
		c.Store(site, outer.Base)
	})
	if !e.AddressSpace().Freed(outer) {
		t.Fatal("outer not freed at frame exit")
	}
	e.EndRegion()
}
