package core

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/topology"
)

// The scheduler runs whole Analyze cells concurrently. Each cell owns
// its engine, address space, caches, and profiler, but two things are
// deliberately shared read-only across cells: the topology.Machine (a
// preset handed to every cell of a sweep) and the App's isa.Program
// (append-only at construction, read-only during Run). This stress
// test runs N cells concurrently on exactly that shared state so the
// CI -race leg actually exercises the cross-cell sharing the audit
// signed off on — any mutation of Machine or Program during a run
// becomes a reported race.
func TestAnalyzeConcurrentCellsRace(t *testing.T) {
	m := topology.MagnyCours48() // one Machine for every cell

	// One Program shared by all cells; apps built on it only read.
	proto := newSerialInitApp(2048, 2)
	mkShared := func() App {
		a := newSerialInitApp(2048, 2)
		a.prog = proto.prog
		a.mainFn, a.initFn, a.workFn = proto.mainFn, proto.initFn, proto.workFn
		a.allocSite, a.initSite, a.loadSite = proto.allocSite, proto.initSite, proto.loadSite
		return a
	}

	cfg := Config{Machine: m, Mechanism: "IBS", TrackFirstTouch: true}
	const cells = 8
	profs, err := sched.MapWith(cells, cells, func(i int) (*Profile, error) {
		c := cfg
		if i == cells-1 {
			// One chaos cell rides along: the degraded pipeline shares
			// the same read-only state and must be just as race-free.
			// Dense sampling so the drops are certain to fire.
			c.Faults = &faults.Plan{Seed: 5, DropRate: 0.3, StallAfter: 500}
			c.Period = 32
		}
		return Analyze(c, mkShared())
	})
	if err != nil {
		t.Fatal(err)
	}

	// Identical cells must also produce identical totals — concurrency
	// may not leak into results.
	for i := 1; i < cells-1; i++ {
		if !reflect.DeepEqual(profs[0].Totals, profs[i].Totals) {
			t.Fatalf("cell %d totals diverged from cell 0:\n%+v\nvs\n%+v",
				i, profs[i].Totals, profs[0].Totals)
		}
	}
	if chaos := profs[cells-1]; !chaos.Health.Degraded() {
		t.Fatal("chaos cell should record degradation")
	}
}

// TestRunConcurrentSharedProgram covers the unmonitored path (core.Run,
// which figures, speedups and the base-clock oracle use) with the same
// shared Program, and the single-owner rule beneath it: an engine's
// address space, memory system and fabric take no locks, which is safe
// only because engines share nothing but the read-only Machine and
// Program. Four engines run concurrently, and each one's clock, pages
// per domain, DRAM requests per domain and per-link fabric traffic must
// equal a serial run's; under -race, any state those packages shared
// across engines would also be reported.
func TestRunConcurrentSharedProgram(t *testing.T) {
	m := topology.MagnyCours48()
	proto := newSerialInitApp(1024, 2)
	cfg := Config{Machine: m}
	shared := func() App {
		a := newSerialInitApp(1024, 2)
		a.prog = proto.prog
		a.mainFn, a.initFn, a.workFn = proto.mainFn, proto.initFn, proto.workFn
		a.allocSite, a.initSite, a.loadSite = proto.allocSite, proto.initSite, proto.loadSite
		return a
	}
	type state struct {
		Time             uint64
		Pages, Requests  []uint64
		LinkTransfers    []uint64 // [from*domains+to]
		RemoteTransfers  uint64
		TotalMemAccesses uint64
	}
	snapshot := func(e *proc.Engine) state {
		st := state{
			Time:             uint64(e.TotalTime()),
			Pages:            e.AddressSpace().DomainPages(),
			Requests:         e.Memory().TotalsByDomain(),
			TotalMemAccesses: e.TotalMemAccesses(),
		}
		n := m.NumDomains()
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				c := e.Fabric().TotalTraffic(topology.DomainID(from), topology.DomainID(to))
				st.LinkTransfers = append(st.LinkTransfers, c)
				st.RemoteTransfers += c
			}
		}
		return st
	}
	serial, err := Run(cfg, shared())
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(serial)
	if want.RemoteTransfers == 0 {
		t.Fatal("serial run crossed no fabric link: the comparison would be vacuous")
	}
	got, err := sched.MapWith(4, 4, func(int) (state, error) {
		e, err := Run(cfg, shared())
		if err != nil {
			return state{}, err
		}
		return snapshot(e), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range got {
		if !reflect.DeepEqual(st, want) {
			t.Errorf("concurrent run %d = %+v, serial run %+v", i, st, want)
		}
	}
}

func TestOverheadPercentEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ov   Overhead
		want float64
	}{
		{"zero base", Overhead{Base: 0, Monitored: 100}, 0},
		{"zero both", Overhead{}, 0},
		{"no overhead", Overhead{Base: 100, Monitored: 100}, 0},
		{"doubled", Overhead{Base: 100, Monitored: 200}, 1.0},
		{"monitored faster than base", Overhead{Base: 200, Monitored: 100}, -0.5},
	}
	for _, c := range cases {
		if got := c.ov.Percent(); got != c.want {
			t.Errorf("%s: Percent() = %v, want %v", c.name, got, c.want)
		}
	}
}
