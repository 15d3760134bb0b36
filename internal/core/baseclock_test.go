package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/server"
	"repro/internal/workloads"
)

// TestBaseClockMatchesUnmonitoredRun is the oracle for MeasureOverhead's
// single run: the base clock it reads off a monitored run must equal
// the runtime core.Run simulates with no monitoring at all. It covers
// every Table 2 cell (at reduced iterations), every app under every
// mechanism with the daemon's defaults (first-touch tracking on), and
// the configurations that hook the run differently: a fault plan,
// tracing, early-stopped sampling and scatter binding without
// first-touch tracking.
func TestBaseClockMatchesUnmonitoredRun(t *testing.T) {
	const iters = 1
	type spec struct {
		name string
		cfg  core.Config
		app  func() core.App
	}
	var specs []spec

	// The Table 2 cells, configured as RunTable2 configures them.
	apps := map[string]func() core.App{
		"LULESH":       func() core.App { return workloads.NewLULESH(workloads.Params{Iters: iters}) },
		"AMG2006":      func() core.App { return workloads.NewAMG2006(workloads.Params{Iters: iters}) },
		"Blackscholes": func() core.App { return workloads.NewBlackscholes(workloads.Params{Iters: iters}) },
	}
	for _, mech := range pmu.Names() {
		for _, wl := range experiments.Table2Order {
			cfg := experiments.BaseConfig(experiments.MachineForMechanism(mech), 0, proc.Compact)
			cfg.Mechanism = mech
			specs = append(specs, spec{"table2/" + mech + "/" + wl, cfg, apps[wl]})
		}
	}

	// Daemon specs, resolved through the same path as the CLI's.
	fromSpec := func(name string, s server.Spec) spec {
		cfg, _, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return spec{name, cfg, func() core.App {
			_, app, _ := s.Build() // the same spec built without error above
			return app
		}}
	}
	for _, mech := range pmu.Names() {
		for _, wl := range []string{"lulesh", "amg2006", "blackscholes", "umt2013"} {
			specs = append(specs, fromSpec("spec/"+mech+"/"+wl,
				server.Spec{Workload: wl, Mechanism: mech, Iters: iters}))
		}
	}
	noFirstTouch := false
	specs = append(specs,
		fromSpec("chaos", server.Spec{Workload: "lulesh", Iters: iters, Chaos: "drop=0.2,fail=2000,seed=42"}),
		fromSpec("trace", server.Spec{Workload: "amg2006", Mechanism: "PEBS-LL", Iters: iters, Trace: true}),
		fromSpec("scatter", server.Spec{Workload: "lulesh", Mechanism: "MRK", Iters: iters,
			Binding: "scatter", FirstTouch: &noFirstTouch}),
	)
	// Early stop needs enough epochs for the estimates to converge.
	early := fromSpec("converge-early", server.Spec{Workload: "blackscholes", Mechanism: "MRK", Iters: 4})
	early.cfg.SnapshotEvery = 1
	early.cfg.ConvergeEarly = true
	specs = append(specs, early)

	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			ov, prof, err := core.MeasureOverhead(s.cfg, s.app())
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.Run(s.cfg, s.app())
			if err != nil {
				t.Fatal(err)
			}
			if ov.Base != e.TotalTime() {
				t.Errorf("base clock %d != unmonitored runtime %d", ov.Base, e.TotalTime())
			}
			// A case where monitoring charged nothing would compare two
			// equal clocks and check nothing.
			if ov.Monitored <= ov.Base || ov.Monitored != prof.Totals.SimTime {
				t.Errorf("monitored %d, base %d, profile SimTime %d", ov.Monitored, ov.Base, prof.Totals.SimTime)
			}
			switch s.name {
			case "chaos":
				if !prof.Health.Degraded() {
					t.Error("the fault plan degraded nothing")
				}
			case "converge-early":
				if !prof.Health.EarlyStop {
					t.Error("sampling never stopped early")
				}
			}
		})
	}
}
