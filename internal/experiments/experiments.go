// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 8) on the simulated substrate:
//
//   - Table 1: the sampling-mechanism configuration matrix;
//   - Table 2: monitoring overhead per mechanism per benchmark;
//   - Figure 1: the three data-distribution strategies microbenchmark;
//   - Figure 2: the first-touch trapping protocol;
//   - Figure 3: the LULESH case study (code-, data-, address-centric);
//   - Figures 4-7: AMG2006 whole-program vs region-scoped patterns;
//   - Figures 8-9: Blackscholes' staggered sections and the AoS regroup;
//   - Figure 10: the UMT2013 kernel under MRK on POWER7;
//   - the Section 8 optimisation speedups for all four benchmarks;
//
// plus the A1-A4 ablations of the tool's design choices and two
// scorecards: SC checks every paper-shape claim, and OPT checks that
// the closed-loop advisor recovers the case-study fixes on its own.
// The fault-injection and service-durability guarantees are not paper
// claims; the tests of internal/core and internal/server check them.
//
// Each experiment returns a result struct carrying measured values
// side by side with the paper's reported numbers, plus a Render method
// producing the text the numabench command prints. Absolute numbers are
// not expected to match (the substrate is a simulator, not the authors'
// testbeds); the success criterion is shape: orderings, ratios,
// threshold behaviour, and win/loss directions.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// timedExperiment opens an experiment.<name> span (plus its always-on
// counter/histogram pair) around one Run* entry point:
//
//	defer timedExperiment("table2")()
//
// Entry points take no context, so the span is a root: the per-cell
// sched.cell spans it fans out appear as sibling lanes in the trace.
func timedExperiment(name string) func() {
	_, done := telemetry.Timed(context.Background(), "experiment."+name)
	return done
}

// MachineForMechanism returns the Table 1 testbed for a mechanism, the
// preset its pmu.Config names, and the Magny-Cours for a name pmu does
// not know.
func MachineForMechanism(mech string) *topology.Machine {
	if m, err := pmu.ByName(mech, 0); err == nil {
		if machine, ok := topology.Preset(m.PaperConfig().Machine); ok {
			return machine
		}
	}
	return topology.MagnyCours48()
}

// BaseConfig assembles the standard experiment configuration for a
// machine: tuned caches and the machine-specific memory model.
func BaseConfig(m *topology.Machine, threads int, binding proc.Binding) core.Config {
	return core.Config{
		Machine:      m,
		Threads:      threads,
		Binding:      binding,
		CacheConfig:  workloads.TunedCacheConfig(),
		MemParams:    workloads.MemParamsFor(m),
		FabricParams: workloads.FabricParamsFor(m),
	}
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }
