package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// TestEquation2ToleranceUnderFaults is the headline tolerance of the
// fault-injection layer. Uniform random sample loss thins Equation 2's
// numerator and denominator together, so with a fifth of the samples
// dropped the estimate stays within 15% of the fault-free estimate; so
// does the pre-failure window when, on top of the drops, the sampler
// dies at 95% of the fault-free sample count and the profiler falls
// back to Soft-IBS. (Equation 2's own distance from the exact Equation
// 1 is ablation A1's subject; this is how far the faults move it.)
func TestEquation2ToleranceUnderFaults(t *testing.T) {
	const tolerance = 0.15
	cfg := experiments.BaseConfig(topology.MagnyCours48(), 0, proc.Compact)
	cfg.Mechanism = "IBS"
	analyze := func(plan *faults.Plan) *core.Profile {
		t.Helper()
		c := cfg
		c.Faults = plan
		p, err := core.Analyze(c, workloads.NewLULESH(workloads.Params{Iters: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := analyze(nil)
	want := base.Totals.LPI
	if !(want > 0) {
		t.Fatalf("fault-free Equation 2 = %v, want a positive estimate", want)
	}
	drop := &faults.Plan{Seed: 42, DropRate: 0.20}
	fail := &faults.Plan{Seed: 42, DropRate: 0.20, FailAfter: uint64(0.95 * base.Totals.Samples)}
	for _, plan := range []*faults.Plan{drop, fail} {
		p := analyze(plan)
		if plan == fail && (p.Health.Fallback != "Soft-IBS" || !p.Health.LPIWindowed) {
			t.Fatalf("plan %s: fallback %q, windowed %v; want a windowed Soft-IBS fallback",
				plan, p.Health.Fallback, p.Health.LPIWindowed)
		}
		if got := p.Totals.LPI; math.IsNaN(got) || math.Abs(got-want)/want > tolerance {
			t.Errorf("plan %s: Equation 2 reads %.3f, more than %.0f%% from the fault-free %.3f",
				plan, got, 100*tolerance, want)
		} else {
			t.Logf("plan %s: Equation 2 %.3f vs fault-free %.3f", plan, got, want)
		}
	}
}
