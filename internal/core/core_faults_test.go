package core

import (
	"bytes"
	"testing"

	"repro/internal/faults"
)

// chaosConfig returns the base config the chaos tests perturb.
func chaosConfig(plan *faults.Plan) Config {
	return Config{
		Machine:   testMachine(),
		Mechanism: "IBS",
		Period:    64,
		Faults:    plan,
	}
}

func TestCleanRunHealthy(t *testing.T) {
	prof := analyze(t, chaosConfig(nil), newSerialInitApp(2048, 2))
	if prof.Health.Degraded() {
		t.Fatalf("clean run reported degradation:\n%s", prof.Health.Summary())
	}
	if prof.Health.Summary() != "" {
		t.Fatal("healthy summary must be empty")
	}
	// A plan whose rates never fire still fills the delivery ledger:
	// every sample fired is delivered, and the run stays healthy.
	// (Deterministic: with seed 1 and a 1e-12 rate no draw ever hits.)
	counted := analyze(t, chaosConfig(&faults.Plan{Seed: 1, DropRate: 1e-12}),
		newSerialInitApp(2048, 2))
	h := &counted.Health
	if h.SamplesFired == 0 || h.SamplesFired != h.SamplesDelivered || !h.Accounted() {
		t.Fatalf("ledger %+v", h)
	}
	if h.Degraded() {
		t.Fatalf("no fault fired, so the run must stay healthy:\n%s", h.Summary())
	}
}

func TestChaosDropAccountingAndDeterminism(t *testing.T) {
	run := func() *Profile {
		return analyze(t, chaosConfig(&faults.Plan{Seed: 42, DropRate: 0.3}),
			newSerialInitApp(2048, 2))
	}
	a := run()
	if !a.Health.Degraded() || a.Health.SamplesDropped == 0 {
		t.Fatalf("drops not recorded: %+v", a.Health)
	}
	if !a.Health.Accounted() {
		t.Fatalf("delivery identity violated: %+v", a.Health)
	}
	if a.Totals.Samples != float64(a.Health.SamplesDelivered) {
		t.Errorf("attributed samples %v != delivered %d",
			a.Totals.Samples, a.Health.SamplesDelivered)
	}
	clean := analyze(t, chaosConfig(nil), newSerialInitApp(2048, 2))
	if a.Totals.Samples >= clean.Totals.Samples {
		t.Errorf("30%% drops should thin samples: %v vs clean %v",
			a.Totals.Samples, clean.Totals.Samples)
	}
	// Same seed, same app: identical health ledger and totals.
	b := run()
	if a.Health.SamplesDropped != b.Health.SamplesDropped ||
		a.Health.SamplesFired != b.Health.SamplesFired ||
		a.Totals.Samples != b.Totals.Samples {
		t.Errorf("chaos must be deterministic per seed: %+v vs %+v", a.Health, b.Health)
	}
}

func TestChaosQuarantine(t *testing.T) {
	prof := analyze(t,
		chaosConfig(&faults.Plan{Seed: 11, CorruptRate: 0.2, SkidRate: 0.2, GarbleRate: 0.1}),
		newSerialInitApp(2048, 2))
	h := &prof.Health
	if h.InjectedCorruptEA == 0 || h.InjectedIPSkid == 0 || h.InjectedGarbleLat == 0 {
		t.Fatalf("injector idle: %+v", h)
	}
	if h.Quarantined() == 0 {
		t.Fatalf("no samples quarantined despite corruption: %+v", h)
	}
	if !h.Accounted() {
		t.Fatalf("delivery identity violated: %+v", h)
	}
	// Quarantined samples never exceed what was injected... corrupt EAs
	// may still land inside a mapped region, so quarantine <= injection.
	if h.QuarantinedEA > h.InjectedCorruptEA {
		t.Errorf("quarantined EA %d > injected %d", h.QuarantinedEA, h.InjectedCorruptEA)
	}
	// The run still produces a usable profile.
	if prof.Totals.Samples == 0 {
		t.Fatal("quarantine must not empty the profile")
	}
}

func TestChaosStallRetries(t *testing.T) {
	prof := analyze(t, chaosConfig(&faults.Plan{Seed: 7, StallAfter: 100}),
		newSerialInitApp(4096, 8))
	h := &prof.Health
	if h.SamplerStalls == 0 || h.SamplerRetries == 0 {
		t.Fatalf("stall supervision idle: %+v", h)
	}
	if h.BackoffCycles == 0 {
		t.Error("retries must cost simulated backoff time")
	}
	if h.LostToStall == 0 {
		t.Error("samples lost during the stall window must be counted")
	}
	if !h.Accounted() {
		t.Fatalf("delivery identity violated: %+v", h)
	}
	if h.Fallback != "" {
		t.Error("a stall is recoverable; no fallback expected")
	}
}

func TestChaosHardFailureFallsBack(t *testing.T) {
	prof := analyze(t, chaosConfig(&faults.Plan{Seed: 1, FailAfter: 50}),
		newSerialInitApp(2048, 4))
	h := &prof.Health
	if h.Fallback != "Soft-IBS" {
		t.Fatalf("fallback = %q, want Soft-IBS", h.Fallback)
	}
	if h.LostToFailure == 0 {
		t.Error("samples lost between failure and fallback must be counted")
	}
	if !h.Accounted() {
		t.Fatalf("delivery identity violated: %+v", h)
	}
	if !h.LPIWindowed {
		t.Error("lpi must be flagged as windowed after fallback")
	}
	// The profile keeps collecting after the switch.
	if prof.Totals.Samples == 0 {
		t.Fatal("fallback sampler produced nothing")
	}
}

func TestChaosThreadLoss(t *testing.T) {
	prof := analyze(t, chaosConfig(&faults.Plan{Seed: 3, ThreadLossRate: 0.5}),
		newSerialInitApp(2048, 2))
	h := &prof.Health
	if len(h.ThreadsLost) == 0 {
		t.Fatalf("no thread profiles lost at rate 0.5: %+v", h)
	}
	if h.ThreadsTotal == 0 || len(h.ThreadsLost) >= h.ThreadsTotal {
		t.Fatalf("merge must keep at least one survivor: lost %d of %d",
			len(h.ThreadsLost), h.ThreadsTotal)
	}
	if prof.Totals.Samples == 0 {
		t.Fatal("the salvaged merge must still hold samples")
	}
	// Determinism: same seed loses the same threads.
	again := analyze(t, chaosConfig(&faults.Plan{Seed: 3, ThreadLossRate: 0.5}),
		newSerialInitApp(2048, 2))
	if len(again.Health.ThreadsLost) != len(h.ThreadsLost) {
		t.Error("thread loss must be deterministic per seed")
	}
}

func TestChaosPlanRecordedInHealth(t *testing.T) {
	plan := &faults.Plan{Seed: 5, DropRate: 0.1}
	prof := analyze(t, chaosConfig(plan), newSerialInitApp(1024, 1))
	if prof.Health.Plan != plan.String() {
		t.Errorf("Health.Plan = %q, want %q", prof.Health.Plan, plan.String())
	}
	var buf bytes.Buffer
	if prof.Health.Summary() == "" {
		t.Fatal("degraded run must render a summary")
	}
	buf.WriteString(prof.Health.Summary())
	if !bytes.Contains(buf.Bytes(), []byte("all accounted")) {
		t.Errorf("summary should confirm accounting:\n%s", buf.String())
	}
}
