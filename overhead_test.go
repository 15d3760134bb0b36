package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progress"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Sinks keep the probe loops observable so the compiler cannot delete
// them.
var (
	sinkEpoch int
	sinkHits  int
	sinkSnap  progress.Snapshot
)

// streamDisabledProbe is exactly the per-region cost of live streaming
// when core.Config.SnapshotEvery is 0: the counter increment and gate
// compare that OnRegionEnd added (the publisher never runs).
func streamDisabledProbe(every, n int) {
	for i := 0; i < n; i++ {
		sinkEpoch++
		if every > 0 && sinkEpoch%every == 0 {
			sinkHits++
		}
	}
}

// streamEnabledProbe models one snapshot publication at full cost:
// build a top-K snapshot (allocation, per-domain copy, hot-variable
// list), run the convergence detector, and publish through a hub to an
// attached tiny-buffered subscriber so the drop-oldest path is
// exercised too.
func streamEnabledProbe(hub *progress.Hub, det *progress.Detector, seq int) {
	s := progress.Snapshot{
		Seq:                 seq,
		Epoch:               seq,
		SimTime:             units.Cycles(seq * 1000),
		Samples:             float64(seq * 40),
		SampledInstructions: float64(seq * 400),
		Ml:                  float64(seq * 25),
		Mr:                  float64(seq * 15),
		RemoteFraction:      0.375,
		Imbalance:           1.2,
		PerDomain:           []float64{10, 10, 10, 10},
		LPI:                 0.03,
		LPIValid:            true,
	}
	for v := 0; v < 8; v++ {
		s.TopVars = append(s.TopVars, progress.VarEstimate{
			Name: "var", Kind: "heap", Samples: float64(40 - v),
			Ml: 20, Mr: 10, MrShare: 0.1, RemoteLatShare: 0.1, LPI: 0.2,
		})
	}
	det.Observe(&s)
	hub.Publish(progress.EventSnapshot, &s, nil)
	sinkSnap = s
}

// sweepEpochBudget measures how many epochs one Table 2 cell crosses
// (a lulesh run at the sweep's iteration count, observed at cadence 1)
// and scales to the whole 18-cell sweep with a 10x margin.
func sweepEpochBudget(t *testing.T) int {
	t.Helper()
	cfg, app, err := server.Spec{Workload: "lulesh", Iters: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	cfg.SnapshotEvery = 1
	cfg.OnSnapshot = func(progress.Snapshot) { epochs++ }
	if _, err := core.Analyze(cfg, app); err != nil {
		t.Fatal(err)
	}
	if epochs < 2 {
		t.Fatalf("lulesh cell published only %d snapshots; the budget needs a real epoch count", epochs)
	}
	return epochs * 18 * 10
}

// TestDisabledTelemetryOverheadGuard enforces the zero-overhead-when-
// disabled contract on the BenchmarkParallelSweep workload (the full
// Table 2 sweep): with no tracer installed and snapshot streaming off,
// the total cost of every instrumentation site the sweep crosses —
// telemetry spans AND the streaming epoch gate — must stay under 2% of
// the sweep's wall time.
//
// A naive A/B timing of the sweep is noise-bound (the sweep itself
// varies by more than 2% run to run), so the guard measures the
// factors separately: the per-site cost of a disabled Timed call and
// the per-epoch cost of the disabled snapshot gate (tight loops,
// hundreds of thousands of iterations) times site/epoch counts an
// order of magnitude above what the sweep actually crosses (~200
// telemetry sites: one experiment span, 18 sched cells, and ~10
// pipeline spans and counter flushes per cell; epochs measured from a
// real cell), against the measured sweep time.
func TestDisabledTelemetryOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard runs a full Table 2 sweep")
	}
	if telemetry.Enabled() {
		t.Fatal("a process-default tracer is installed; the guard measures the disabled path")
	}

	ctx := context.Background()
	const probeIters = 200_000
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		_, done := telemetry.Timed(ctx, "overhead.probe")
		done()
	}
	perSite := time.Since(start) / probeIters

	start = time.Now()
	streamDisabledProbe(0, probeIters)
	perEpoch := time.Since(start) / probeIters
	if perEpoch == 0 {
		perEpoch = time.Nanosecond // clock floor: charge a whole nanosecond
	}
	epochBudget := sweepEpochBudget(t)

	start = time.Now()
	if _, err := experiments.RunTable2(2); err != nil {
		t.Fatal(err)
	}
	sweep := time.Since(start)

	const sitesPerSweep = 2000 // ~10x the real count; see doc comment
	overhead := perSite*sitesPerSweep + perEpoch*time.Duration(epochBudget)
	limit := sweep / 50 // 2%
	t.Logf("disabled site: %v/call × %d sites; disabled epoch gate: %v/epoch × %d epochs; total %v; sweep %v (limit %v)",
		perSite, sitesPerSweep, perEpoch, epochBudget, overhead, sweep, limit)
	if overhead > limit {
		t.Errorf("disabled instrumentation overhead %v exceeds 2%% of the %v sweep", overhead, sweep)
	}
}

// TestStreamingEnabledOverheadGuard bounds the live-streaming layer
// when it is actually on: snapshot capture at the tightest cadence
// (every epoch — stricter than any deployment default), with the
// convergence detector running and a slow subscriber attached, must
// stay under 5% of the Table 2 sweep's wall time. Same methodology as
// the disabled guard: per-snapshot probe × an inflated epoch budget,
// never an A/B diff.
func TestStreamingEnabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard runs a full Table 2 sweep")
	}

	hub := progress.NewHub()
	_, sub := hub.Subscribe(0, 1) // buf 1: drop-oldest fires on every publish
	defer sub.Close()
	var det progress.Detector
	const probeIters = 4096
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		streamEnabledProbe(hub, &det, i+1)
	}
	perSnap := time.Since(start) / probeIters
	epochBudget := sweepEpochBudget(t)

	start = time.Now()
	if _, err := experiments.RunTable2(2); err != nil {
		t.Fatal(err)
	}
	sweep := time.Since(start)

	overhead := perSnap * time.Duration(epochBudget)
	limit := sweep / 20 // 5%
	t.Logf("enabled snapshot: %v/publish × %d epochs = %v; sweep %v (limit %v)",
		perSnap, epochBudget, overhead, sweep, limit)
	if overhead > limit {
		t.Errorf("enabled streaming overhead %v exceeds 5%% of the %v sweep (per-snapshot %v × %d epochs)",
			overhead, sweep, perSnap, epochBudget)
	}
}
