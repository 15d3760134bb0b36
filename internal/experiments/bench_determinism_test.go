package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cct"
	"repro/internal/metrics"
)

// TestBenchDeterministicWork is the bench determinism contract: two
// -bench-json runs on the same build must agree on every non-timing
// field — the suite's names, work op counts and work fingerprints.
// Only ns_per_op / bytes_per_op / allocs_per_op / iters may differ
// between runs.
func TestBenchDeterministicWork(t *testing.T) {
	opts := BenchOptions{
		MinTime: time.Millisecond, // timing fields are not under test
		Rounds:  1,
	}
	a, b := RunBench(opts), RunBench(opts)

	if a.Schema != b.Schema {
		t.Errorf("schema differs across runs: %d vs %d", a.Schema, b.Schema)
	}
	if len(a.Suite) != len(b.Suite) {
		t.Fatalf("suite length differs: %d vs %d", len(a.Suite), len(b.Suite))
	}
	if len(a.Suite) < 4 {
		t.Fatalf("suite has %d benchmarks, want at least 4", len(a.Suite))
	}
	for i := range a.Suite {
		ra, rb := a.Suite[i], b.Suite[i]
		if ra.Name != rb.Name {
			t.Errorf("suite[%d]: name %q vs %q", i, ra.Name, rb.Name)
		}
		if ra.WorkOps != rb.WorkOps {
			t.Errorf("%s: work_ops %d vs %d", ra.Name, ra.WorkOps, rb.WorkOps)
		}
		if ra.Work != rb.Work {
			t.Errorf("%s: work fingerprint %#x vs %#x — the simulated outcome of a fixed-size run changed between two runs of the same build",
				ra.Name, ra.Work, rb.Work)
		}
	}
}

// TestBenchGatePolicy pins the CI gate policy: every benchmark in the
// suite is gated at the threshold, and a multi-row failure names every
// offender.
func TestBenchGatePolicy(t *testing.T) {
	cases := []struct {
		name    string
		deltas  []BenchDelta
		wantErr bool
	}{
		{"within threshold", []BenchDelta{{Name: BenchAccessDispatch, Delta: 0.09}}, false},
		{"improvement", []BenchDelta{{Name: BenchAccessDispatch, Delta: -0.30}}, false},
		{"regression", []BenchDelta{{Name: BenchAccessDispatch, Delta: 0.11}}, true},
		{"cct_merge gated", []BenchDelta{{Name: BenchCCTMerge, Delta: 0.50}}, true},
		{"profio_encode gated", []BenchDelta{{Name: BenchProfioEncode, Delta: 0.11}}, true},
		{"cache_probe gated", []BenchDelta{{Name: BenchCacheProbe, Delta: 0.11}}, true},
		{"all rows within threshold", []BenchDelta{
			{Name: BenchAccessDispatch, Delta: 0.05},
			{Name: BenchCacheProbe, Delta: -0.02},
			{Name: BenchCCTMerge, Delta: 0.09},
			{Name: BenchProfioEncode, Delta: 0.0},
		}, false},
	}
	for _, tc := range cases {
		err := GateBench(tc.deltas, BenchGateThreshold)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: GateBench err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}

	// A failure with two offending rows reports both.
	err := GateBench([]BenchDelta{
		{Name: BenchCCTMerge, Delta: 0.20},
		{Name: BenchProfioEncode, Delta: 0.30},
	}, BenchGateThreshold)
	if err == nil || !strings.Contains(err.Error(), BenchCCTMerge) ||
		!strings.Contains(err.Error(), BenchProfioEncode) {
		t.Errorf("multi-row failure should name every offender, got: %v", err)
	}
}

// TestBenchWorkStableAcrossMergeWidths pins the cct_merge work
// fingerprint: MergeShards must build the same tree serially and at the
// worker count the benchmark times.
func TestBenchWorkStableAcrossMergeWidths(t *testing.T) {
	mergeWork := func(workers int) uint64 {
		shards := benchMergeShards()
		dst := cct.New()
		for i := 0; i < 8; i++ {
			cct.MergeShards(dst, shards, workers)
		}
		return hashFields(dst.Root().Size(),
			dst.Root().InclusiveMetric(metrics.Samples))
	}
	if a, b := mergeWork(1), mergeWork(benchMergeWorkers); a != b {
		t.Errorf("cct_merge fingerprint differs: workers=1 %#x vs workers=%d %#x",
			a, benchMergeWorkers, b)
	}
}

// TestCompareBenchRefusesIncompatibleBaselines makes the gate fail loud
// rather than compare apples to oranges.
func TestCompareBenchRefusesIncompatibleBaselines(t *testing.T) {
	cur := &BenchReport{Schema: BenchSchema, Suite: []BenchResult{{Name: BenchAccessDispatch, NsPerOp: 100}}}

	stale := &BenchReport{Schema: BenchSchema - 1}
	if _, err := CompareBench(stale, cur); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch: err = %v, want schema error", err)
	}

	empty := &BenchReport{Schema: BenchSchema}
	if _, err := CompareBench(empty, cur); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing benchmark: err = %v, want missing-benchmark error", err)
	}

	base := &BenchReport{Schema: BenchSchema, Suite: []BenchResult{{Name: BenchAccessDispatch, NsPerOp: 80}}}
	deltas, err := CompareBench(base, cur)
	if err != nil {
		t.Fatalf("CompareBench: %v", err)
	}
	if len(deltas) != 1 || deltas[0].Delta < 0.24 || deltas[0].Delta > 0.26 {
		t.Errorf("deltas = %+v, want one row with Delta 0.25", deltas)
	}
}
