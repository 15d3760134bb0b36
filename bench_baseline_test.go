package repro

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestBenchBaselineWork ties each micro-suite row to the work its
// committed baseline timed: a fresh RunBench must reproduce every
// work_ops and work fingerprint in BENCH_7.json. The bench gate reads
// only ns/op, and TestBenchDeterministicWork compares two runs of one
// build, so without this test a row that starts timing different work
// would still be gated against the old row's numbers.
func TestBenchBaselineWork(t *testing.T) {
	data, err := os.ReadFile("BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	var base experiments.BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("BENCH_7.json: %v", err)
	}
	rep := experiments.RunBench(experiments.BenchOptions{MinTime: time.Millisecond, Rounds: 1})
	if rep.Schema != base.Schema {
		t.Errorf("schema %d, baseline %d", rep.Schema, base.Schema)
	}
	if len(rep.Suite) != len(base.Suite) {
		t.Fatalf("suite has %d rows, baseline %d", len(rep.Suite), len(base.Suite))
	}
	want := make(map[string]experiments.BenchResult, len(base.Suite))
	for _, r := range base.Suite {
		want[r.Name] = r
	}
	for _, r := range rep.Suite {
		b, ok := want[r.Name]
		if !ok {
			t.Errorf("%s: row missing from the baseline", r.Name)
			continue
		}
		if r.WorkOps != b.WorkOps || r.Work != b.Work {
			t.Errorf("%s: work %d at %d ops, baseline %d at %d ops",
				r.Name, r.Work, r.WorkOps, b.Work, b.WorkOps)
		}
	}
}
