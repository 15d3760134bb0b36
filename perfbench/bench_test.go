package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	pin()
	os.Exit(m.Run())
}

// short runs a workload for about a second of ops: the benchmark's
// short mode.
func short(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), options{workload: workload, seed: 7, seconds: 1, trace: trace, dir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShortRuns runs every workload untraced and traced and checks that
// the outputs pass and every named metric appears with its unit.
func TestShortRuns(t *testing.T) {
	for _, wl := range []string{"profile", "table2", "service"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				res := short(t, wl, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, m.Value)
					}
				}
				// The layer spans of an op add up to its time within 10%.
				if c := res.Metrics["trace.coverage"].Value; trace && (c < 0.9 || c > 1) {
					t.Errorf("trace.coverage = %v, want within [0.9, 1]", c)
				}
			})
		}
	}
}

// TestCorruptFingerprintFails shows that each workload's output check
// bites: with one fingerprint changed, the ops it covers fail.
func TestCorruptFingerprintFails(t *testing.T) {
	orig := fingerprintsJSON
	first := balancedOrder(profileSpecs(), 7)[0].label
	popular := serviceSpecs()[0].label
	for _, tc := range []struct {
		name, workload string
		corrupt        func(*fingerprints)
	}{
		{"profile bytes", "profile", func(fp *fingerprints) { fp.Profiles[first] = "0" + fp.Profiles[first] }},
		{"profile re-encoding", "profile", func(fp *fingerprints) { fp.Reencoded[first] = "0" + fp.Reencoded[first] }},
		{"service bytes", "service", func(fp *fingerprints) { fp.Profiles[popular] = "0" + fp.Profiles[popular] }},
		{"service re-encoding", "service", func(fp *fingerprints) { fp.Reencoded[popular] = "0" + fp.Reencoded[popular] }},
		{"table2 cycles", "table2", func(fp *fingerprints) { fp.Table2["PEBS/AMG2006"] = [2]int64{1, 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp, err := loadFingerprints()
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(fp)
			if fingerprintsJSON, err = json.Marshal(fp); err != nil {
				t.Fatal(err)
			}
			defer func() { fingerprintsJSON = orig }()
			res, err := run(context.Background(), options{workload: tc.workload, seed: 7, seconds: 1, dir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d with a corrupted fingerprint", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d = %s %s, want %s %s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
