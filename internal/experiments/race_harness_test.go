package experiments

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/profio"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// TestPipelineRaceHarness is the CI race leg for the access pipeline:
// one Machine and one workload (hence one shared isa.Program) are
// shared by every concurrent cell, and the whole engine → pmu → cct →
// profio pipeline runs at scheduler widths 1, 4, and 8. Every cell at
// every width must produce the same determinism hash as the serial
// reference — and under -race, any unsynchronized sharing smuggled in
// by access delivery, the per-worker CCT shards, or the parallel shard
// merge fails the run outright.
//
// CI runs this under the race detector as its own leg (see
// .github/workflows/ci.yml); it also rides along in the normal matrix.
func TestPipelineRaceHarness(t *testing.T) {
	machine := topology.MagnyCours48()
	app := workloads.NewLULESH(workloads.Params{Iters: 2})

	analyze := func() ([32]byte, error) {
		cfg := BaseConfig(machine, 0, proc.Compact)
		cfg.Mechanism = "IBS"
		prof, err := core.Analyze(cfg, app)
		if err != nil {
			return [32]byte{}, err
		}
		var buf bytes.Buffer
		if err := profio.Save(&buf, prof); err != nil {
			return [32]byte{}, err
		}
		return sha256.Sum256(buf.Bytes()), nil
	}

	ref, err := analyze()
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 4, 8} {
		hashes, err := sched.MapWith(width, width, func(int) ([32]byte, error) {
			return analyze()
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, h := range hashes {
			if h != ref {
				t.Fatalf("width %d cell %d: determinism hash %x diverged from serial reference %x",
					width, i, h, ref)
			}
		}
	}
}
