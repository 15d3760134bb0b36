package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/proc"
	"repro/internal/profio"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// The scheduler's contract is that parallelism changes wall-clock and
// nothing else: every experiment run twice with the same seed — and at
// 1 worker vs 8 — must yield identical rendered tables, and a profiled
// run must yield byte-identical profio measurement files. These tests
// hash-compare the real artifacts, so any nondeterminism smuggled in by
// a future port (map iteration, shared RNG, result reordering) fails
// loudly here rather than as an unreproducible report.

// atWorkers runs f under a fixed worker count, restoring the previous
// setting afterwards.
func atWorkers(t *testing.T, n int, f func() (string, error)) string {
	t.Helper()
	defer sched.SetWorkers(sched.SetWorkers(n))
	out, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func hash(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		heavy bool // skipped under -race, to fit the default test timeout
		run   func() (string, error)
	}{
		{"Table2", true, func() (string, error) {
			r, err := RunTable2(1)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"AblationPeriod", false, func() (string, error) {
			r, err := RunAblationPeriod()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"AblationBins", false, func() (string, error) {
			r, err := RunAblationBins()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"AblationDynamic", false, func() (string, error) {
			r, err := RunAblationDynamic()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure1", false, func() (string, error) {
			r, err := RunFigure1()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figure3", true, func() (string, error) {
			r, err := RunFigure3(2)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"Figures89", false, func() (string, error) {
			r, err := RunFigures89(0)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled && c.heavy {
				t.Skip("heavy sweep trimmed under -race (see race_off_test.go)")
			}
			serial := atWorkers(t, 1, c.run)
			again := atWorkers(t, 1, c.run)
			if hash(serial) != hash(again) {
				t.Fatalf("serial run is not repeatable:\n--- first\n%s\n--- second\n%s", serial, again)
			}
			parallel := atWorkers(t, 8, c.run)
			if hash(serial) != hash(parallel) {
				t.Fatalf("-parallel 8 changed the rendering:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
			}
		})
	}
}

// TestProfioBytesDeterministicAcrossWorkers pins the stronger claim:
// the serialised measurement file — every section, CRC included — is
// byte-identical whether the cell ran alone or as one of eight
// concurrent cells.
func TestProfioBytesDeterministicAcrossWorkers(t *testing.T) {
	cfg := BaseConfig(topology.MagnyCours48(), 0, proc.Compact)
	cfg.Mechanism = "IBS"
	analyze := func() ([]byte, error) {
		prof, err := core.Analyze(cfg, workloads.NewLULESH(workloads.Params{Iters: 2}))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := profio.Save(&buf, prof); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	ref, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	again, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, again) {
		t.Fatal("two serial runs of the same config produced different measurement bytes")
	}
	cells := 8
	if raceEnabled {
		cells = 3 // still concurrent, just fewer repeats of the same cell
	}
	outs, err := sched.MapWith(cells, cells, func(int) ([]byte, error) { return analyze() })
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if !bytes.Equal(ref, out) {
			t.Fatalf("concurrent cell %d produced different measurement bytes (len %d vs %d)",
				i, len(out), len(ref))
		}
	}
}

// TestChaosBytesDeterministicAcrossWorkers extends the byte contract
// to fault injection: a seeded chaos plan belongs to its cell, so the
// injected fault sequence — and therefore the degraded measurement
// file — must not depend on how many sibling cells run beside it. One
// plan per fault class: drops, drops with a hard sampler failure at
// 95% of the fault-free sample count, stalls, corrupted samples, and
// lost per-thread profiles.
func TestChaosBytesDeterministicAcrossWorkers(t *testing.T) {
	cfg := BaseConfig(topology.MagnyCours48(), 0, proc.Compact)
	cfg.Mechanism = "IBS"
	lulesh := func() core.App { return workloads.NewLULESH(workloads.Params{Iters: 2}) }
	base, err := core.Analyze(cfg, lulesh())
	if err != nil {
		t.Fatal(err)
	}
	plans := []faults.Plan{
		{Seed: 42, DropRate: 0.20},
		{Seed: 42, DropRate: 0.20, FailAfter: uint64(0.95 * base.Totals.Samples)},
		{Seed: 7, StallAfter: 400},
		{Seed: 11, CorruptRate: 0.05, SkidRate: 0.05, GarbleRate: 0.02},
		{Seed: 3, ThreadLossRate: 0.5},
	}
	cells := 4
	if raceEnabled {
		cells = 2
	}
	for _, plan := range plans {
		t.Run(plan.String(), func(t *testing.T) {
			analyze := func() ([]byte, error) {
				chaosCfg := cfg
				p := plan
				chaosCfg.Faults = &p
				prof, err := core.Analyze(chaosCfg, lulesh())
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := profio.Save(&buf, prof); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			}
			ref, err := analyze()
			if err != nil {
				t.Fatal(err)
			}
			outs, err := sched.MapWith(cells, cells, func(int) ([]byte, error) { return analyze() })
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range outs {
				if !bytes.Equal(ref, out) {
					t.Fatalf("concurrent chaos cell %d diverged from the serial reference", i)
				}
			}
		})
	}
}
