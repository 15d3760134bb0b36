package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/profio"
	"repro/internal/server"
	"repro/internal/workloads"
)

// fingerprints pin the simulated results the benchmark checks: the
// SHA-256 of every profile spec's measurement-file bytes, the SHA-256 of
// those bytes decoded and encoded again, and every Table 2 cell's base
// and monitored cycles. The simulator is deterministic, so a correct
// performance or simplicity change leaves all of them unchanged; host
// timings are never part of them.
type fingerprints struct {
	Profiles  map[string]string   `json:"profiles"`  // spec label -> sha256 hex
	Reencoded map[string]string   `json:"reencoded"` // spec label -> sha256 hex of Save(Load(bytes))
	Table2    map[string][2]int64 `json:"table2"`    // "mech/workload" -> base, monitored cycles
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// loadFingerprints decodes the committed fingerprints.
func loadFingerprints() (*fingerprints, error) {
	var fp fingerprints
	if err := json.Unmarshal(fingerprintsJSON, &fp); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return &fp, nil
}

// profileApps are the paper's four applications.
var profileApps = []string{"lulesh", "amg2006", "blackscholes", "umt2013"}

// profileSpec is one profile-workload input: an app under a mechanism on
// that mechanism's Table 1 machine (Spec's default) with one placement
// strategy, default iterations and first-touch tracking on.
type profileSpec struct {
	label string
	spec  server.Spec
}

// profileSpecs lists the 120 profile specs: 4 apps x 6 mechanisms x 5
// placement strategies, in a fixed order.
func profileSpecs() []profileSpec {
	var out []profileSpec
	for _, app := range profileApps {
		for _, mech := range pmu.Names() {
			for _, st := range workloads.Strategies() {
				out = append(out, profileSpec{
					label: app + "/" + mech + "/" + string(st),
					spec:  server.Spec{Workload: app, Mechanism: mech, Strategy: string(st)},
				})
			}
		}
	}
	return out
}

// table2Label names one Table 2 cell.
func table2Label(c experiments.Table2Cell) string { return c.Mechanism + "/" + c.Workload }

// sha is the hex SHA-256 of b.
func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// encode is a profile's measurement-file bytes, as SaveFile writes them.
func encode(p *core.Profile) ([]byte, error) {
	var buf bytes.Buffer
	if err := profio.Save(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkCycles compares one Table 2 cell's cycles with its fingerprint.
func checkCycles(fp *fingerprints, label string, base, monitored int64) error {
	want, ok := fp.Table2[label]
	if !ok {
		return fmt.Errorf("table2 %s: no fingerprint", label)
	}
	if got := [2]int64{base, monitored}; got != want {
		return fmt.Errorf("table2 %s: cycles %v, want %v", label, got, want)
	}
	return nil
}

// checkTable2 compares a sweep's cells with the fingerprints.
func checkTable2(fp *fingerprints, t *experiments.Table2) error {
	if len(t.Cells) != len(fp.Table2) {
		return fmt.Errorf("table2: %d cells, want %d", len(t.Cells), len(fp.Table2))
	}
	for _, c := range t.Cells {
		if c.Err != "" {
			return fmt.Errorf("table2 %s: %s", table2Label(c), c.Err)
		}
		if err := checkCycles(fp, table2Label(c), int64(c.Base), int64(c.Monitored)); err != nil {
			return err
		}
	}
	return nil
}

// writeFingerprints computes every fingerprint afresh and writes them.
func writeFingerprints(path string) error {
	fp := fingerprints{Profiles: map[string]string{}, Reencoded: map[string]string{}, Table2: map[string][2]int64{}}
	for _, ps := range profileSpecs() {
		cfg, app, err := ps.spec.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", ps.label, err)
		}
		p, err := core.Analyze(cfg, app)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.label, err)
		}
		b, err := encode(p)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.label, err)
		}
		fp.Profiles[ps.label] = sha(b)
		loaded, err := profio.Load(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("%s: decode: %w", ps.label, err)
		}
		if b, err = encode(loaded); err != nil {
			return fmt.Errorf("%s: re-encode: %w", ps.label, err)
		}
		fp.Reencoded[ps.label] = sha(b)
	}
	t, err := experiments.RunTable2(0)
	if err != nil {
		return err
	}
	for _, c := range t.Cells {
		if c.Err != "" {
			return fmt.Errorf("table2 %s: %s", table2Label(c), c.Err)
		}
		fp.Table2[table2Label(c)] = [2]int64{int64(c.Base), int64(c.Monitored)}
	}
	b, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
