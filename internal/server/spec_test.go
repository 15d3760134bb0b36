package server

import (
	"os"
	"strings"
	"testing"

	"repro/internal/datacentric"
)

func TestNormalizeResolvesDefaults(t *testing.T) {
	n, err := Spec{Workload: "lulesh"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Mechanism != "IBS" || n.Machine != "amd-magny-cours-48" ||
		n.Binding != "compact" || n.Strategy != "baseline" ||
		n.FirstTouch == nil || !*n.FirstTouch {
		t.Fatalf("defaults not resolved: %+v", n)
	}
}

func TestNormalizeMechanismPicksTestbed(t *testing.T) {
	cases := map[string]string{
		"IBS":      "amd-magny-cours-48",
		"Soft-IBS": "amd-magny-cours-48",
		"MRK":      "ibm-power7-128",
		"PEBS":     "intel-harpertown-8",
		"DEAR":     "intel-itanium2-8",
		"PEBS-LL":  "intel-ivybridge-8",
	}
	for mech, machine := range cases {
		n, err := Spec{Workload: "lulesh", Mechanism: mech}.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if n.Machine != machine {
			t.Errorf("%s: machine = %s, want %s", mech, n.Machine, machine)
		}
	}
}

func TestNormalizeUMTQuirks(t *testing.T) {
	n, err := Spec{Workload: "umt2013"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Threads != 32 || n.Binding != "scatter" {
		t.Fatalf("UMT quirks not applied: threads=%d binding=%s", n.Threads, n.Binding)
	}
	// An explicit scatter/thread choice is kept.
	n, err = Spec{Workload: "umt2013", Threads: 8, Binding: "scatter"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Threads != 8 {
		t.Fatalf("explicit threads overridden: %d", n.Threads)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty workload", Spec{}, "unknown workload"},
		{"unknown workload", Spec{Workload: "doom"}, "unknown workload"},
		{"unknown mechanism", Spec{Workload: "lulesh", Mechanism: "XYZ"}, "unknown mechanism"},
		{"unknown machine", Spec{Workload: "lulesh", Machine: "pdp-11"}, "unknown machine"},
		{"unknown binding", Spec{Workload: "lulesh", Binding: "diagonal"}, "unknown binding"},
		{"unknown strategy", Spec{Workload: "lulesh", Strategy: "wishful"}, "unknown strategy"},
		{"negative threads", Spec{Workload: "lulesh", Threads: -1}, "negative thread"},
		{"negative bins", Spec{Workload: "lulesh", Bins: -1}, "negative bin"},
		{"too many bins", Spec{Workload: "lulesh", Bins: datacentric.MaxBins + 1}, "exceeds the maximum"},
		{"negative iters", Spec{Workload: "lulesh", Iters: -2}, "negative iteration"},
		{"bad chaos", Spec{Workload: "lulesh", Chaos: "drop=2.5"}, "faults:"},
		{"flaky chaos key", Spec{Workload: "lulesh", Chaos: "flaky=1"}, "unknown plan key"},
	}
	for _, c := range cases {
		_, err := c.spec.Normalize()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// The unknown-machine errors name the presets from topology's table
// without building a machine; their text is pinned byte for byte.
func TestNormalizeUnknownMachineText(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "lulesh", Machine: "pdp-11"},
			`unknown machine "pdp-11"; presets: amd-magny-cours-48, ibm-power7-128, intel-harpertown-8, intel-itanium2-8, intel-ivybridge-8`},
		{Spec{Workload: "lulesh,amg2006", Machine: "pdp-11"},
			`unknown machine "pdp-11"; presets: amd-magny-cours-48, ibm-power7-128, intel-harpertown-8, intel-itanium2-8, intel-ivybridge-8`},
	}
	for _, c := range cases {
		_, err := c.spec.Normalize()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.spec.Workload, err, c.want)
		}
	}
}

func TestKeyCanonicalOverDefaults(t *testing.T) {
	// Spelling a default explicitly must hash to the same key.
	implicit := Spec{Workload: "blackscholes"}
	ft := true
	explicit := Spec{
		Workload:   "blackscholes",
		Mechanism:  "IBS",
		Machine:    "amd-magny-cours-48",
		Binding:    "compact",
		Strategy:   "baseline",
		FirstTouch: &ft,
	}
	if implicit.Key() != explicit.Key() {
		t.Fatal("implicit and explicit defaults hash differently")
	}
	other := Spec{Workload: "blackscholes", Strategy: "interleave"}
	if other.Key() == implicit.Key() {
		t.Fatal("different strategies share a key")
	}
	if !implicit.Key().Valid() {
		t.Fatalf("key %q is not a valid store key", implicit.Key())
	}
}

func TestBuildMatchesCLISemantics(t *testing.T) {
	cfg, app, err := Spec{Workload: "blackscholes", Iters: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if app == nil || app.Name() == "" {
		t.Fatal("no app built")
	}
	if cfg.Machine == nil || cfg.Mechanism != "IBS" || !cfg.TrackFirstTouch {
		t.Fatalf("config not CLI-equivalent: %+v", cfg)
	}
}

// defaultBlackscholesKey is the key of Spec{Workload: "blackscholes"}
// run with datacentric.DefaultBins bins; every stored default-bin
// profile is filed under keys computed this way.
const defaultBlackscholesKey = "6fe7d58e80eeac4995d392a24f2f9e71a01bb3b01cc410a8ffb641763e4b1b84"

// TestBinsResolvedIntoKeyAndBuild: the bin count a spec runs with is
// the one its key hashes. An unset count resolves from NUMAPROF_BINS;
// any spec that runs with the default count keeps the default key,
// and an explicit count wins over the environment, also when the
// normalized spec is keyed and built again.
func TestBinsResolvedIntoKeyAndBuild(t *testing.T) {
	unset := Spec{Workload: "blackscholes"}
	five := Spec{Workload: "blackscholes", Bins: datacentric.DefaultBins}

	t.Setenv(datacentric.BinsEnvVar, "")
	if err := os.Unsetenv(datacentric.BinsEnvVar); err != nil {
		t.Fatal(err)
	}
	if k := unset.Key(); k != defaultBlackscholesKey {
		t.Fatalf("unset env: key %s, want the default %s", k, defaultBlackscholesKey)
	}
	if k := five.Key(); k != defaultBlackscholesKey {
		t.Fatalf("explicit bins 5: key %s, want the default %s", k, defaultBlackscholesKey)
	}

	t.Setenv(datacentric.BinsEnvVar, "5")
	if k := unset.Key(); k != defaultBlackscholesKey {
		t.Fatalf("NUMAPROF_BINS=5: key %s, want the default %s", k, defaultBlackscholesKey)
	}

	t.Setenv(datacentric.BinsEnvVar, "8")
	if k := unset.Key(); k == defaultBlackscholesKey {
		t.Fatal("NUMAPROF_BINS=8 kept the default key for a spec that runs with 8 bins")
	}
	if cfg, _, err := unset.Build(); err != nil || cfg.Bins != 8 {
		t.Fatalf("NUMAPROF_BINS=8, unset bins: Config.Bins = %d (%v), want 8", cfg.Bins, err)
	}
	n, err := five.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Spec{"explicit": five, "normalized": n} {
		if k := s.Key(); k != defaultBlackscholesKey {
			t.Errorf("NUMAPROF_BINS=8, %s bins 5: key %s, want the default %s", name, k, defaultBlackscholesKey)
		}
		cfg, _, err := s.Build()
		if err != nil || cfg.Bins != datacentric.DefaultBins {
			t.Errorf("NUMAPROF_BINS=8, %s bins 5: Config.Bins = %d (%v), want 5", name, cfg.Bins, err)
		}
	}
}
