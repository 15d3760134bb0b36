package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name string
		err  string
		call func() error
	}{
		{"unknown workload", "unknown workload", func() error {
			return run(context.Background(), io.Discard, "nope", "IBS", "", 0, "compact", "baseline", 0, 0, 1, 1, false, false, false, false, "", "", "")
		}},
		{"unknown machine", "unknown machine", func() error {
			return run(context.Background(), io.Discard, "lulesh", "IBS", "pdp-11", 0, "compact", "baseline", 0, 0, 1, 1, false, false, false, false, "", "", "")
		}},
		{"unknown binding", "unknown binding", func() error {
			return run(context.Background(), io.Discard, "lulesh", "IBS", "", 0, "diagonal", "baseline", 0, 0, 1, 1, false, false, false, false, "", "", "")
		}},
		{"unknown mechanism", "unknown mechanism", func() error {
			return run(context.Background(), io.Discard, "lulesh", "XYZ", "", 0, "compact", "baseline", 0, 0, 1, 1, false, false, false, false, "", "", "")
		}},
		{"bad chaos plan", "faults:", func() error {
			return run(context.Background(), io.Discard, "lulesh", "IBS", "", 0, "compact", "baseline", 0, 0, 1, 1, false, false, false, false, "", "", "drop=2.5")
		}},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.err)
		}
	}
}

func TestRunBlackscholesSmoke(t *testing.T) {
	// A fast end-to-end run through the whole pipeline.
	if err := run(context.Background(), io.Discard, "blackscholes", "IBS", "", 0, "compact", "baseline",
		0, 0, 4, 1, true, true, true, false, t.TempDir()+"/report.html", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosSmoke(t *testing.T) {
	// A chaos run must complete end-to-end, not crash: drops, EA
	// corruption, and a stall all hit the same pipeline the clean run
	// uses.
	if err := run(context.Background(), io.Discard, "blackscholes", "IBS", "", 0, "compact", "baseline",
		0, 0, 4, 1, false, false, false, false, "", "", "drop=0.3,corrupt=0.05,stall=200,seed=9"); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitMatchesLocalProfile is the CLI-level determinism check: a
// measurement file fetched through `numaprof -submit` from a live
// daemon is byte-identical to the one a local `numaprof -profile` run
// writes for the same flags.
func TestSubmitMatchesLocalProfile(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Store: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	local := filepath.Join(dir, "local.numaprof")
	remote := filepath.Join(dir, "remote.numaprof")
	if err := run(context.Background(), io.Discard, "blackscholes", "IBS", "", 0, "compact", "interleave",
		0, 0, 1, 1, true, false, false, false, "", local, ""); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := submitJobs(&out, ts.URL, []string{"blackscholes"}, "IBS", "", 0, "compact",
		"interleave", 0, 0, 1, true, false, false, "", remote, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "done on "+ts.URL) {
		t.Fatalf("submit output missing completion line:\n%s", out.String())
	}
	lb, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, rb) {
		t.Fatalf("daemon-fetched profile differs from local -profile output: %d vs %d bytes", len(rb), len(lb))
	}
}

func TestRunUMTDefaultsToScatter(t *testing.T) {
	if err := run(context.Background(), io.Discard, "umt2013", "MRK", "", 0, "compact", "baseline",
		0, 0, 2, 1, false, false, false, false, "", "", ""); err != nil {
		t.Fatal(err)
	}
}
