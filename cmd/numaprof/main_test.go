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

// noFirstTouch is a -first-touch=false spec value.
var noFirstTouch = new(bool)

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name string
		err  string
		spec server.Spec
	}{
		{"unknown workload", "unknown workload", server.Spec{Workload: "nope"}},
		{"unknown machine", "unknown machine", server.Spec{Workload: "lulesh", Machine: "pdp-11"}},
		{"unknown binding", "unknown binding", server.Spec{Workload: "lulesh", Binding: "diagonal"}},
		{"unknown mechanism", "unknown mechanism", server.Spec{Workload: "lulesh", Mechanism: "XYZ"}},
		{"bad chaos plan", "faults:", server.Spec{Workload: "lulesh", Chaos: "drop=2.5"}},
	}
	for _, c := range cases {
		c.spec.Iters, c.spec.FirstTouch = 1, noFirstTouch
		err := run(context.Background(), io.Discard, c.spec, options{top: 1})
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
	spec := server.Spec{Workload: "blackscholes", Iters: 4, Trace: true}
	if err := run(context.Background(), io.Discard, spec,
		options{top: 1, cct: true, html: t.TempDir() + "/report.html"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosSmoke(t *testing.T) {
	// A chaos run must complete end-to-end, not crash: drops, EA
	// corruption, and a stall all hit the same pipeline the clean run
	// uses.
	spec := server.Spec{Workload: "blackscholes", Iters: 4, FirstTouch: noFirstTouch,
		Chaos: "drop=0.3,corrupt=0.05,stall=200,seed=9"}
	if err := run(context.Background(), io.Discard, spec, options{top: 1}); err != nil {
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
	spec := server.Spec{Workload: "blackscholes", Strategy: "interleave", Iters: 1}
	if err := run(context.Background(), io.Discard, spec, options{top: 1, profile: local}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := submitJobs(&out, spec,
		options{workloads: []string{"blackscholes"}, submit: ts.URL, profile: remote}); err != nil {
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
	spec := server.Spec{Workload: "umt2013", Mechanism: "MRK", Iters: 2, FirstTouch: noFirstTouch}
	if err := run(context.Background(), io.Discard, spec, options{top: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFlags covers every flag combination numaprof refuses, and
// the nearest ones it accepts.
func TestCheckFlags(t *testing.T) {
	one, two := []string{"lulesh"}, []string{"lulesh", "amg2006"}
	const url = "http://localhost:7077"
	cases := []struct {
		name  string
		o     options
		trace bool
		err   string // "" for accepted
	}{
		{"plain run", options{workloads: one}, false, ""},
		{"several workloads", options{workloads: two}, true, ""},
		{"optimize", options{workloads: one, optimize: true}, false, ""},
		{"optimize with default -top and -cct", options{workloads: one, optimize: true, top: 5, cct: true, set: map[string]bool{"workload": true, "optimize": true}}, false, ""},
		{"optimize on a daemon", options{workloads: one, optimize: true, submit: url}, false, ""},
		{"follow a daemon job", options{workloads: two, submit: url, follow: true}, true, ""},
		{"files from one daemon job", options{workloads: one, submit: url, html: "r.html", profile: "p"}, false, ""},
		{"converge early locally", options{workloads: two, convergeEarly: true}, false, ""},

		{"optimize several workloads", options{workloads: two, optimize: true}, false, "-optimize needs a single workload"},
		{"optimize with -profile", options{workloads: one, optimize: true, profile: "p"}, false, "-optimize does not take -profile"},
		{"optimize with -html", options{workloads: one, optimize: true, html: "r.html"}, false, "-optimize does not take -html"},
		{"optimize with -trace", options{workloads: one, optimize: true}, true, "-optimize does not take -trace"},
		{"optimize with -converge-early", options{workloads: one, optimize: true, convergeEarly: true}, false, "-optimize does not take -converge-early"},
		{"optimize with -follow", options{workloads: one, optimize: true, submit: url, follow: true}, false, "-optimize does not take -follow"},
		{"optimize with -top", options{workloads: one, optimize: true, top: 1, set: map[string]bool{"optimize": true, "top": true}}, false, "-optimize does not take -top"},
		{"optimize with -cct", options{workloads: one, optimize: true, top: 5, set: map[string]bool{"optimize": true, "cct": true}}, false, "-optimize does not take -cct"},
		{"follow without submit", options{workloads: one, follow: true}, false, "-follow needs -submit"},
		{"converge early on a daemon", options{workloads: one, submit: url, convergeEarly: true}, false, "-converge-early is local-only"},
		{"profile of several workloads", options{workloads: two, profile: "p"}, false, "-html/-profile need a single workload"},
		{"html of several daemon jobs", options{workloads: two, submit: url, html: "r.html"}, false, "-html/-profile need a single workload"},
	}
	for _, c := range cases {
		err := c.o.check(c.trace)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
	}
}
