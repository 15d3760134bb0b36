package main

import (
	"strings"
	"testing"
)

// TestCheckBenchFlags covers every flag bench mode refuses, and the
// nearest combinations it accepts.
func TestCheckBenchFlags(t *testing.T) {
	cases := []struct {
		name  string
		bench bool
		set   []string
		err   string // "" for accepted
	}{
		{"artifact sweep", false, []string{"run", "out", "iters", "parallel"}, ""},
		{"bench report", true, []string{"bench-json"}, ""},
		{"bench gate with workers and telemetry", true, []string{"bench-gate", "parallel", "telemetry"}, ""},
		{"report and gate", true, []string{"bench-json", "bench-gate"}, ""},

		{"bench report with -run", true, []string{"bench-json", "run"}, "do not take -run"},
		{"bench report with -out", true, []string{"bench-json", "out"}, "do not take -out"},
		{"bench gate with -iters", true, []string{"bench-gate", "iters"}, "do not take -iters"},
		{"bench gate with -run", true, []string{"bench-gate", "run", "parallel"}, "do not take -run"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkBenchFlags(c.bench, set)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
	}
}
