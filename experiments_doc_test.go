package repro

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pmu"
)

// TestExperimentsDocMatchesTable2 parses the T2 table in EXPERIMENTS.md
// and requires every measured cell, at the one decimal the doc prints,
// to equal what experiments.RunTable2(0) (the numabench -run T2 sweep)
// computes, so a change to simulated results cannot leave the doc
// behind.
func TestExperimentsDocMatchesTable2(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cells := parseDocTable2(t, string(doc))
	tbl, err := experiments.RunTable2(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range pmu.Names() {
		for _, wl := range experiments.Table2Order {
			c, ok := tbl.Cell(mech, wl)
			if !ok {
				t.Errorf("%s/%s: RunTable2 has no cell", mech, wl)
				continue
			}
			got := fmt.Sprintf("%+.1f%%", 100*c.Overhead)
			if want := cells[mech+"/"+wl]; want != got {
				t.Errorf("%s/%s: EXPERIMENTS.md says %q, RunTable2 computes %s", mech, wl, want, got)
			}
		}
	}
}

// docPct is a cell's measured value: the first signed percentage.
var docPct = regexp.MustCompile(`[+-]\d+\.\d%`)

// parseDocTable2 returns the measured percentage of every cell of the
// markdown table under the "## T2" heading, keyed "mechanism/workload"
// with the workloads taken from the header row.
func parseDocTable2(t *testing.T, doc string) map[string]string {
	t.Helper()
	start := strings.Index(doc, "\n## T2")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no T2 section")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var header []string
	cells := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		switch {
		case header == nil:
			header = cols
		case strings.HasPrefix(cols[0], "---"):
		default:
			for i := 1; i < len(cols) && i < len(header); i++ {
				cells[cols[0]+"/"+header[i]] = docPct.FindString(cols[i])
			}
		}
	}
	if want := len(pmu.Names()) * len(experiments.Table2Order); len(cells) != want {
		t.Fatalf("parsed %d T2 cells from EXPERIMENTS.md, want %d", len(cells), want)
	}
	return cells
}
