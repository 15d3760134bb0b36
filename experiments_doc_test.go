package repro

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/server"
)

// TestExperimentsDocMatchesTable2 parses the T2 table in EXPERIMENTS.md
// and requires every measured cell, at the one decimal the doc prints,
// to equal what experiments.RunTable2(0) (the numabench -run T2 sweep)
// computes, so a change to simulated results cannot leave the doc
// behind.
func TestExperimentsDocMatchesTable2(t *testing.T) {
	cells := parseDocTable2(t)
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

// TestExperimentsDocMatchesA1 does the same for the A1 table: every
// cell of every period's row must read what
// experiments.RunAblationPeriod (the numabench -run A1 sweep) computes,
// printed as numabench prints it.
func TestExperimentsDocMatchesA1(t *testing.T) {
	_, rows := parseDocTable(t, "A1")
	res, err := experiments.RunAblationPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Rows) {
		t.Fatalf("EXPERIMENTS.md's A1 table has %d rows, RunAblationPeriod %d", len(rows), len(res.Rows))
	}
	for i, r := range res.Rows {
		got := []string{fmt.Sprint(r.Period), fmt.Sprintf("%.0f", r.Samples),
			fmt.Sprintf("%.3f", r.LPI), fmt.Sprintf("%.3f", r.LPIExact),
			fmt.Sprintf("%.2f", r.Ratio), fmt.Sprintf("%+.1f%%", 100*r.Overhead)}
		if !reflect.DeepEqual(rows[i], got) {
			t.Errorf("period %d: EXPERIMENTS.md says %q, RunAblationPeriod computes %q", r.Period, rows[i], got)
		}
	}
}

// TestExperimentsDocMatchesLULESHEstimate pins the LULESH pair quoted
// in "Validation of the estimators": the estimated and exact lpi_NUMA
// of numaprof's default LULESH run, as the CLI prints them.
func TestExperimentsDocMatchesLULESHEstimate(t *testing.T) {
	cfg, app, err := server.Spec{Workload: "lulesh"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Analyze(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("lpi_NUMA %.3f (exact %.3f)", p.Totals.LPI, p.Totals.LPIExact)
	if section := docSection(t, "Validation of the estimators"); !strings.Contains(section, "`"+got+"`") {
		t.Errorf("EXPERIMENTS.md's estimator validation does not quote `%s`", got)
	}
}

// docPct is a cell's measured value: the first signed percentage.
var docPct = regexp.MustCompile(`[+-]\d+\.\d%`)

// parseDocTable2 returns the measured percentage of every cell of the
// T2 table, keyed "mechanism/workload" with the workloads taken from
// the header row.
func parseDocTable2(t *testing.T) map[string]string {
	t.Helper()
	header, rows := parseDocTable(t, "T2")
	cells := map[string]string{}
	for _, cols := range rows {
		for i := 1; i < len(cols) && i < len(header); i++ {
			cells[cols[0]+"/"+header[i]] = docPct.FindString(cols[i])
		}
	}
	if want := len(pmu.Names()) * len(experiments.Table2Order); len(cells) != want {
		t.Fatalf("parsed %d T2 cells from EXPERIMENTS.md, want %d", len(cells), want)
	}
	return cells
}

// parseDocTable returns the header and the body rows, each cell
// trimmed, of the markdown table in the EXPERIMENTS.md section whose
// "## " heading starts with id.
func parseDocTable(t *testing.T, id string) (header []string, rows [][]string) {
	t.Helper()
	for _, line := range strings.Split(docSection(t, id), "\n") {
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
			rows = append(rows, cols)
		}
	}
	return header, rows
}

// docSection returns the EXPERIMENTS.md section whose "## " heading
// starts with id, up to the next such heading.
func docSection(t *testing.T, id string) string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), "\n## "+id)
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no %s section", id)
	}
	section := string(doc[start+1:])
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	return section
}
