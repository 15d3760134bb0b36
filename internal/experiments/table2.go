package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Table2Cell is one measurement of the paper's Table 2: one sampling
// mechanism monitoring one benchmark on that mechanism's machine.
type Table2Cell struct {
	Mechanism string
	Workload  string
	Machine   string
	Base      units.Cycles
	Monitored units.Cycles
	// Overhead is (Monitored-Base)/Base, the parenthesised percentage
	// of Table 2.
	Overhead float64
	// PaperOverhead is the corresponding Table 2 percentage.
	PaperOverhead float64
	// Err is the cell's failure, if its run could not complete. A
	// failed cell is a reported gap: it renders as "ERR" and is
	// excluded from Cell/Overhead lookups, but it never aborts the
	// sibling cells (the graceful-degradation contract).
	Err string
}

// Table2 holds the full overhead matrix.
type Table2 struct {
	Cells []Table2Cell
}

// paperTable2 reproduces the percentages reported in Table 2.
var paperTable2 = map[string]map[string]float64{
	"IBS":      {"LULESH": 0.24, "AMG2006": 0.37, "Blackscholes": 0.06},
	"MRK":      {"LULESH": 0.05, "AMG2006": 0.07, "Blackscholes": 0.04},
	"PEBS":     {"LULESH": 0.45, "AMG2006": 0.52, "Blackscholes": 0.25},
	"DEAR":     {"LULESH": 0.07, "AMG2006": 0.12, "Blackscholes": 0.04},
	"PEBS-LL":  {"LULESH": 0.06, "AMG2006": 0.08, "Blackscholes": 0.03},
	"Soft-IBS": {"LULESH": 2.00, "AMG2006": 1.80, "Blackscholes": 0.30},
}

// table2Workloads builds the three Table 2 benchmarks. The paper
// adjusts benchmark inputs per machine ("the absolute execution time on
// different architectures is incomparable"); here one scaled input per
// benchmark serves all machines.
func table2Workloads(iters int) map[string]func() core.App {
	return map[string]func() core.App{
		"LULESH":       func() core.App { return workloads.NewLULESH(workloads.Params{Iters: iters}) },
		"AMG2006":      func() core.App { return workloads.NewAMG2006(workloads.Params{Iters: iters}) },
		"Blackscholes": func() core.App { return workloads.NewBlackscholes(workloads.Params{}) },
	}
}

// Table2Order lists workloads in the paper's column order.
var Table2Order = []string{"LULESH", "AMG2006", "Blackscholes"}

// RunTable2 measures monitoring overhead for every mechanism on its
// Table 1 machine, across the three benchmarks. iters scales workload
// length (0: defaults).
//
// Each cell is one monitored run: core.MeasureOverhead reads the
// unmonitored runtime off the same run's base clock. The 18 cells are
// independent — each builds its own engine — so they fan out across
// sched.Workers() goroutines and come back in the paper's row-major
// order. A failed cell degrades to a reported gap in the returned
// table; RunTable2 only errors when every cell failed.
func RunTable2(iters int) (*Table2, error) {
	defer timedExperiment("table2")()
	type spec struct{ mech, wl string }
	var specs []spec
	for _, mech := range pmu.Names() {
		for _, wl := range Table2Order {
			specs = append(specs, spec{mech, wl})
		}
	}
	cells, err := sched.Map(len(specs), func(i int) (Table2Cell, error) {
		mech, wl := specs[i].mech, specs[i].wl
		m := MachineForMechanism(mech)
		cfg := BaseConfig(m, 0, proc.Compact)
		cfg.Mechanism = mech
		ov, _, err := core.MeasureOverhead(cfg, table2Workloads(iters)[wl]())
		if err != nil {
			return Table2Cell{}, fmt.Errorf("table2 %s/%s: %w", mech, wl, err)
		}
		return Table2Cell{
			Mechanism:     mech,
			Workload:      wl,
			Machine:       m.Name,
			Base:          ov.Base,
			Monitored:     ov.Monitored,
			Overhead:      ov.Percent(),
			PaperOverhead: paperTable2[mech][wl],
		}, nil
	})
	t := &Table2{Cells: cells}
	if err != nil {
		sweep, _ := sched.AsSweep(err)
		if sweep == nil || sweep.AllFailed() {
			return nil, err
		}
		for _, ce := range sweep.Cells {
			c := &t.Cells[ce.Index]
			c.Mechanism = specs[ce.Index].mech
			c.Workload = specs[ce.Index].wl
			c.Machine = MachineForMechanism(c.Mechanism).Name
			c.Err = ce.Err.Error()
		}
	}
	return t, nil
}

// Cell returns the completed cell for a mechanism/workload pair.
// Failed cells (gaps) are not returned.
func (t *Table2) Cell(mech, wl string) (Table2Cell, bool) {
	for _, c := range t.Cells {
		if c.Mechanism == mech && c.Workload == wl && c.Err == "" {
			return c, true
		}
	}
	return Table2Cell{}, false
}

// Gaps returns the failed cells, in row-major order.
func (t *Table2) Gaps() []Table2Cell {
	var gaps []Table2Cell
	for _, c := range t.Cells {
		if c.Err != "" {
			gaps = append(gaps, c)
		}
	}
	return gaps
}

// Overhead returns the measured overhead fraction for a pair (0 if
// absent).
func (t *Table2) Overhead(mech, wl string) float64 {
	c, _ := t.Cell(mech, wl)
	return c.Overhead
}

// Render prints the matrix in the paper's layout, with the paper's
// percentages alongside for comparison.
func (t *Table2) Render() string {
	var b strings.Builder
	b.WriteString("Table 2. Runtime overhead of monitoring (measured vs paper).\n")
	fmt.Fprintf(&b, "%-10s", "Method")
	for _, wl := range Table2Order {
		fmt.Fprintf(&b, " %26s", wl)
	}
	b.WriteString("\n")
	gapped := false
	for _, mech := range pmu.Names() {
		fmt.Fprintf(&b, "%-10s", mech)
		for _, wl := range Table2Order {
			c, ok := t.Cell(mech, wl)
			if !ok {
				mark := "-"
				for _, g := range t.Gaps() {
					if g.Mechanism == mech && g.Workload == wl {
						mark, gapped = "ERR", true
					}
				}
				fmt.Fprintf(&b, " %26s", mark)
				continue
			}
			fmt.Fprintf(&b, " %12s (paper %5s)",
				pct(c.Overhead), pct(c.PaperOverhead))
		}
		b.WriteString("\n")
	}
	if gapped {
		b.WriteString("gaps (cells that failed and degraded):\n")
		for _, g := range t.Gaps() {
			fmt.Fprintf(&b, "  %s/%s: %s\n", g.Mechanism, g.Workload, g.Err)
		}
	}
	return b.String()
}
