package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/workloads"
)

// table2Cell is one cell of the paper's Table 2, built the way
// experiments.RunTable2 builds it (default iterations).
type table2Cell struct {
	mech, wl string
	cfg      core.Config
	app      func() core.App
}

// table2Cells lists the 18 cells in RunTable2's row-major order.
func table2Cells() []table2Cell {
	apps := map[string]func() core.App{
		"LULESH":       func() core.App { return workloads.NewLULESH(workloads.Params{}) },
		"AMG2006":      func() core.App { return workloads.NewAMG2006(workloads.Params{}) },
		"Blackscholes": func() core.App { return workloads.NewBlackscholes(workloads.Params{}) },
	}
	var out []table2Cell
	for _, mech := range pmu.Names() {
		for _, wl := range experiments.Table2Order {
			cfg := experiments.BaseConfig(experiments.MachineForMechanism(mech), 0, proc.Compact)
			cfg.Mechanism = mech
			out = append(out, table2Cell{mech: mech, wl: wl, cfg: cfg, app: apps[wl]})
		}
	}
	return out
}

// measureCell runs one cell unmonitored then monitored, as
// core.MeasureOverhead does, timing each run as its own layer.
func measureCell(o *opSpan, c table2Cell) (base *proc.Engine, prof *core.Profile, err error) {
	err = o.layer("proc.run", func() (err error) {
		base, err = core.Run(c.cfg, c.app())
		return err
	})
	if err == nil {
		err = o.layer("core.analyze", func() (err error) {
			prof, err = core.Analyze(c.cfg, c.app())
			return err
		})
	}
	return base, prof, err
}

// checkCell compares one cell's cycles with its fingerprint.
func checkCell(fp *fingerprints, c table2Cell, base *proc.Engine, prof *core.Profile) error {
	return checkCycles(fp, c.mech+"/"+c.wl, int64(base.TotalTime()), int64(prof.Totals.SimTime))
}

func runTable2(ctx context.Context, o options, rep *report) error {
	cells := table2Cells()
	var fp *fingerprints
	err := setUp(rep, func() (err error) {
		if fp, err = loadFingerprints(); err != nil {
			return err
		}
		// The IBS and MRK rows: they keep first-use costs out of the
		// timed sweeps, and at about two seconds they make a set-up long
		// enough that a stall of the host for part of a second does not
		// move it much.
		for _, c := range cells[:2*len(experiments.Table2Order)] {
			base, prof, err := measureCell(nil, c)
			if err != nil {
				return err
			}
			if err := checkCell(fp, c, base, prof); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	last, err := timedLoop(o, rep, func(op int64, i int, traced bool) error {
		settle(rep)
		rec.install(traced)
		start := time.Now()
		sp := rec.begin(ctx, op, "op", traced)
		var t *experiments.Table2
		err := sp.layer("experiments.table2", func() (err error) {
			t, err = experiments.RunTable2(0)
			return err
		})
		sp.end()
		elapsed := time.Since(start)
		rec.install(false)
		defer func() { rep.untimed += time.Since(start) - elapsed }()
		rep.attempted++
		if err != nil {
			return err
		}
		if err := checkTable2(fp, t); err != nil {
			rep.failed++
			rep.fail("%v", err)
			return nil
		}
		rep.samples = append(rep.samples, opSample{traced, ms(elapsed), i})
		return nil
	})
	if err != nil || !o.trace {
		return err
	}

	// The serial pass: every cell's unmonitored and monitored run, one
	// after another, so their sums split the sweep's host time into the
	// simulator alone and the monitoring on top of it.
	serial := rec.begin(ctx, last+1, "serial", true)
	var memAccesses, samplesTaken float64
	for _, c := range cells {
		base, prof, err := measureCell(serial, c)
		if err != nil {
			return err
		}
		if err := checkCell(fp, c, base, prof); err != nil {
			rep.fail("serial pass: %v", err)
		}
		memAccesses += float64(base.TotalMemAccesses())
		samplesTaken += prof.Totals.Samples
	}
	serial.end()

	bench := rec.benchSpans()
	prog, err := rec.programSpans()
	if err != nil {
		return err
	}
	// The sweep's cells run on sched's workers under a background
	// context, so they are root spans: attribute them to the traced
	// sweep whose interval holds them.
	ops := opsOf(bench, "op")
	for i := range prog {
		for id, sw := range ops {
			if prog[i].Start >= sw.Start && prog[i].End <= sw.End {
				prog[i].Op = id
			}
		}
	}
	var cellSpans []span
	var cellMs []float64
	cellMax, busy := map[int64]float64{}, map[int64]float64{}
	for _, s := range prog {
		if s.Name != "sched.cell" || s.Op == 0 {
			continue
		}
		cellSpans = append(cellSpans, s)
		cellMs = append(cellMs, s.dur())
		cellMax[s.Op] = max(cellMax[s.Op], s.dur())
		busy[s.Op] += s.dur()
	}
	for id := range busy {
		busy[id] /= workers * ops[id].dur()
	}
	L := rep.layers
	L["sched.cell_ms_p50"] = median(cellMs)
	L["sched.cell_ms_max"] = medianOf(cellMax)
	L["sched.busy_ratio"] = medianOf(busy)
	L["proc.base_ms"] = perOp(bench, "proc.run")[serial.op]
	L["core.monitored_ms"] = perOp(bench, "core.analyze")[serial.op]
	L["proc.mem_accesses"] = memAccesses
	L["pmu.samples"] = samplesTaken
	L["trace.coverage"] = coverage(ops, cellSpans)
	return writeTrace(o.traceOut, bench, prog)
}
