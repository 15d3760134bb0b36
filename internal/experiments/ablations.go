package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/omp"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The ablations probe the design choices behind the paper's tool:
//
//   - A1 sampling period: how fast the Equation 2 estimator converges
//     to the exact Equation 1 value as the sampling rate rises, and
//     what it costs (Section 4.2's "approximate value because l^s and
//     I^s are representative subsets");
//   - A2 variable binning: why one [min,max] per variable is useless
//     and five bins localise hot sub-ranges (Section 5.2's "a hot
//     variable segment may account for 90% of a thread's accesses");
//   - A3 contention model: what each optimisation actually buys —
//     interleaving's value collapses when controller contention is
//     switched off, block-wise co-location keeps most of its value
//     (the Figure 1 / Section 2 decomposition of NUMA cost into
//     latency and bandwidth).

// A1 — sampling-period sensitivity.

// PeriodRow is one sampling rate's outcome.
type PeriodRow struct {
	Period   uint64
	Samples  float64
	LPI      float64 // Equation 2 estimate
	LPIExact float64 // Equation 1
	// Ratio is estimate/exact (1.0 = perfect).
	Ratio float64
	// Overhead is the monitoring overhead fraction at this rate.
	Overhead float64
}

// AblationPeriodResult sweeps IBS sampling periods on LULESH.
type AblationPeriodResult struct {
	Rows []PeriodRow
}

// RunAblationPeriod sweeps the IBS period across four octaves, one
// monitored run per period. Each run reads its unmonitored runtime off
// its own base clock (core.MeasureOverhead); the four must agree, since
// the period changes only what monitoring costs.
func RunAblationPeriod() (*AblationPeriodResult, error) {
	defer timedExperiment("ablation_period")()
	m := topology.MagnyCours48()
	baseCfg := BaseConfig(m, 0, proc.Compact)
	baseCfg.Mechanism = "IBS"
	periods := []uint64{256, 1024, 4096, 16384}

	type cell struct {
		ov   core.Overhead
		prof *core.Profile
	}
	cells, err := sched.Map(len(periods), func(i int) (cell, error) {
		cfg := baseCfg
		cfg.Period = periods[i]
		ov, prof, err := core.MeasureOverhead(cfg, workloads.NewLULESH(workloads.Params{Iters: 3}))
		return cell{ov, prof}, err
	})
	if err != nil {
		return nil, err
	}

	res := &AblationPeriodResult{}
	for k, period := range periods {
		ov, prof := cells[k].ov, cells[k].prof
		if ov.Base != cells[0].ov.Base {
			return nil, fmt.Errorf("ablation A1: period %d's base clock %d differs from period %d's %d",
				period, ov.Base, periods[0], cells[0].ov.Base)
		}
		row := PeriodRow{
			Period:   period,
			Samples:  prof.Totals.Samples,
			LPI:      prof.Totals.LPI,
			LPIExact: prof.Totals.LPIExact,
			Overhead: ov.Percent(),
		}
		if row.LPIExact > 0 {
			row.Ratio = row.LPI / row.LPIExact
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationPeriodResult) Render() string {
	var b strings.Builder
	b.WriteString("A1. Sampling-period sensitivity (IBS on LULESH): estimate vs exact lpi.\n")
	fmt.Fprintf(&b, "%10s %10s %10s %10s %8s %10s\n",
		"Period", "Samples", "lpi (Eq2)", "lpi (Eq1)", "ratio", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %10.0f %10.3f %10.3f %8.2f %10s\n",
			row.Period, row.Samples, row.LPI, row.LPIExact, row.Ratio, pct(row.Overhead))
	}
	b.WriteString("(denser sampling buys estimator accuracy with overhead — Section 4.2's trade)\n")
	return b.String()
}

// A2 — variable binning resolution.

// hotspotApp concentrates 90% of its accesses in the top 20% of one
// large array — the paper's Section 5.2 motivating scenario.
type hotspotApp struct {
	prog           *isa.Program
	fnMain, fnWork isa.FuncID
	sAlloc, sInit  isa.SiteID
	sHot, sCold    isa.SiteID
	elems          int
}

func newHotspotApp(elems int) *hotspotApp {
	a := &hotspotApp{elems: elems}
	p := isa.NewProgram("hotspot")
	a.fnMain = p.AddFunc("main", "hot.c", 1)
	a.fnWork = p.AddFunc("work._omp", "hot.c", 20)
	a.sAlloc = p.AddSite(a.fnMain, 3, isa.KindAlloc)
	a.sInit = p.AddSite(a.fnMain, 5, isa.KindStore)
	a.sHot = p.AddSite(a.fnWork, 22, isa.KindLoad)
	a.sCold = p.AddSite(a.fnWork, 24, isa.KindLoad)
	a.prog = p
	return a
}

func (a *hotspotApp) Name() string         { return "hotspot" }
func (a *hotspotApp) Binary() *isa.Program { return a.prog }

func (a *hotspotApp) Run(e *proc.Engine) {
	const stride = 64
	n := a.elems
	var data vm.Region
	omp.Serial(e, a.fnMain, "main", func(c *proc.Ctx) {
		data = c.Alloc(a.sAlloc, "data", uint64(n)*stride, nil)
		for i := 0; i < n; i++ {
			c.Store(a.sInit, data.Base+uint64(i)*stride)
		}
	})
	hotBase := n * 4 / 5 // the top 20% of the extent
	omp.ParallelFor(e, a.fnWork, "work", n, omp.Static{}, func(c *proc.Ctx, i int) {
		// Nine hot accesses for every cold one: 90% of traffic in 20%
		// of the address range.
		for k := 0; k < 9; k++ {
			c.Load(a.sHot, data.Base+uint64(hotBase+(i*9+k)%(n/5))*stride)
		}
		c.Load(a.sCold, data.Base+uint64(i)*stride)
		c.Compute(8)
	})
}

// BinsRow is one bin-count's outcome.
type BinsRow struct {
	Bins int
	// HotBinShare is the fraction of the variable's samples landing
	// in its hottest bin.
	HotBinShare float64
	// HotBinExtent is the hottest bin's share of the address range —
	// the resolution the analyst gets.
	HotBinExtent float64
}

// AblationBinsResult sweeps the bin count on the hotspot program.
type AblationBinsResult struct {
	Rows []BinsRow
}

// RunAblationBins compares bin counts on a 90/20 hotspot, one cell
// per bin count.
func RunAblationBins() (*AblationBinsResult, error) {
	defer timedExperiment("ablation_bins")()
	m := topology.MagnyCours48()
	binCounts := []int{1, 5, 20}
	rows, err := sched.Map(len(binCounts), func(i int) (BinsRow, error) {
		bins := binCounts[i]
		cfg := BaseConfig(m, 0, proc.Compact)
		cfg.Mechanism = "Soft-IBS"
		cfg.Period = 16
		cfg.Bins = bins
		prof, err := core.Analyze(cfg, newHotspotApp(12288))
		if err != nil {
			return BinsRow{}, err
		}
		vp, ok := prof.VarByName("data")
		if !ok {
			return BinsRow{}, fmt.Errorf("ablation bins: data not profiled")
		}
		row := BinsRow{Bins: bins}
		var best core.BinStats
		var total float64
		for _, b := range vp.Bins {
			total += b.Samples
			if b.Samples > best.Samples {
				best = b
			}
		}
		if total > 0 {
			row.HotBinShare = best.Samples / total
		}
		if vp.Var.Size() > 0 {
			row.HotBinExtent = float64(best.Hi-best.Lo) / float64(vp.Var.Size())
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationBinsResult{Rows: rows}, nil
}

// Render prints the sweep.
func (r *AblationBinsResult) Render() string {
	var b strings.Builder
	b.WriteString("A2. Variable binning on a 90%-of-accesses-in-20%-of-range hotspot.\n")
	fmt.Fprintf(&b, "%6s %14s %16s\n", "Bins", "hot-bin share", "hot-bin extent")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %13.0f%% %15.0f%%\n",
			row.Bins, 100*row.HotBinShare, 100*row.HotBinExtent)
	}
	b.WriteString("(1 bin: no resolution; 5 bins localise the hot segment — Section 5.2)\n")
	return b.String()
}

// A3 — contention-model ablation.

// ContentionRow is one model setting's outcome.
type ContentionRow struct {
	// Cap is the controller contention cap (1.0 = contention off).
	Cap float64
	// BlockSpeedup / InterleaveSpeedup are LULESH fixes vs baseline.
	BlockSpeedup      float64
	InterleaveSpeedup float64
}

// AblationContentionResult compares LULESH's fixes with the memory
// controller contention model on and off.
type AblationContentionResult struct {
	Rows []ContentionRow
}

// RunAblationContention measures the fixes under contention caps 1.0
// (off), 2.0 and 5.0 (the calibrated default). The full cap × strategy
// cross (nine runs) fans out as one flat sweep; speedups are computed
// once every time is in.
func RunAblationContention() (*AblationContentionResult, error) {
	defer timedExperiment("ablation_contention")()
	m := topology.MagnyCours48()
	caps := []float64{1.0, 2.0, 5.0}
	strategies := []workloads.Strategy{workloads.Baseline, workloads.BlockWise, workloads.Interleave}
	times, err := sched.Map(len(caps)*len(strategies), func(i int) (units.Cycles, error) {
		params := mem.DefaultLatencyParams()
		params.MaxContentionFactor = caps[i/len(strategies)]
		cfg := BaseConfig(m, 0, proc.Compact)
		cfg.MemParams = params
		s := strategies[i%len(strategies)]
		e, err := core.Run(cfg, workloads.NewLULESH(workloads.Params{Strategy: s, Iters: 3}))
		if err != nil {
			return 0, err
		}
		return e.TimeSince(workloads.ROIMark), nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationContentionResult{}
	for k, cap := range caps {
		base, block, inter := times[k*3], times[k*3+1], times[k*3+2]
		res.Rows = append(res.Rows, ContentionRow{
			Cap:               cap,
			BlockSpeedup:      float64(base)/float64(block) - 1,
			InterleaveSpeedup: float64(base)/float64(inter) - 1,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationContentionResult) Render() string {
	var b strings.Builder
	b.WriteString("A3. Contention-model ablation (LULESH, Magny-Cours).\n")
	fmt.Fprintf(&b, "%16s %12s %12s\n", "contention cap", "block-wise", "interleave")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%15.1fx %12s %12s\n",
			row.Cap, pct(row.BlockSpeedup), pct(row.InterleaveSpeedup))
	}
	b.WriteString("(without contention, interleaving has nothing to relieve; block-wise\n")
	b.WriteString(" co-location still removes the remote-latency term — Section 2's split)\n")
	return b.String()
}

// A4 — scheduling-policy ablation: when the chunk-to-thread binding
// churns (OpenMP dynamic scheduling), block-wise co-location loses its
// meaning and interleaving becomes the right fix — Section 2's "in
// cases where there is not a fixed binding between threads and data
// ... using memory interleaving ... may be beneficial".

// dynApp is a microbenchmark whose loop runs under either a static or
// a dynamic schedule, over one master-initialised array.
type dynApp struct {
	prog   *isa.Program
	fnMain isa.FuncID
	fnWork isa.FuncID
	sAlloc isa.SiteID
	sInit  isa.SiteID
	sLoad  isa.SiteID

	elems   int
	iters   int
	policy  vm.Policy
	dynamic bool
}

func newDynApp(elems, iters int, policy vm.Policy, dynamic bool) *dynApp {
	a := &dynApp{elems: elems, iters: iters, policy: policy, dynamic: dynamic}
	p := isa.NewProgram("dyn-binding")
	a.fnMain = p.AddFunc("main", "dyn.c", 1)
	a.fnWork = p.AddFunc("process._omp", "dyn.c", 20)
	a.sAlloc = p.AddSite(a.fnMain, 3, isa.KindAlloc)
	a.sInit = p.AddSite(a.fnMain, 5, isa.KindStore)
	a.sLoad = p.AddSite(a.fnWork, 22, isa.KindLoad)
	a.prog = p
	return a
}

func (a *dynApp) Name() string         { return "dyn-binding" }
func (a *dynApp) Binary() *isa.Program { return a.prog }

func (a *dynApp) Run(e *proc.Engine) {
	const stride = 64
	var data vm.Region
	omp.Serial(e, a.fnMain, "main", func(c *proc.Ctx) {
		data = c.Alloc(a.sAlloc, "data", uint64(a.elems)*stride, a.policy)
		for i := 0; i < a.elems; i++ {
			c.Store(a.sInit, data.Base+uint64(i)*stride)
		}
	})
	e.Mark(workloads.ROIMark)
	chunk := a.elems / (8 * e.NumThreads())
	for it := 0; it < a.iters; it++ {
		var sched omp.Schedule = omp.Static{}
		if a.dynamic {
			// A fresh seed per timestep: the binding churns.
			sched = omp.Dynamic{Chunk: chunk, Seed: uint64(it) + 1}
		}
		omp.ParallelFor(e, a.fnWork, "process", a.elems, sched, func(c *proc.Ctx, i int) {
			c.Load(a.sLoad, data.Base+uint64(i)*stride)
			c.Compute(20)
		})
	}
}

// DynamicRow is one (schedule, placement) cell.
type DynamicRow struct {
	Schedule  string
	Placement string
	Time      units.Cycles
	// Speedup vs that schedule's baseline placement.
	Speedup float64
}

// AblationDynamicResult crosses schedules with placements.
type AblationDynamicResult struct {
	Rows []DynamicRow
}

// Speedup returns the measured speedup for a (schedule, placement).
func (r *AblationDynamicResult) Speedup(schedule, placement string) float64 {
	for _, row := range r.Rows {
		if row.Schedule == schedule && row.Placement == placement {
			return row.Speedup
		}
	}
	return 0
}

// RunAblationDynamic measures baseline / block-wise / interleaved
// placement under static and dynamic schedules.
func RunAblationDynamic() (*AblationDynamicResult, error) {
	defer timedExperiment("ablation_dynamic")()
	m := topology.MagnyCours48()
	doms := make([]topology.DomainID, m.NumDomains())
	for i := range doms {
		doms[i] = topology.DomainID(i)
	}
	placements := []struct {
		name   string
		policy vm.Policy
	}{
		{"baseline", nil},
		{"block-wise", vm.Blocked{Domains: doms}},
		{"interleaved", vm.Interleaved{}},
	}
	// The schedule × placement cross is six independent cells; each
	// schedule's baseline time anchors its speedups once all six are in.
	schedules := []bool{false, true}
	times, err := sched.Map(len(schedules)*len(placements), func(i int) (units.Cycles, error) {
		dynamic := schedules[i/len(placements)]
		pl := placements[i%len(placements)]
		cfg := BaseConfig(m, 0, proc.Compact)
		e, err := core.Run(cfg, newDynApp(48*512, 6, pl.policy, dynamic))
		if err != nil {
			return 0, err
		}
		return e.TimeSince(workloads.ROIMark), nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationDynamicResult{}
	for k, dynamic := range schedules {
		schedName := "static"
		if dynamic {
			schedName = "dynamic"
		}
		base := times[k*len(placements)] // placements[0] is the baseline
		for j, pl := range placements {
			t := times[k*len(placements)+j]
			res.Rows = append(res.Rows, DynamicRow{
				Schedule:  schedName,
				Placement: pl.name,
				Time:      t,
				Speedup:   float64(base)/float64(t) - 1,
			})
		}
	}
	return res, nil
}

// Render prints the cross.
func (r *AblationDynamicResult) Render() string {
	var b strings.Builder
	b.WriteString("A4. Placement vs schedule: fixed binding (static) against churning binding (dynamic).\n")
	fmt.Fprintf(&b, "%10s %14s %12s %9s\n", "schedule", "placement", "time", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10s %14s %12d %9s\n",
			row.Schedule, row.Placement, uint64(row.Time), pct(row.Speedup))
	}
	b.WriteString("(static: block-wise wins by co-location; dynamic: no fixed binding, so\n")
	b.WriteString(" co-location is impossible — block-wise degenerates into a balanced-but-remote\n")
	b.WriteString(" distribution and ties with interleaving, the simpler fix — Section 2)\n")
	return b.String()
}
