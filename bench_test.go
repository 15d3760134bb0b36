// Package repro's root benchmarks regenerate every table and figure of
// the paper (one benchmark per artifact, named after the DESIGN.md
// experiment index) and report the headline measured values as custom
// benchmark metrics so `go test -bench=.` doubles as the reproduction
// harness:
//
//	BenchmarkTable2Overhead          ibs_lulesh_pct  soft_ibs_lulesh_pct ...
//	BenchmarkSpeedupLULESH           amd_block_pct   p7_interleave_pct ...
//
// Micro-benchmarks for the substrate layers (cache, vm, engine, CCT)
// live at the bottom.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/profio"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// T1: Table 1 — the configuration matrix is static; benchmark its
// generation and assert coverage.
func BenchmarkTable1Mechanisms(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	if len(rows) != 6 {
		b.Fatalf("table 1 rows = %d", len(rows))
	}
	b.ReportMetric(float64(len(rows)), "mechanisms")
}

// T2: Table 2 — monitoring overhead per mechanism per benchmark.
func BenchmarkTable2Overhead(b *testing.B) {
	var tbl *experiments.Table2
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiments.RunTable2(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*tbl.Overhead("IBS", "LULESH"), "ibs_lulesh_pct")
	b.ReportMetric(100*tbl.Overhead("PEBS", "LULESH"), "pebs_lulesh_pct")
	b.ReportMetric(100*tbl.Overhead("Soft-IBS", "LULESH"), "softibs_lulesh_pct")
	b.ReportMetric(100*tbl.Overhead("MRK", "AMG2006"), "mrk_amg_pct")
	b.ReportMetric(100*tbl.Overhead("PEBS-LL", "Blackscholes"), "pebsll_bs_pct")
}

// F1: Figure 1 — the three data distributions.
func BenchmarkFigure1Distributions(b *testing.B) {
	var res *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Rows[1].Speedup, "interleave_pct")
	b.ReportMetric(100*res.Rows[2].Speedup, "colocated_pct")
	b.ReportMetric(res.Rows[0].Imbalance, "centralised_imbalance")
}

// F2: Figure 2 — first-touch trapping.
func BenchmarkFigure2FirstTouch(b *testing.B) {
	var res *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Events)), "trapped_pages")
}

// F3: Figure 3 — the LULESH case study (paper lpi 0.466, M_r ~ 7x M_l).
func BenchmarkFigure3LULESH(b *testing.B) {
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure3(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LPI, "lpi")
	b.ReportMetric(res.ZMrOverMl, "z_mr_over_ml")
	b.ReportMetric(100*res.NodelistRemoteShare, "nodelist_rlat_pct")
	b.ReportMetric(boolMetric(res.ZStaircase), "z_staircase")
}

// F4-F7: AMG2006 whole-program vs region-scoped patterns (paper region
// latency shares 74.2% and 73.6%).
func BenchmarkFigures47AMG(b *testing.B) {
	var res *experiments.Figures45Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigures47(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LPI, "lpi")
	b.ReportMetric(100*res.Data.RegionLatShare, "data_region_share_pct")
	b.ReportMetric(boolMetric(res.Data.RegionStaircase && !res.Data.WholeStaircase), "data_contrast")
	b.ReportMetric(boolMetric(res.J.RegionStaircase && !res.J.WholeStaircase), "j_contrast")
}

// F8-F9: Blackscholes layouts (paper lpi 0.035, below threshold).
func BenchmarkFigures89Blackscholes(b *testing.B) {
	var res *experiments.Figures89Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigures89(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LPI, "lpi_exact")
	b.ReportMetric(boolMetric(!res.Significant), "below_threshold")
	b.ReportMetric(res.SoAOverlap, "soa_overlap")
	b.ReportMetric(boolMetric(res.AoSStaircase), "aos_disjoint")
}

// F10: UMT2013 under MRK (paper: 86% of L3 misses remote).
func BenchmarkFigure10UMT(b *testing.B) {
	var res *experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure10(6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.RemoteMissFraction, "remote_miss_pct")
	b.ReportMetric(boolMetric(res.Staggered), "staggered")
}

// S1: LULESH speedups (paper: AMD +25% block / +13% interleave;
// POWER7 +7.5% block / -16.4% interleave).
func BenchmarkSpeedupLULESH(b *testing.B) {
	var amd, p7 *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		amd, p7, err = experiments.RunSpeedupLULESH(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*amd.Speedup(workloads.BlockWise), "amd_block_pct")
	b.ReportMetric(100*amd.Speedup(workloads.Interleave), "amd_interleave_pct")
	b.ReportMetric(100*p7.Speedup(workloads.BlockWise), "p7_block_pct")
	b.ReportMetric(100*p7.Speedup(workloads.Interleave), "p7_interleave_pct")
}

// S2: AMG2006 solver reductions (paper: 51% guided vs 36% interleave).
func BenchmarkSpeedupAMG(b *testing.B) {
	var res *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSpeedupAMG(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Reduction(workloads.Guided), "guided_reduction_pct")
	b.ReportMetric(100*res.Reduction(workloads.Interleave), "interleave_reduction_pct")
}

// S3: Blackscholes (paper: < 0.1% — the negative control).
func BenchmarkSpeedupBlackscholes(b *testing.B) {
	var res *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSpeedupBlackscholes(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Speedup(workloads.ParallelInit), "fix_pct")
}

// S4: UMT2013 (paper: +7%).
func BenchmarkSpeedupUMT(b *testing.B) {
	var res *experiments.SpeedupResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSpeedupUMT(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Speedup(workloads.ParallelInit), "fix_pct")
}

// A1-A3: design-choice ablations.

func BenchmarkAblationPeriod(b *testing.B) {
	var res *experiments.AblationPeriodResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationPeriod()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].Ratio, "dense_ratio")
	b.ReportMetric(res.Rows[len(res.Rows)-1].Ratio, "sparse_ratio")
}

func BenchmarkAblationBins(b *testing.B) {
	var res *experiments.AblationBinsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationBins()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Rows[1].HotBinShare, "five_bin_hot_share_pct")
	b.ReportMetric(100*res.Rows[1].HotBinExtent, "five_bin_extent_pct")
}

func BenchmarkAblationContention(b *testing.B) {
	var res *experiments.AblationContentionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationContention()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Rows[0].InterleaveSpeedup, "interleave_nocontention_pct")
	b.ReportMetric(100*res.Rows[2].InterleaveSpeedup, "interleave_full_pct")
}

func BenchmarkAblationDynamic(b *testing.B) {
	var res *experiments.AblationDynamicResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationDynamic()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Speedup("static", "block-wise"), "static_block_pct")
	b.ReportMetric(100*res.Speedup("dynamic", "interleaved"), "dynamic_interleave_pct")
}

// --- scheduler benchmarks ---

// benchSweepPair times the same sweep at 1 worker and at the session's
// default worker count, and reports the wall-clock ratio as speedup_x.
// On a single-CPU runner the ratio hovers around 1; on the 4-core CI
// machine the Table 2 sweep's 30 independent cells should clear 2x.
func benchSweepPair(b *testing.B, run func() error) {
	b.Helper()
	prev := sched.SetWorkers(1)
	defer sched.SetWorkers(prev)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	serial := time.Since(start)

	sched.SetWorkers(0) // back to the default (env override or GOMAXPROCS)
	workers := sched.Workers()
	start = time.Now()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	parallel := time.Since(start)

	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup_x")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkParallelSweep is the acceptance benchmark for the scheduler:
// the full Table 2 sweep (6 mechanisms x 3 benchmarks, each cell one
// monitored run) serial vs parallel.
func BenchmarkParallelSweep(b *testing.B) {
	benchSweepPair(b, func() error {
		_, err := experiments.RunTable2(2)
		return err
	})
}

// BenchmarkParallelAblations covers a second sweep shape: the 9-cell
// contention ablation (3 fabric capacities x 3 placement strategies).
func BenchmarkParallelAblations(b *testing.B) {
	benchSweepPair(b, func() error {
		_, err := experiments.RunAblationContention()
		return err
	})
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- substrate micro-benchmarks ---

func benchMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "bench", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: 1 << 30,
	})
}

// BenchmarkCacheAccess measures the hierarchy's per-access cost. It is
// one of CI's bench-gate rows.
func BenchmarkCacheAccess(b *testing.B) {
	h := cache.NewHierarchy(benchMachine(), cache.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, uint64(i)*64, 0)
	}
}

// BenchmarkVMTouch measures page resolution with first-touch homing.
func BenchmarkVMTouch(b *testing.B) {
	as := vm.NewAddressSpace(benchMachine())
	r := as.Alloc(1<<30, vm.FirstTouch{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Touch(r.Base+uint64(i%(1<<20))*64, false, 0)
	}
}

// BenchmarkEngineAccess measures the full simulated-access pipeline
// (vm + cache + latency + accounting) without monitoring.
func BenchmarkEngineAccess(b *testing.B) {
	prog := isa.NewProgram("bench")
	fn := prog.AddFunc("f", "f.c", 1)
	site := prog.AddSite(fn, 2, isa.KindLoad)
	e := proc.NewEngine(proc.Config{Machine: benchMachine(), Program: prog})
	c := e.Ctx(0)
	e.BeginRegion("bench", e.Threads())
	r := c.Alloc(site, "a", 1<<26, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(site, r.Base+uint64(i%(1<<18))*64)
	}
}

// BenchmarkProfiledAccess measures the same pipeline with the full
// profiler and IBS monitoring attached — the simulator-side analog of
// Table 2's monitoring overhead. It is one of CI's bench-gate rows.
func BenchmarkProfiledAccess(b *testing.B) {
	app := &benchApp{n: b.N}
	cfg := core.Config{Machine: benchMachine(), Mechanism: "IBS", Period: 1024}
	b.ResetTimer()
	if _, err := core.Analyze(cfg, app); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAnalyzePaperSpecs runs the 24 app x mechanism baseline
// specs, with numad's defaults, through server.Spec.Build and
// core.AnalyzeCtx; one op is all 24 monitored runs. It times the
// simulator and monitor path without profio, views or the daemon, a
// quick local A/B for per-access work beside perfbench's 25-second
// profile runs. samples/op is a work fingerprint: it must not move when
// only host cost changes.
func BenchmarkAnalyzePaperSpecs(b *testing.B) {
	var specs []server.Spec
	for _, mech := range pmu.Names() {
		for _, wl := range []string{"lulesh", "amg2006", "blackscholes", "umt2013"} {
			specs = append(specs, server.Spec{Workload: wl, Mechanism: mech})
		}
	}
	ctx := context.Background()
	var samples float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			cfg, app, err := s.Build()
			if err != nil {
				b.Fatal(err)
			}
			prof, err := core.AnalyzeCtx(ctx, cfg, app)
			if err != nil {
				b.Fatal(err)
			}
			samples += prof.Totals.Samples
		}
	}
	b.ReportMetric(samples/float64(b.N), "samples/op")
}

// paperSpecProfiles analyzes the 24 app x mechanism baseline specs
// once per test binary and returns the profiles with their saved bytes.
var paperSpecProfiles = sync.OnceValues(func() ([]*core.Profile, [][]byte) {
	var profs []*core.Profile
	var files [][]byte
	for _, mech := range pmu.Names() {
		for _, wl := range []string{"lulesh", "amg2006", "blackscholes", "umt2013"} {
			cfg, app, err := server.Spec{Workload: wl, Mechanism: mech}.Build()
			if err != nil {
				panic(err)
			}
			prof, err := core.AnalyzeCtx(context.Background(), cfg, app)
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := profio.Save(&buf, prof); err != nil {
				panic(err)
			}
			profs = append(profs, prof)
			files = append(files, buf.Bytes())
		}
	}
	return profs, files
})

// BenchmarkProfioLoad strictly loads the 24 baseline-spec measurement
// files from disk with profio.LoadFile, numad's reload path; one op is
// all 24 loads, and MB/s counts file bytes.
func BenchmarkProfioLoad(b *testing.B) {
	_, files := paperSpecProfiles()
	dir := b.TempDir()
	var paths []string
	var n int64
	for i, f := range files {
		path := filepath.Join(dir, fmt.Sprintf("%02d.numaprof", i))
		if err := os.WriteFile(path, f, 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
		n += int64(len(f))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			if _, err := profio.LoadFile(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProfioSave encodes the 24 baseline-spec profiles; one op is
// all 24 saves, and MB/s counts file bytes. It is one of CI's
// bench-gate rows.
func BenchmarkProfioSave(b *testing.B) {
	profs, files := paperSpecProfiles()
	var n int64
	for _, f := range files {
		n += int64(len(f))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profs {
			if err := profio.Save(io.Discard, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServiceHit measures numad's cache-hit path in process: a
// daemon behind a loopback HTTP server holds the 24 app x mechanism
// baseline profiles, and one op submits one of them, follows its event
// stream to done and fetches a view through server.Client, the profile
// bytes and the text report in turn, as perfbench's service clients do.
// Set-up computes every spec once. With -benchmem, B/op is what a
// served hit allocates, client and daemon together.
func BenchmarkServiceHit(b *testing.B) {
	defer telemetry.SetLogOutput(io.Discard)()
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Options{Store: st, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
		ts.Close()
	}()
	var specs []server.Spec
	for _, mech := range pmu.Names() {
		for _, wl := range []string{"lulesh", "amg2006", "blackscholes", "umt2013"} {
			specs = append(specs, server.Spec{Workload: wl, Mechanism: mech})
		}
	}
	c := server.NewClient(ts.URL)
	ctx := context.Background()
	var served int64
	op := func(i int) error {
		js, err := c.Submit(ctx, specs[i%len(specs)])
		if err != nil {
			return err
		}
		if js, err = c.Follow(ctx, js.ID, nil); err != nil {
			return err
		}
		if js.State != server.StateDone {
			return fmt.Errorf("job %s: %s (%s)", js.ID, js.State, js.Error)
		}
		var body []byte
		if i/len(specs)%2 == 0 {
			body, err = c.ProfileBytes(ctx, js.ID)
		} else {
			var text string
			text, err = c.Text(ctx, js.ID)
			body = []byte(text)
		}
		served += int64(len(body))
		return err
	}
	for i := range specs {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	served = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(served)/float64(b.N), "body-B/op")
}

type benchApp struct {
	n    int
	prog *isa.Program
	fn   isa.FuncID
	site isa.SiteID
}

func (a *benchApp) Name() string { return "bench" }

func (a *benchApp) Binary() *isa.Program {
	if a.prog == nil {
		a.prog = isa.NewProgram("bench")
		a.fn = a.prog.AddFunc("f", "f.c", 1)
		a.site = a.prog.AddSite(a.fn, 2, isa.KindLoad)
	}
	return a.prog
}

func (a *benchApp) Run(e *proc.Engine) {
	c := e.Ctx(0)
	e.BeginRegion("bench", e.Threads())
	r := c.Alloc(a.site, "a", 1<<26, nil)
	for i := 0; i < a.n; i++ {
		c.Load(a.site, r.Base+uint64(i%(1<<18))*64)
	}
	e.EndRegion()
}

// BenchmarkCCTMergeShards measures the hpcprof merge in the shape
// core.finish runs it: 8 per-thread shards folded by cct.MergeShards
// at core's merge width of 4 workers. The shards overlap on every path
// (hot frames appear in every shard), so each node takes the columnar
// metric add and the [min,max] range reduction; each leaf keeps one
// range owner, the common shape (a site node is usually touched by one
// thread). It is one of CI's bench-gate rows.
func BenchmarkCCTMergeShards(b *testing.B) {
	shards := make([]*cct.Tree, 8)
	for w := range shards {
		src := cct.New()
		for f := 0; f < 32; f++ {
			for s := 0; s < 16; s++ {
				n := src.Root().InsertPath([]cct.Key{
					cct.FrameKey(isa.FuncID(f), 0),
					cct.SiteKey(isa.SiteID(s)),
				})
				n.AddMetric(metrics.Samples, 1)
				n.ExtendRange(f%8, uint64(s+w)*64)
			}
		}
		shards[w] = src
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cct.MergeShards(cct.New(), shards, 4)
	}
}
