// Bench is the committed performance contract of the per-access hot
// path. RunBench produces a schema-stable report (BENCH_*.json in the
// repo root) with two kinds of fields:
//
//   - timing fields (ns_per_op, bytes_per_op, allocs_per_op, iters)
//     that depend on the host and are compared benchstat-style by the
//     CI bench gate, and
//   - work fields (work_ops, work) that fingerprint the simulated
//     outcome of a fixed-size run and must be identical across runs of
//     the same build — the bench determinism contract.
//
// The micro-suite covers the four layers of the per-access pipeline:
// full monitored dispatch (proc → cache → mem → pmu → cct), the raw
// set-associative cache probe, the sharded columnar CCT merge, and the
// profio profile encode. Dispatch runs batched (LoadBatch slices of
// benchDispatchBatch accesses); the simulated outcome is bit-identical
// at any batch size, which TestBenchWorkStableAcrossBatchSizes pins.
// No workload drives the engine that way: every workload, omp loop,
// example and command issues its accesses one at a time through
// Ctx.Load and Ctx.Store, so this row times a path only benchmarks use.
// Whether to delete the batch path is an open ROADMAP item.
package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/profio"
	"repro/internal/topology"
)

// Micro-suite benchmark names, in report order.
const (
	BenchAccessDispatch = "access_dispatch"
	BenchCacheProbe     = "cache_probe"
	BenchCCTMerge       = "cct_merge"
	BenchProfioEncode   = "profio_encode"
)

// BenchSchema versions the report shape; bump on field changes so the
// CI gate refuses to compare incompatible baselines.
const BenchSchema = 1

// BenchResult is one micro-benchmark measurement.
type BenchResult struct {
	Name string `json:"name"`

	// Host-dependent timing fields.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iters       int64   `json:"iters"`

	// Deterministic work fingerprint: the FNV-1a hash of the simulated
	// outcome of a WorkOps-sized run. Identical across runs of the
	// same build regardless of host speed.
	WorkOps int    `json:"work_ops"`
	Work    uint64 `json:"work"`
}

// BenchTable2Row is one Table 2 sweep cell in the report. Every field
// is simulated (cycle counts, not wall time), so rows are fully
// deterministic.
type BenchTable2Row struct {
	Mechanism       string  `json:"mechanism"`
	Workload        string  `json:"workload"`
	Machine         string  `json:"machine"`
	BaseCycles      uint64  `json:"base_cycles"`
	MonitoredCycles uint64  `json:"monitored_cycles"`
	Overhead        float64 `json:"overhead"`
	PaperOverhead   float64 `json:"paper_overhead"`
	Err             string  `json:"err,omitempty"`
}

// BenchReport is the full -bench-json artifact.
type BenchReport struct {
	Schema int              `json:"schema"`
	Suite  []BenchResult    `json:"suite"`
	Table2 []BenchTable2Row `json:"table2,omitempty"`
}

// BenchOptions tunes RunBench.
type BenchOptions struct {
	// MinTime is the per-benchmark measurement budget (default 250ms).
	MinTime time.Duration
	// Rounds repeats each measurement, keeping the fastest round
	// (default 3). Taking the minimum discards scheduler and frequency
	// noise, which is what makes the CI gate comparable across runs.
	Rounds int
	// Table2Iters scales the Table 2 sweep's workloads; 0 skips the
	// sweep entirely (the CI gate only needs the micro-suite).
	Table2Iters int
	// RunTable2 includes the Table 2 sweep.
	RunTable2 bool
}

// benchSpec couples a deterministic work pass with a timed op loop.
type benchSpec struct {
	name string
	// workOps is the fixed op count the work fingerprint runs at.
	workOps int
	// setup prepares shared state; returns the op loop and the
	// fingerprint function (called once, at workOps scale, before any
	// timing).
	setup func() (op func(n int), work func(ops int) uint64)
}

func benchMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "bench", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: 1 << 30,
	})
}

// benchDispatchBatch is the slice size the dispatch benchmark hands to
// LoadBatch. Batching only amortizes dispatch overhead; the simulated
// outcome is identical at batch 1.
const benchDispatchBatch = 64

// benchDispatchApp drives n loads through one site — the minimal app
// exercising the full monitored dispatch path. batch selects the
// delivery granularity: ≤1 issues per-access Loads, >1 issues
// LoadBatch slices of that size through a reused address buffer.
type benchDispatchApp struct {
	n     int
	batch int
	prog  *isa.Program
	site  isa.SiteID
}

func (a *benchDispatchApp) Name() string { return "bench" }

func (a *benchDispatchApp) Binary() *isa.Program {
	if a.prog == nil {
		a.prog = isa.NewProgram("bench")
		fn := a.prog.AddFunc("f", "f.c", 1)
		a.site = a.prog.AddSite(fn, 2, isa.KindLoad)
	}
	return a.prog
}

func (a *benchDispatchApp) Run(e *proc.Engine) {
	c := e.Ctx(0)
	e.BeginRegion("bench", e.Threads())
	r := c.Alloc(a.site, "a", 1<<26, nil)
	if a.batch <= 1 {
		for i := 0; i < a.n; i++ {
			c.Load(a.site, r.Base+uint64(i%(1<<18))*64)
		}
	} else {
		addrs := make([]uint64, 0, a.batch)
		for i := 0; i < a.n; {
			addrs = addrs[:0]
			for len(addrs) < a.batch && i < a.n {
				addrs = append(addrs, r.Base+uint64(i%(1<<18))*64)
				i++
			}
			c.LoadBatch(a.site, addrs)
		}
	}
	e.EndRegion()
}

func hashFields(vs ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%v|", v)
	}
	return h.Sum64()
}

// runDispatch profiles an n-access run at the given batch size and
// fingerprints its simulated outcome. The fingerprint is independent
// of batch — batched delivery is bit-identical to per-access delivery.
func runDispatch(n, batch int) uint64 {
	cfg := core.Config{Machine: benchMachine(), Mechanism: "IBS", Period: 1024}
	p, err := core.Analyze(cfg, &benchDispatchApp{n: n, batch: batch})
	if err != nil {
		panic(fmt.Sprintf("bench: dispatch run: %v", err))
	}
	return hashFields(p.Totals.Samples, p.Totals.Ml, p.Totals.Mr,
		p.Totals.MemAccesses, p.Totals.SimTime, p.Tree.Root().Size())
}

// benchProfile builds the profile the encode benchmark serializes.
func benchProfile(batch int) *core.Profile {
	cfg := core.Config{Machine: benchMachine(), Mechanism: "IBS", Period: 64}
	p, err := core.Analyze(cfg, &benchDispatchApp{n: 1 << 14, batch: batch})
	if err != nil {
		panic(fmt.Sprintf("bench: encode profile: %v", err))
	}
	return p
}

// benchMergeWorkers matches the worker count core.finish uses for its
// shard merge, so the benchmark times the production configuration.
const benchMergeWorkers = 4

// benchMergeShards builds one CCT shard per simulated worker, the
// shape core.finish hands to cct.MergeShards. Shards overlap on every
// path (hot frames appear in every shard), exercising the columnar
// metric add and the [min,max] range reduction on each node; leaves
// keep one range owner apiece, the overwhelmingly common shape (a site
// node is usually touched by one thread).
func benchMergeShards() []*cct.Tree {
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
	return shards
}

func benchSuite() []benchSpec {
	return []benchSpec{
		{
			name:    BenchAccessDispatch,
			workOps: 1 << 16,
			setup: func() (func(int), func(int) uint64) {
				op := func(n int) { runDispatch(n, benchDispatchBatch) }
				work := func(ops int) uint64 { return runDispatch(ops, benchDispatchBatch) }
				return op, work
			},
		},
		{
			name:    BenchCacheProbe,
			workOps: 1 << 16,
			setup: func() (func(int), func(int) uint64) {
				h := cache.NewHierarchy(benchMachine(), cache.DefaultConfig())
				op := func(n int) {
					for i := 0; i < n; i++ {
						h.Access(0, uint64(i)*64, 0)
					}
				}
				work := func(ops int) uint64 {
					fresh := cache.NewHierarchy(benchMachine(), cache.DefaultConfig())
					for i := 0; i < ops; i++ {
						fresh.Access(0, uint64(i)*64, 0)
					}
					counts := fresh.SourceCounts()
					vs := make([]any, 0, len(counts))
					for s := cache.SrcL1; s <= cache.SrcRemoteDRAM; s++ {
						vs = append(vs, counts[s])
					}
					return hashFields(vs...)
				}
				return op, work
			},
		},
		{
			name:    BenchCCTMerge,
			workOps: 64,
			setup: func() (func(int), func(int) uint64) {
				shards := benchMergeShards()
				op := func(n int) {
					for i := 0; i < n; i++ {
						dst := cct.New()
						cct.MergeShards(dst, shards, benchMergeWorkers)
					}
				}
				work := func(ops int) uint64 {
					dst := cct.New()
					for i := 0; i < ops; i++ {
						cct.MergeShards(dst, shards, benchMergeWorkers)
					}
					return hashFields(dst.Root().Size(),
						dst.Root().InclusiveMetric(metrics.Samples))
				}
				return op, work
			},
		},
		{
			name:    BenchProfioEncode,
			workOps: 4,
			setup: func() (func(int), func(int) uint64) {
				p := benchProfile(benchDispatchBatch)
				op := func(n int) {
					for i := 0; i < n; i++ {
						if err := profio.Save(io.Discard, p); err != nil {
							panic(fmt.Sprintf("bench: encode: %v", err))
						}
					}
				}
				work := func(ops int) uint64 {
					var buf bytes.Buffer
					for i := 0; i < ops; i++ {
						buf.Reset()
						if err := profio.Save(&buf, p); err != nil {
							panic(fmt.Sprintf("bench: encode: %v", err))
						}
					}
					h := fnv.New64a()
					h.Write(buf.Bytes())
					return hashFields(buf.Len(), h.Sum64())
				}
				return op, work
			},
		},
	}
}

// benchMeasure times op until the total run meets minTime, doubling the op
// count between attempts (the go test benchmark protocol, minus the
// flag machinery so it runs inside a plain binary).
func benchMeasure(minTime time.Duration, op func(n int)) (nsPerOp float64, bytesPerOp, allocsPerOp, iters int64) {
	if minTime <= 0 {
		minTime = 250 * time.Millisecond
	}
	op(1) // warm caches and lazy state outside the timed runs
	var ms0, ms1 runtime.MemStats
	for n := int64(1); ; n *= 2 {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		op(int(n))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if elapsed >= minTime || n >= 1<<32 {
			nsPerOp = float64(elapsed.Nanoseconds()) / float64(n)
			bytesPerOp = int64(ms1.TotalAlloc-ms0.TotalAlloc) / n
			allocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / n
			return nsPerOp, bytesPerOp, allocsPerOp, n
		}
	}
}

// RunBench runs the micro-suite (and optionally the Table 2 sweep) and
// assembles the report.
func RunBench(opts BenchOptions) (*BenchReport, error) {
	defer timedExperiment("bench")()
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	rep := &BenchReport{Schema: BenchSchema}
	for _, spec := range benchSuite() {
		op, work := spec.setup()
		res := BenchResult{Name: spec.name, WorkOps: spec.workOps}
		res.Work = work(spec.workOps)
		for r := 0; r < rounds; r++ {
			ns, bs, allocs, iters := benchMeasure(opts.MinTime, op)
			if r == 0 || ns < res.NsPerOp {
				res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iters = ns, bs, allocs, iters
			}
		}
		rep.Suite = append(rep.Suite, res)
	}
	if opts.RunTable2 {
		t2, err := RunTable2(opts.Table2Iters)
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 sweep: %w", err)
		}
		for _, c := range t2.Cells {
			rep.Table2 = append(rep.Table2, BenchTable2Row{
				Mechanism:       c.Mechanism,
				Workload:        c.Workload,
				Machine:         c.Machine,
				BaseCycles:      uint64(c.Base),
				MonitoredCycles: uint64(c.Monitored),
				Overhead:        c.Overhead,
				PaperOverhead:   c.PaperOverhead,
				Err:             c.Err,
			})
		}
	}
	return rep, nil
}

// BenchDelta is one benchstat-style comparison row.
type BenchDelta struct {
	Name         string
	OldNs, NewNs float64
	// Delta is (new-old)/old; positive means slower.
	Delta float64
	// OldAllocs/NewAllocs compare the allocation count per op.
	OldAllocs, NewAllocs int64
}

// BenchGateThreshold is the relative ns/op regression any benchmark in
// the suite may show against the committed baseline before the CI gate
// fails.
const BenchGateThreshold = 0.10

// CompareBench lines up two reports by benchmark name. Both sides must
// carry the same schema and benchmark set.
func CompareBench(baseline, current *BenchReport) ([]BenchDelta, error) {
	if baseline.Schema != current.Schema {
		return nil, fmt.Errorf("bench: schema mismatch: baseline %d vs current %d (refresh the committed baseline)",
			baseline.Schema, current.Schema)
	}
	old := make(map[string]BenchResult, len(baseline.Suite))
	for _, r := range baseline.Suite {
		old[r.Name] = r
	}
	var deltas []BenchDelta
	for _, r := range current.Suite {
		b, ok := old[r.Name]
		if !ok {
			return nil, fmt.Errorf("bench: benchmark %q missing from baseline (refresh the committed baseline)", r.Name)
		}
		d := BenchDelta{
			Name: r.Name, OldNs: b.NsPerOp, NewNs: r.NsPerOp,
			OldAllocs: b.AllocsPerOp, NewAllocs: r.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.Delta = (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, nil
}

// GateBench applies the CI policy to a comparison: no benchmark in the
// suite may regress more than threshold in ns/op. Rounds-of-minimum
// measurement (see BenchOptions.Rounds) keeps the rows stable enough
// for a hard gate on every layer, not just access dispatch. All
// regressions past the threshold are reported, not just the first.
func GateBench(deltas []BenchDelta, threshold float64) error {
	var bad []string
	for _, d := range deltas {
		if d.Delta > threshold {
			bad = append(bad, fmt.Sprintf("%s regressed %.1f%% (%.1f → %.1f ns/op)",
				d.Name, 100*d.Delta, d.OldNs, d.NewNs))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench gate: %s; threshold %.0f%%",
			strings.Join(bad, "; "), 100*threshold)
	}
	return nil
}

// RenderBenchDeltas prints the comparison benchstat-style.
func RenderBenchDeltas(deltas []BenchDelta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s %8s %14s\n", "name", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, d := range deltas {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %+7.1f%% %6d → %d\n",
			d.Name, d.OldNs, d.NewNs, 100*d.Delta, d.OldAllocs, d.NewAllocs)
	}
	return b.String()
}
