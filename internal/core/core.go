// Package core is the reproduction of the paper's primary
// contribution: the HPCToolkit-NUMA profiler. It wires an
// address-sampling mechanism (internal/pmu) into the execution engine
// (internal/proc), collects address samples into augmented per-thread
// calling context trees, attributes them three ways — code-centric,
// data-centric, and address-centric (Section 5) — pinpoints first
// touches through page protection (Section 6), merges per-thread
// profiles with sum and [min,max] reductions (Section 7.2), and
// derives the NUMA metrics of Section 4 including lpi_NUMA by
// whichever estimator the mechanism supports.
//
// The top-level entry point is Analyze:
//
//	prof, err := core.Analyze(core.Config{
//		Machine:   topology.MagnyCours48(),
//		Mechanism: "IBS",
//	}, app)
//
// where app is any simulated program implementing App (the four paper
// benchmarks live in internal/workloads).
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/addrcentric"
	"repro/internal/cache"
	"repro/internal/cct"
	"repro/internal/datacentric"
	"repro/internal/faults"
	"repro/internal/firsttouch"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/progress"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
)

// App is a runnable simulated application.
type App interface {
	// Name identifies the application.
	Name() string
	// Binary returns the simulated executable: functions, sites, and
	// the static-variable symbol table. It must be safe to call
	// before Run and describe everything Run will execute.
	Binary() *isa.Program
	// Run executes the application on the engine. An App instance is
	// one-shot: construct a fresh instance for each run.
	Run(e *proc.Engine)
}

// Config selects the machine, team size, and monitoring setup.
type Config struct {
	// Machine to run on (required).
	Machine *topology.Machine
	// Threads is the team size; 0 means all CPUs.
	Threads int
	// Mechanism is the address-sampling back end: one of pmu.Names().
	// Empty means "IBS".
	Mechanism string
	// Period overrides the mechanism's scaled default sampling period.
	Period uint64
	// Bins overrides the per-variable bin count (0: default/env).
	Bins int
	// TrackFirstTouch enables page-protection first-touch pinpointing.
	TrackFirstTouch bool

	// CacheConfig overrides the default cache geometry (zero value:
	// cache.DefaultConfig). Experiments shrink caches in proportion
	// to their scaled-down problem sizes.
	CacheConfig cache.Config
	// MemParams overrides the memory-controller model.
	MemParams mem.LatencyParams
	// FabricParams overrides the interconnect model.
	FabricParams interconnect.Params
	// Binding selects thread-to-CPU placement (compact or scatter).
	Binding proc.Binding
	// Trace additionally records every sample with its simulated
	// timestamp for time-varying analysis (internal/trace) — the
	// paper's Section 10 future-work item on trace-based measurement.
	Trace bool
	// Faults injects the given fault plan into the sampling pipeline
	// (nil: none). The profiler degrades gracefully — validating and
	// quarantining malformed samples, retrying stalls with
	// exponential backoff in simulated time, falling back to Soft-IBS
	// on hard failure, and salvaging the merge when per-thread
	// profiles are lost — and accounts for it all in Profile.Health.
	Faults *faults.Plan

	// SnapshotEvery enables the live-progress publisher: every N
	// completed parallel/serial regions ("epochs") the profiler
	// captures an immutable progress.Snapshot of the in-flight
	// aggregates and derived metric estimates and hands it to
	// OnSnapshot, plus one final snapshot mirroring the completed
	// profile's Totals. 0 (the default) disables capture; the
	// per-region cost is then a counter increment and one compare.
	// Snapshots are observational: enabling them never changes the
	// profile's bytes (only ConvergeEarly does).
	SnapshotEvery int
	// SnapshotTopK bounds the hot-variable estimates carried by each
	// snapshot (0: 5).
	SnapshotTopK int
	// OnSnapshot receives every snapshot, synchronously on the run's
	// goroutine; it must not block. May be nil — the convergence
	// detector still runs, which is what ConvergeEarly needs.
	OnSnapshot func(progress.Snapshot)
	// ConvergeEarly stops sampling once the live estimates converge
	// (progress.Detector over the LPI and remote-fraction quotients).
	// The run itself completes — only monitoring detaches — so the
	// profile still covers the whole execution, but its sampled
	// metrics describe the pre-stop window. Such profiles are
	// intentionally NOT byte-identical to full-sampling runs; the
	// early stop is recorded in Health. Requires SnapshotEvery > 0.
	ConvergeEarly bool
}

// Totals carries whole-program measurements and derived metrics.
type Totals struct {
	// Sampled quantities.
	Samples             float64
	SampledInstructions float64 // I^s
	Ml, Mr              float64
	PerDomain           []float64
	SampledLatency      units.Cycles
	SampledRemoteLat    units.Cycles // l^s_NUMA

	// Absolute counters (the "conventional PMU counters").
	Instructions uint64
	MemAccesses  uint64

	// LPI is lpi_NUMA by the mechanism's estimator (Equation 2 for
	// instruction samplers with latency, Equation 3 for event
	// samplers with latency). NaN when the mechanism cannot estimate
	// it (no latency measurement).
	LPI float64
	// LPIExact is Equation 1 computed from full execution counts —
	// available only because our substrate is a simulator; the real
	// tool cannot observe it and relies on the estimators.
	LPIExact float64
	// LPIInsufficient reports that the mechanism supports an lpi
	// estimator but the run delivered too few usable samples to
	// evaluate it; LPI is pinned to 0 rather than NaN/Inf.
	LPIInsufficient bool
	// Significant applies the 0.1 cycles/instruction rule of thumb to
	// the best available lpi value.
	Significant bool

	// RemoteFraction is M_r / (M_l + M_r).
	RemoteFraction float64
	// Imbalance is max/mean of PerDomain.
	Imbalance float64

	// SimTime is the simulated program runtime under monitoring.
	SimTime units.Cycles
	// ROITime is the time spent after the workload's proc.ROIMark —
	// the measured phase (equals SimTime when no mark was set).
	ROITime units.Cycles
	// Overhead is the monitoring cost charged to threads.
	Overhead units.Cycles
}

// totalsAlias strips Totals of its methods so the custom marshalers
// below can delegate to the stock struct codec without recursing.
type totalsAlias Totals

// MarshalJSON encodes Totals with NaN LPI carried as null. LPI is
// legitimately NaN for mechanisms that measure no latency (see
// buildTotals), but encoding/json rejects NaN outright — without this
// method every profile save and HTTP view for MRK, Soft-IBS, PEBS and
// DEAR profiles fails wholesale.
func (t Totals) MarshalJSON() ([]byte, error) {
	doc := struct {
		totalsAlias
		LPI *float64 // shadows the embedded field
	}{totalsAlias: totalsAlias(t)}
	if v := t.LPI; !math.IsNaN(v) {
		doc.LPI = &v
	}
	return json.Marshal(doc)
}

// UnmarshalJSON restores the in-memory convention: a null (or absent)
// LPI decodes back to NaN, so round-tripped profiles are
// indistinguishable from freshly built ones.
func (t *Totals) UnmarshalJSON(b []byte) error {
	doc := struct {
		*totalsAlias
		LPI *float64
	}{totalsAlias: (*totalsAlias)(t)}
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if doc.LPI != nil {
		t.LPI = *doc.LPI
	} else {
		t.LPI = math.NaN()
	}
	return nil
}

// BinStats aggregates samples falling in one bin of a variable.
type BinStats struct {
	Index     int
	Lo, Hi    uint64 // address sub-range
	Ml, Mr    float64
	Samples   float64
	Latency   units.Cycles
	RemoteLat units.Cycles
}

// VarProfile aggregates data-centric attribution for one variable.
type VarProfile struct {
	Var *datacentric.Variable

	Samples   float64
	Ml, Mr    float64
	PerDomain []float64
	Latency   units.Cycles
	RemoteLat units.Cycles

	// LPI is the variable's NUMA latency per sampled access touching
	// it: the per-variable analog of Equation 2 the viewer shows next
	// to each variable.
	LPI float64
	// RemoteLatShare is this variable's share of the program's total
	// sampled remote latency (the paper's "z accounts for 11.3% of
	// the total latency caused by remote accesses").
	RemoteLatShare float64
	// MrShare is this variable's share of total M_r.
	MrShare float64

	Bins []BinStats

	// First-touch pinpointing results (when enabled).
	FirstTouchThreads []int
	FirstTouchPath    []proc.Frame
	ProtectedPages    int
}

// Profile is the analysis result: the merged augmented CCT, per
// variable data-centric profiles, address-centric patterns, and
// program totals.
type Profile struct {
	AppName   string
	Machine   *topology.Machine
	Mechanism string
	Caps      pmu.Capability
	Period    uint64

	// Tree is the merged augmented CCT: code-centric call paths under
	// the access dummy node, allocation paths under the allocation
	// dummy node, first-touch paths under the first-touch dummy node.
	Tree *cct.Tree
	// PerThreadTrees holds the unmerged per-thread access trees, as
	// hpcrun wrote them before the hpcprof merge.
	PerThreadTrees []*cct.Tree

	// Vars is sorted by descending sampled remote latency.
	Vars []*VarProfile

	// Patterns exposes address-centric access patterns per variable
	// and scope.
	Patterns *addrcentric.Tracker
	// FirstTouch exposes raw first-touch events (nil unless enabled).
	FirstTouch *firsttouch.Recorder
	// Registry exposes the variable registry for lookups.
	Registry *datacentric.Registry
	// Timeline holds time-stamped samples when Config.Trace was set
	// (nil otherwise).
	Timeline *trace.Timeline
	// Binary is the profiled program's static description.
	Binary *isa.Program

	Totals Totals

	// Health is the degradation ledger: samples dropped or
	// quarantined, sampler stalls/retries/fallbacks, and per-thread
	// merge coverage. Its zero value means a fully healthy run.
	Health Health
}

// VarByName finds a variable profile by name.
func (p *Profile) VarByName(name string) (*VarProfile, bool) {
	for _, v := range p.Vars {
		if v.Var.Name == name {
			return v, true
		}
	}
	return nil, false
}

// Analyze runs app under the configured monitoring and returns its
// Profile. It is the whole pipeline of Section 7: hpcrun (online
// collection), hpcprof (offline merge), and the derived-metric
// computation, in one call.
func Analyze(cfg Config, app App) (*Profile, error) {
	return AnalyzeCtx(context.Background(), cfg, app)
}

// AnalyzeCtx is Analyze under a context, which is how the pipeline
// phases show up in a telemetry trace: the engine setup, the monitored
// run (hpcrun), the per-thread CCT merge (hpcprof), and the
// derived-metric computation each run under their own pipeline.* span
// parented to whatever span ctx carries, and feed the always-on
// pipeline_* instrument family. The context is observational only —
// Analyze has no cancellation points; job-level cancellation lives in
// sched.MapWithCtx, which stops dispatching cells.
func AnalyzeCtx(ctx context.Context, cfg Config, app App) (*Profile, error) {
	prof, _, err := monitoredRun(ctx, cfg, app)
	return prof, err
}

// monitoredRun is AnalyzeCtx returning the engine beside the profile,
// so MeasureOverhead can read the engine's base clock without that
// clock entering the Profile (or the bytes profio saves of it).
func monitoredRun(ctx context.Context, cfg Config, app App) (*Profile, *proc.Engine, error) {
	if cfg.Machine == nil {
		return nil, nil, fmt.Errorf("core: Config.Machine is required")
	}
	name := cfg.Mechanism
	if name == "" {
		name = "IBS"
	}
	_, setupDone := telemetry.Timed(ctx, "pipeline.engine_setup",
		telemetry.String("workload", app.Name()), telemetry.String("mechanism", name))
	mech, err := pmu.ByName(name, cfg.Period)
	if err != nil {
		setupDone()
		return nil, nil, err
	}
	prog := app.Binary()
	e := proc.NewEngine(proc.Config{
		Machine:      cfg.Machine,
		Program:      prog,
		Threads:      cfg.Threads,
		CacheConfig:  cfg.CacheConfig,
		MemParams:    cfg.MemParams,
		FabricParams: cfg.FabricParams,
		Binding:      cfg.Binding,
	})

	if cfg.Faults != nil && !cfg.Faults.Zero() {
		mech = faults.Wrap(mech, cfg.Faults)
	}

	// The profiler is the run's only hook: it forwards the access and
	// compute events to the monitor itself, after its supervision pass.
	p := newProfiler(cfg, e, prog)
	mon := pmu.NewMonitor(mech, prog, p.onSample)
	p.mon = mon
	e.AddHook(p)
	if fm, ok := mech.(*faults.Faulty); ok {
		p.faulty = fm
		p.health.Plan = cfg.Faults.String()
	}
	setupDone()

	_, runDone := telemetry.Timed(ctx, "pipeline.sampling_run",
		telemetry.String("workload", app.Name()), telemetry.String("mechanism", name))
	app.Run(e)
	runDone()

	return p.finish(ctx, app.Name(), mon), e, nil
}

// Run executes app on cfg's machine with no monitoring attached and
// returns the engine, for exact-metric validation and for callers that
// want no monitoring at all. Its TotalTime is the oracle for the base
// clock MeasureOverhead reads off a monitored run.
func Run(cfg Config, app App) (*proc.Engine, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("core: Config.Machine is required")
	}
	e := proc.NewEngine(proc.Config{
		Machine:      cfg.Machine,
		Program:      app.Binary(),
		Threads:      cfg.Threads,
		CacheConfig:  cfg.CacheConfig,
		MemParams:    cfg.MemParams,
		FabricParams: cfg.FabricParams,
		Binding:      cfg.Binding,
	})
	app.Run(e)
	return e, nil
}

// Overhead holds one Table 2 measurement: baseline vs monitored
// simulated runtime.
type Overhead struct {
	Base, Monitored units.Cycles
}

// Percent returns the monitoring overhead as a fraction of baseline
// (0.24 means +24%). Cycles are unsigned, so the subtraction must
// happen in float space: a monitored run that happens to beat its
// baseline is a small negative overhead, not a 2^64-cycle one.
func (o Overhead) Percent() float64 {
	if o.Base == 0 {
		return 0
	}
	return (float64(o.Monitored) - float64(o.Base)) / float64(o.Base)
}

// MeasureOverhead runs app once under cfg's monitoring and returns
// both runtimes with the run's profile. Monitored is the profile's
// SimTime; Base is the engine's monitoring-free clock
// (proc.Engine.BaseTime), which equals what Run reports for the same
// app because monitoring only charges cycles and never steers the
// simulation (see package proc's timing model).
func MeasureOverhead(cfg Config, app App) (Overhead, *Profile, error) {
	prof, e, err := monitoredRun(context.Background(), cfg, app)
	if err != nil {
		return Overhead{}, nil, err
	}
	return Overhead{Base: e.BaseTime(), Monitored: prof.Totals.SimTime}, prof, nil
}

// profiler is the online collector: a proc.Hook that tracks
// allocations, regions, and first touches, drives the PMU monitor with
// the run's access and compute events, and is the monitor's sample
// sink.
type profiler struct {
	proc.BaseHook
	cfg    Config
	engine *proc.Engine
	prog   *isa.Program

	registry *datacentric.Registry
	patterns *addrcentric.Tracker
	ft       *firsttouch.Recorder
	timeline *trace.Timeline

	// Per-thread access CCTs (hpcrun's per-thread profiles).
	trees []*cct.Tree

	// keyScratch is the path buffer onSample reuses for every CCT
	// insert; samples arrive one at a time, so one buffer serves all
	// threads without a per-sample allocation.
	keyScratch []cct.Key

	// Per-variable aggregation, keyed by allocation id.
	varAggs map[int]*varAgg

	// Whole-program sampled totals.
	samples     float64
	ml, mr      float64
	perDomain   []float64
	sampledLat  units.Cycles
	sampledRLat units.Cycles

	// Degradation machinery (nil/zero on healthy runs).
	mon    *pmu.Monitor
	faulty *faults.Faulty
	health Health
	// Stall supervision: pending retry deadline and current backoff.
	retryAt units.Cycles
	backoff units.Cycles
	// fellBack is set once the Soft-IBS fallback is installed.
	fellBack bool
	// Estimator-window snapshot taken at fallback time (the fallback
	// sampler cannot measure latency, so later samples must not
	// dilute the estimate).
	snapRemoteLat units.Cycles
	snapInstr     uint64
	snapRemote    uint64
	// Quarantined samples were delivered (they count in I^s at the
	// monitor) but rejected by validation; their contribution is
	// subtracted from the estimator inputs.
	quarInstr     uint64
	quarRemote    uint64
	quarRemoteLat units.Cycles

	// Live-progress publisher state: completed-region epochs, the
	// snapshot sequence, the convergence detector, and whether the
	// converge-early policy already detached the monitor.
	epoch        int
	snapSeq      int
	detector     progress.Detector
	stoppedEarly bool
}

type varAgg struct {
	v         *datacentric.Variable
	samples   float64
	ml, mr    float64
	perDomain []float64
	lat, rlat units.Cycles
	bins      []BinStats
}

func newProfiler(cfg Config, e *proc.Engine, prog *isa.Program) *profiler {
	p := &profiler{
		cfg:       cfg,
		engine:    e,
		prog:      prog,
		registry:  datacentric.NewRegistry(cfg.Bins),
		patterns:  addrcentric.NewTracker(),
		varAggs:   make(map[int]*varAgg),
		perDomain: make([]float64, e.Machine().NumDomains()),
	}
	for i := 0; i < e.NumThreads(); i++ {
		p.trees = append(p.trees, cct.New())
	}
	if cfg.TrackFirstTouch {
		p.ft = firsttouch.New(e)
	}
	if cfg.Trace {
		p.timeline = trace.New()
	}
	// Register symbol-table statics (Section 5.1: "identifies address
	// ranges associated with static variables by reading symbols in
	// the executable"). With first-touch tracking on, their pages are
	// protected now — "when the executable ... is loaded before
	// execution begins" — implementing the extension the paper lists
	// as future work (Section 10).
	for i, sv := range prog.Statics() {
		r := e.StaticRegion(i)
		p.registry.AddStatic(sv.Name, r)
		if p.ft != nil {
			p.ft.Protect(r)
		}
	}
	return p
}

// OnAlloc implements proc.Hook: track the heap variable with its full
// allocation call path, and arm first-touch trapping.
func (p *profiler) OnAlloc(t *proc.Thread, site isa.SiteID, r vm.Region, name string) {
	p.registry.AddHeap(name, r, site, t.ID, t.CallPath())
	if p.ft != nil {
		p.ft.Protect(r)
	}
}

// OnStackAlloc implements proc.Hook: stack variables are tracked like
// heap ones under the Stack kind (the Section 10 extension), including
// first-touch trapping.
func (p *profiler) OnStackAlloc(t *proc.Thread, site isa.SiteID, r vm.Region, name string) {
	p.registry.AddStack(name, r, site, t.ID, t.CallPath())
	if p.ft != nil {
		p.ft.Protect(r)
	}
}

// OnFree implements proc.Hook.
func (p *profiler) OnFree(_ *proc.Thread, r vm.Region) {
	p.registry.Remove(r)
}

// initialBackoff is the first stall-retry delay in simulated cycles;
// each further stall doubles it up to maxBackoff (truncated exponential
// backoff, the standard supervisor loop of a production collector).
const (
	initialBackoff units.Cycles = 4096
	maxBackoff     units.Cycles = 1 << 20
)

// OnAccess implements proc.Hook: the profiler's supervision pass, then
// the PMU monitor's observation of the access. Supervision watches the
// sampler's health: a stalled sampler is restarted after an exponential
// backoff in simulated time; a hard-failed sampler is replaced by
// Soft-IBS, the software sampler that needs no PMU (Section 3's
// fallback for machines without address-sampling hardware — reused
// here as the degradation path).
func (p *profiler) OnAccess(ev *proc.AccessEvent) {
	if p.faulty != nil && !p.fellBack {
		p.supervise(ev)
	}
	p.mon.OnAccess(ev)
}

// OnCompute implements proc.Hook by forwarding to the monitor.
func (p *profiler) OnCompute(t *proc.Thread, n uint64) { p.mon.OnCompute(t, n) }

// supervise is one access's supervision pass in a fault-injected run.
func (p *profiler) supervise(ev *proc.AccessEvent) {
	now := p.engine.Now(ev.Thread)
	if p.faulty.Failed() {
		p.fallBack(now)
		return
	}
	if p.faulty.Stalled() {
		if p.retryAt == 0 {
			if p.backoff == 0 {
				p.backoff = initialBackoff
			} else if p.backoff < maxBackoff {
				p.backoff *= 2
			}
			p.retryAt = now + p.backoff
			p.health.BackoffCycles += p.backoff
		} else if now >= p.retryAt {
			p.faulty.Restart()
			p.health.SamplerRetries++
			p.retryAt = 0
		}
	}
}

// fallBack snapshots the estimator window and swaps the monitored
// mechanism for Soft-IBS. Collection continues — M_l/M_r, data-centric
// and address-centric attribution all keep accumulating — but latency
// stops arriving, so lpi_NUMA is later computed from the snapshot.
func (p *profiler) fallBack(now units.Cycles) {
	p.fellBack = true
	p.snapRemoteLat = p.mon.SampledRemoteLatency()
	p.snapInstr = p.mon.SampledInstructions()
	p.snapRemote = p.mon.SampledRemote()
	soft := pmu.NewSoftIBS(0)
	p.mon.SetMechanism(soft)
	p.health.Fallback = soft.Name()
	p.health.FallbackAt = now
}

// saneLatencyCeiling bounds a believable single-access latency: no
// memory access on any modelled machine costs more than a million
// cycles, so anything above is a garbled measurement.
const saneLatencyCeiling units.Cycles = 1 << 20

// mergeWorkers caps the concurrency of the hpcprof shard merge. Small
// forests (the common case — one tree per simulated thread) merge
// serially anyway; see cct.MergeShards.
const mergeWorkers = 4

// validate checks one delivered sample against the machine topology,
// the mapped address space, and latency sanity. Malformed samples are
// quarantined into health counters — never attributed, never a crash.
func (p *profiler) validate(s *pmu.Sample) bool {
	ok := true
	if int(s.CPU) < 0 || int(s.CPU) >= p.engine.Machine().NumCPUs() ||
		s.ThreadID < 0 || s.ThreadID >= p.engine.NumThreads() {
		p.health.QuarantinedCPU++
		ok = false
	}
	if s.IP != isa.NoSite && (int(s.IP) < 0 || int(s.IP) >= p.prog.NumSites()) {
		p.health.QuarantinedIP++
		ok = false
	}
	if s.HasEA && s.RegionValid && !s.Region.Contains(s.EA) {
		p.health.QuarantinedEA++
		ok = false
	}
	if s.HasLatency && s.Latency > saneLatencyCeiling {
		p.health.QuarantinedLatency++
		ok = false
	}
	if !ok {
		// The monitor already counted this sample into I^s and the
		// sampled remote latency; remember how much to subtract so
		// the estimators only see validated samples.
		p.quarInstr++
		if s.Source.IsRemote() {
			p.quarRemote++
			if s.HasLatency {
				p.quarRemoteLat += s.Latency
			}
		}
	}
	return ok
}

// OnRegionBegin implements proc.Hook: scope address-centric patterns
// to the region.
func (p *profiler) OnRegionBegin(name string, _ []*proc.Thread) {
	p.patterns.EnterRegion(name)
}

// OnRegionEnd implements proc.Hook. Each completed region is one
// "epoch" of the live-progress publisher; at the configured cadence it
// captures a snapshot of the in-flight estimates. Runs synchronously
// on the engine's goroutine, so the capture reads the plain profiler
// fields without locks.
func (p *profiler) OnRegionEnd(string) {
	p.patterns.LeaveRegion()
	p.epoch++
	if n := p.cfg.SnapshotEvery; n > 0 && p.epoch%n == 0 {
		p.publishSnapshot(p.liveSnapshot(), false)
	}
}

// onSample is the PMU monitor's callback: attribute one address sample.
// Samples are validated first; malformed ones are quarantined into
// Health counters rather than crashing the collector or silently
// skewing the attribution.
func (p *profiler) onSample(s *pmu.Sample) {
	p.samples++
	if !p.validate(s) {
		return
	}
	if !s.HasEA {
		return // non-memory sample: counts toward I^s only
	}
	t := p.engine.Threads()[s.ThreadID]
	local := p.engine.Machine().DomainOfCPU(s.CPU)

	// Code-centric attribution: unwind the call stack, insert the
	// path + site leaf into the thread's tree.
	tree := p.trees[s.ThreadID]
	keys := p.keyScratch[:0]
	keys = append(keys, cct.DummyKey(cct.DummyAccess))
	for _, fr := range t.CallStack() {
		keys = append(keys, cct.FrameKey(fr.Fn, fr.CallLine))
	}
	if s.IP != isa.NoSite {
		keys = append(keys, cct.SiteKey(s.IP))
	}
	p.keyScratch = keys
	node := tree.Root().InsertPath(keys)
	node.AddMetric(metrics.Samples, 1)

	match := s.Home == local && s.Home != topology.NoDomain
	if match {
		node.AddMetric(metrics.Match, 1)
		p.ml++
	} else {
		node.AddMetric(metrics.Mismatch, 1)
		p.mr++
	}
	if s.Home >= 0 && int(s.Home) < len(p.perDomain) {
		node.AddMetric(metrics.Node(int(s.Home)), 1)
		p.perDomain[s.Home]++
	}
	if s.HasLatency {
		node.AddMetric(metrics.Latency, float64(s.Latency))
		p.sampledLat += s.Latency
		if s.Source.IsRemote() {
			node.AddMetric(metrics.RemoteLatency, float64(s.Latency))
			p.sampledRLat += s.Latency
		}
	}

	// Data-centric attribution: resolve the EA to its variable.
	if !s.RegionValid {
		return
	}
	v, ok := p.registry.Resolve(s.Region)
	if !ok {
		return
	}
	agg := p.varAggs[v.Region.ID]
	if agg == nil {
		agg = &varAgg{v: v, perDomain: make([]float64, len(p.perDomain))}
		for b := 0; b < v.Bins; b++ {
			lo, hi := v.BinRange(b)
			agg.bins = append(agg.bins, BinStats{Index: b, Lo: lo, Hi: hi})
		}
		p.varAggs[v.Region.ID] = agg
	}
	agg.samples++
	bin := &agg.bins[v.BinOf(s.EA)]
	bin.Samples++
	if match {
		agg.ml++
		bin.Ml++
	} else {
		agg.mr++
		bin.Mr++
	}
	if s.Home >= 0 && int(s.Home) < len(agg.perDomain) {
		agg.perDomain[s.Home]++
	}
	if s.HasLatency {
		agg.lat += s.Latency
		bin.Latency += s.Latency
		if s.Source.IsRemote() {
			agg.rlat += s.Latency
			bin.RemoteLat += s.Latency
		}
	}

	// Address-centric attribution: per-thread [min,max] in the whole
	// program and the current region scope.
	var lat units.Cycles
	if s.HasLatency {
		lat = s.Latency
	}
	p.patterns.Record(v, s.ThreadID, s.EA, lat)

	// Trace-based measurement: keep the time-stamped sample.
	if p.timeline != nil {
		p.timeline.Record(trace.Event{
			Time:    p.engine.Now(t),
			Thread:  s.ThreadID,
			Var:     v.Name,
			EA:      s.EA,
			Remote:  !match,
			Latency: lat,
		})
	}
}

// finish merges per-thread trees, grafts data-centric and first-touch
// subtrees, computes derived metrics, and packages the Profile.
func (p *profiler) finish(ctx context.Context, appName string, mon *pmu.Monitor) *Profile {
	// Flush the collection totals to the always-on pipeline family:
	// onSample keeps plain per-run fields (no atomics on the sample
	// path), accumulated here once per run.
	telemetry.Default.Counter("pipeline_samples_total").Add(uint64(p.samples))

	// Report the run under the *configured* mechanism; a mid-run
	// fallback is recorded in Health, not silently relabelled.
	mech := mon.Mechanism()
	caps := mech.Caps()
	if p.faulty != nil {
		mech = p.faulty.Inner()
		caps = mech.Caps()
		p.accountFaults(mon)
	}

	// Simulate per-thread measurement-file loss before the merge.
	if plan := p.cfg.Faults; plan != nil {
		for _, i := range plan.LoseThreads(len(p.trees)) {
			p.trees[i] = nil
			p.health.ThreadsLost = append(p.health.ThreadsLost, i)
			telemetry.Logger("core").Warn("per-thread profile lost before merge",
				"workload", appName, "thread", i)
		}
	}
	p.health.ThreadsTotal = len(p.trees)

	// hpcprof: merge the surviving per-thread trees into the global
	// augmented CCT, skipping lost profiles instead of aborting. The
	// worker count is a constant, never read from the environment: the
	// merged tree is bit-identical either way (integral metrics make the
	// grouped fold exact — see cct.MergeShards), but keeping the
	// grouping fixed means even intermediate states never depend on how
	// the surrounding sweep is scheduled.
	_, mergeDone := telemetry.Timed(ctx, "pipeline.cct_merge",
		telemetry.String("workload", appName), telemetry.Int("threads", len(p.trees)))
	global := cct.New()
	cct.MergeShards(global, p.trees, mergeWorkers)

	// Graft data-centric subtrees: allocation path -> alloc site ->
	// variable -> bins.
	allocRoot := global.Root().Child(cct.DummyKey(cct.DummyAlloc))
	var vars []*VarProfile
	for _, agg := range p.varAggs {
		vp := p.buildVarProfile(agg)
		vars = append(vars, vp)

		keys := make([]cct.Key, 0, len(agg.v.AllocPath)+2)
		for _, fr := range agg.v.AllocPath {
			keys = append(keys, cct.FrameKey(fr.Fn, fr.CallLine))
		}
		if agg.v.Kind == datacentric.Heap && agg.v.AllocSite != isa.NoSite {
			keys = append(keys, cct.SiteKey(agg.v.AllocSite))
		}
		keys = append(keys, cct.VariableKey(agg.v.Name))
		vnode := allocRoot.InsertPath(keys)
		vnode.AddMetric(metrics.Samples, agg.samples)
		vnode.AddMetric(metrics.Match, agg.ml)
		vnode.AddMetric(metrics.Mismatch, agg.mr)
		vnode.AddMetric(metrics.Latency, float64(agg.lat))
		vnode.AddMetric(metrics.RemoteLatency, float64(agg.rlat))
		for d, n := range agg.perDomain {
			if n > 0 {
				vnode.AddMetric(metrics.Node(d), n)
			}
		}
		if pat, ok := p.patterns.Pattern(agg.v, addrcentric.WholeProgram); ok {
			for _, tr := range pat.Threads() {
				vnode.ExtendRange(tr.Thread, tr.Range.Min)
				vnode.ExtendRange(tr.Thread, tr.Range.Max)
			}
		}
		for _, b := range vp.Bins {
			if b.Samples == 0 {
				continue
			}
			bnode := vnode.Child(cct.BinKey(agg.v.Name, b.Index))
			bnode.AddMetric(metrics.Samples, b.Samples)
			bnode.AddMetric(metrics.Match, b.Ml)
			bnode.AddMetric(metrics.Mismatch, b.Mr)
			bnode.AddMetric(metrics.Latency, float64(b.Latency))
			bnode.AddMetric(metrics.RemoteLatency, float64(b.RemoteLat))
		}
	}
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].RemoteLat != vars[j].RemoteLat {
			return vars[i].RemoteLat > vars[j].RemoteLat
		}
		if vars[i].Mr != vars[j].Mr {
			return vars[i].Mr > vars[j].Mr
		}
		return vars[i].Var.Name < vars[j].Var.Name
	})

	// Graft first-touch subtrees.
	if p.ft != nil {
		for _, vp := range vars {
			sub := p.ft.MergedPaths(vp.Var.Region)
			cct.MergeTrees(global, sub)
		}
	}
	mergeDone()

	_, deriveDone := telemetry.Timed(ctx, "pipeline.derive_metrics",
		telemetry.String("workload", appName))
	totals := p.buildTotals(mon, caps)
	deriveDone()

	// Close the stream with a snapshot mirroring the completed
	// profile's derived metrics exactly: a subscriber's last estimate
	// IS the stored profile's truth.
	if p.cfg.SnapshotEvery > 0 {
		p.publishSnapshot(p.finalSnapshot(totals, vars), true)
	}
	return &Profile{
		Health:         p.health,
		AppName:        appName,
		Machine:        p.engine.Machine(),
		Mechanism:      mech.Name(),
		Caps:           caps,
		Period:         mech.Period(),
		Tree:           global,
		PerThreadTrees: p.trees,
		Vars:           vars,
		Patterns:       p.patterns,
		FirstTouch:     p.ft,
		Registry:       p.registry,
		Timeline:       p.timeline,
		Binary:         p.prog,
		Totals:         totals,
	}
}

// accountFaults folds the injector's counters into the health ledger.
// Samples delivered after a Soft-IBS fallback bypass the injector, so
// they are added to the fired count to keep the delivery identity
// (fired == delivered + dropped + lost) true for the whole run.
func (p *profiler) accountFaults(mon *pmu.Monitor) {
	c := p.faulty.Counters()
	faults.RecordCounters(c)
	postFallback := mon.SamplesTaken() - c.Delivered
	p.health.SamplesFired = c.Fired + postFallback
	p.health.SamplesDelivered = mon.SamplesTaken()
	p.health.SamplesDropped = c.Dropped
	p.health.LostToStall = c.LostToStall
	p.health.LostToFailure = c.LostToFailure
	p.health.InjectedCorruptEA = c.CorruptedEA
	p.health.InjectedIPSkid = c.SkiddedIP
	p.health.InjectedGarbleLat = c.GarbledLatency
	p.health.SamplerStalls = c.Stalls
}

func (p *profiler) buildVarProfile(agg *varAgg) *VarProfile {
	vp := &VarProfile{
		Var:       agg.v,
		Samples:   agg.samples,
		Ml:        agg.ml,
		Mr:        agg.mr,
		PerDomain: agg.perDomain,
		Latency:   agg.lat,
		RemoteLat: agg.rlat,
		Bins:      agg.bins,
	}
	if agg.samples > 0 {
		vp.LPI = float64(agg.rlat) / agg.samples
	}
	if p.sampledRLat > 0 {
		vp.RemoteLatShare = float64(agg.rlat) / float64(p.sampledRLat)
	}
	if p.mr > 0 {
		vp.MrShare = agg.mr / p.mr
	}
	if p.ft != nil {
		vp.FirstTouchThreads = p.ft.TouchingThreads(agg.v.Region)
		vp.ProtectedPages = p.ft.ProtectedPages(agg.v.Region)
		if path, ok := p.ft.FirstTouchLocation(agg.v.Region); ok {
			vp.FirstTouchPath = path
		}
	}
	return vp
}

func (p *profiler) buildTotals(mon *pmu.Monitor, caps pmu.Capability) Totals {
	e := p.engine
	t := Totals{
		Samples:             p.samples,
		SampledInstructions: float64(mon.SampledInstructions()),
		Ml:                  p.ml,
		Mr:                  p.mr,
		PerDomain:           p.perDomain,
		SampledLatency:      p.sampledLat,
		SampledRemoteLat:    p.sampledRLat,
		Instructions:        e.TotalInstructions(),
		MemAccesses:         e.TotalMemAccesses(),
		LPIExact:            e.ExactLPI(),
		RemoteFraction:      metrics.RemoteFraction(p.ml, p.mr),
		Imbalance:           metrics.ImbalanceFactor(p.perDomain),
		SimTime:             e.TotalTime(),
		ROITime:             e.TimeSince(proc.ROIMark),
	}
	var overhead units.Cycles
	for _, th := range e.Threads() {
		overhead += th.Overhead()
	}
	t.Overhead = overhead

	t.LPI, t.LPIInsufficient = p.estimateLPI(caps)
	best := t.LPI
	if math.IsNaN(best) {
		best = t.LPIExact
	}
	t.Significant = metrics.Significant(best)
	return t
}

// snapshotTopK resolves the per-snapshot hot-variable bound.
func (p *profiler) snapshotTopK() int {
	if p.cfg.SnapshotTopK > 0 {
		return p.cfg.SnapshotTopK
	}
	return 5
}

// estimatorCaps returns the capability row the estimators key off: the
// *configured* mechanism's, even after a mid-run fallback — matching
// finish's accounting, so mid-run estimates use the same equations the
// final Totals will.
func (p *profiler) estimatorCaps() pmu.Capability {
	if p.faulty != nil {
		return p.faulty.Inner().Caps()
	}
	return p.mon.Mechanism().Caps()
}

// liveSnapshot captures the in-flight aggregates into a Snapshot: the
// same quantities buildTotals derives at the end of the run, estimated
// over the samples collected so far. Pure read — the profiler's state
// and the eventual profile bytes are untouched.
func (p *profiler) liveSnapshot() progress.Snapshot {
	s := progress.Snapshot{
		Epoch:               p.epoch,
		SimTime:             p.engine.TotalTime(),
		Samples:             p.samples,
		SampledInstructions: float64(p.mon.SampledInstructions()),
		Ml:                  p.ml,
		Mr:                  p.mr,
		RemoteFraction:      metrics.RemoteFraction(p.ml, p.mr),
		Imbalance:           metrics.ImbalanceFactor(p.perDomain),
		PerDomain:           append([]float64(nil), p.perDomain...),
	}
	if lpi, insufficient := p.estimateLPI(p.estimatorCaps()); !math.IsNaN(lpi) && !insufficient {
		s.LPI, s.LPIValid = lpi, true
	}
	// Hottest variables by sampled remote latency — the final
	// report's ordering (see finish) applied to the live aggregates.
	aggs := make([]*varAgg, 0, len(p.varAggs))
	for _, a := range p.varAggs {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].rlat != aggs[j].rlat {
			return aggs[i].rlat > aggs[j].rlat
		}
		if aggs[i].mr != aggs[j].mr {
			return aggs[i].mr > aggs[j].mr
		}
		return aggs[i].v.Name < aggs[j].v.Name
	})
	k := p.snapshotTopK()
	for _, a := range aggs {
		if len(s.TopVars) == k {
			break
		}
		ve := progress.VarEstimate{
			Name:    a.v.Name,
			Kind:    a.v.Kind.String(),
			Samples: a.samples,
			Ml:      a.ml,
			Mr:      a.mr,
		}
		if a.samples > 0 {
			ve.LPI = float64(a.rlat) / a.samples
		}
		if p.sampledRLat > 0 {
			ve.RemoteLatShare = float64(a.rlat) / float64(p.sampledRLat)
		}
		if p.mr > 0 {
			ve.MrShare = a.mr / p.mr
		}
		s.TopVars = append(s.TopVars, ve)
	}
	return s
}

// finalSnapshot mirrors the completed profile's derived metrics into
// the stream's closing snapshot, so the final estimates a subscriber
// saw equal the stored profile's Totals and Vars exactly.
func (p *profiler) finalSnapshot(t Totals, vars []*VarProfile) progress.Snapshot {
	s := progress.Snapshot{
		Epoch:               p.epoch,
		SimTime:             t.SimTime,
		Samples:             t.Samples,
		SampledInstructions: t.SampledInstructions,
		Ml:                  t.Ml,
		Mr:                  t.Mr,
		RemoteFraction:      t.RemoteFraction,
		Imbalance:           t.Imbalance,
		PerDomain:           append([]float64(nil), t.PerDomain...),
	}
	if !math.IsNaN(t.LPI) && !t.LPIInsufficient {
		s.LPI, s.LPIValid = t.LPI, true
	}
	k := p.snapshotTopK()
	for _, v := range vars {
		if len(s.TopVars) == k {
			break
		}
		s.TopVars = append(s.TopVars, progress.VarEstimate{
			Name:           v.Var.Name,
			Kind:           v.Var.Kind.String(),
			Samples:        v.Samples,
			Ml:             v.Ml,
			Mr:             v.Mr,
			MrShare:        v.MrShare,
			RemoteLatShare: v.RemoteLatShare,
			LPI:            v.LPI,
		})
	}
	return s
}

// publishSnapshot stamps the sequence number, runs the convergence
// detector, hands the snapshot to the configured sink, and applies the
// converge-early policy: once the estimates converge mid-run, detach
// the monitor (no further samples, no further overhead charging) and
// record the stop in Health — the only path on which streaming state
// reaches the profile's bytes.
func (p *profiler) publishSnapshot(s progress.Snapshot, final bool) {
	p.snapSeq++
	s.Seq = p.snapSeq
	s.Final = final
	p.detector.Observe(&s)
	if p.cfg.OnSnapshot != nil {
		p.cfg.OnSnapshot(s)
	}
	if p.cfg.ConvergeEarly && s.Converged && !final && !p.stoppedEarly {
		p.stoppedEarly = true
		p.mon.StopSampling()
		p.health.EarlyStop = true
		p.health.EarlyStopEpoch = p.epoch
		p.health.EarlyStopAt = p.engine.TotalTime()
	}
}

// estimateLPI evaluates the mechanism's lpi_NUMA estimator over the
// samples collected so far — at the end of the run for Totals, mid-run
// for progress snapshots, with identical semantics. Returns
// (NaN, false) for mechanisms that measure no latency, and
// (0, true) when the estimator exists but too few usable samples
// reached it. Estimator inputs: on a hard sampler failure the fallback
// mechanism measures no latency, so the estimate comes from the window
// collected before the failure; quarantined samples are subtracted so
// garbage never reaches an equation.
func (p *profiler) estimateLPI(caps pmu.Capability) (lpi float64, insufficient bool) {
	remLat := p.mon.SampledRemoteLatency()
	instr := p.mon.SampledInstructions()
	remEvents := p.mon.SampledRemote()
	if p.fellBack {
		remLat, instr, remEvents = p.snapRemoteLat, p.snapInstr, p.snapRemote
	}
	remLat -= min(p.quarRemoteLat, remLat)
	instr -= min(p.quarInstr, instr)
	remEvents -= min(p.quarRemote, remEvents)

	e := p.engine
	var ok bool
	switch {
	case caps.SamplesAllInstructions && caps.MeasuresLatency:
		// Equation 2 (IBS).
		lpi, ok = metrics.LPIFromInstructionSamples(float64(remLat), instr)
		insufficient = !ok
		p.health.LPIWindowed = p.fellBack
	case caps.EventBased && caps.MeasuresLatency:
		// Equation 3 (PEBS-LL): average sampled remote latency times
		// the absolute remote-event rate. The engine's full remote
		// count plays the conventional counter.
		lpi, ok = metrics.LPIFromEventSamples(
			float64(remLat), remEvents,
			e.TotalRemoteAccesses(), e.TotalInstructions())
		insufficient = !ok
		p.health.LPIWindowed = p.fellBack
	default:
		lpi = math.NaN()
	}
	return lpi, insufficient
}
