// Package proc executes simulated multithreaded programs on a
// simulated NUMA machine. It is the substrate playing the role the OS,
// the hardware threads, and the out-of-order cores play for the real
// HPCToolkit-NUMA: it retires instructions, resolves memory accesses
// through virtual memory and the cache hierarchy, charges
// contention-adjusted latencies, maintains per-thread call stacks for
// call-path unwinding, and delivers every event to registered hooks —
// the attachment points for the PMU samplers and the profiler.
//
// # Execution and timing model
//
// Threads are bound one-to-one to CPUs (thread i on CPU i), as the
// paper's experiments bind threads to cores. Work is organised into
// regions: a serial region runs only the master thread; a parallel
// region (created by internal/omp) runs a team. Within a region each
// thread's instruction stream is simulated in full and its cycle count
// accumulated; the region's duration is the maximum cycle count over
// its team, and program time is the sum of region durations.
//
// The engine keeps two program clocks. TotalTime is the monitored
// runtime: region durations include the overhead hooks charge through
// Thread.AddOverhead. BaseTime is the same run with that overhead taken
// out: each region advances it by the team's maximum of a thread's
// region cycles minus the overhead charged to that thread in the region
// (the slowest thread with and without monitoring need not be the same
// one). Overhead charged outside any region moves neither clock.
//
// BaseTime equals the runtime of the same program with no hooks only
// because monitoring never steers the simulation: a hook may charge
// cost only through AddOverhead. A hook that issued simulated accesses,
// allocated, or changed address-space, cache, memory or fabric state
// would change what the unmonitored run computes, and the base clock
// would no longer be its runtime (internal/core's oracle test compares
// the two on every Table 2 cell). Page protection for first-touch
// pinpointing keeps the contract: a protected page's first touch goes
// through a fault handler that charges overhead, and the page is homed
// exactly as the unprotected touch would home it.
//
// Memory contention uses a feedback model: the per-domain controller
// factors and per-link congestion factors computed at the end of each
// region apply to the next region's accesses. Iterative HPC programs
// (every workload in the paper runs many timesteps) reach a steady
// state after the first region, and the model stays deterministic no
// matter how the simulation itself is scheduled.
//
// # Concurrency
//
// An Engine and everything it owns (address space, caches, memory
// system, per-thread contexts, hooks) belong to exactly one sweep cell
// and must be driven from that cell's goroutine; nothing here is safe
// for cross-cell sharing. The only state a cell may share with its
// siblings is read-only input: the topology.Machine and the workload's
// isa.Program (see those packages' concurrency notes). This split is
// what lets internal/sched run whole cells concurrently while keeping
// every cell's simulated clock — and therefore its output bytes —
// identical to a serial run, and what lets vm, cache, mem and
// interconnect keep their state in plain fields with no locks.
package proc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

// Frame is one entry of a thread's call stack: the callee function and
// the source line of the call site in the caller.
type Frame struct {
	Fn       isa.FuncID
	CallLine int
}

// Thread is one simulated thread, permanently bound to a CPU.
type Thread struct {
	ID     int
	CPU    topology.CPUID
	Domain topology.DomainID

	stack []Frame

	// Cycle accounting.
	cycles         units.Cycles // lifetime, including overhead
	regionCycles   units.Cycles // within the current region
	overhead       units.Cycles // monitoring overhead charged by hooks
	regionOverhead units.Cycles // the part of overhead charged in the current region

	// Retirement counters ("conventional PMU counters" in the paper's
	// terms; PEBS-LL's Equation 3 reads them).
	instructions uint64
	memAccesses  uint64

	// frameAllocs holds each open frame's stack variables, freed when
	// the frame returns.
	frameAllocs [][]vm.Region
}

// CallPath returns a copy of the thread's current call stack, outermost
// frame first. This is the "call stack unwind" of Section 5.1.
func (t *Thread) CallPath() []Frame {
	out := make([]Frame, len(t.stack))
	copy(out, t.stack)
	return out
}

// CallStack returns the live call stack, oldest frame first, without
// copying. The slice is owned by the thread and is only valid until
// its next Call or Return; callers that keep it must use CallPath.
// This is the allocation-free unwind the per-sample hot path uses.
func (t *Thread) CallStack() []Frame { return t.stack }

// Depth returns the current call-stack depth.
func (t *Thread) Depth() int { return len(t.stack) }

// Cycles returns the thread's lifetime cycle count.
func (t *Thread) Cycles() units.Cycles { return t.cycles }

// Instructions returns the thread's retired instruction count.
func (t *Thread) Instructions() uint64 { return t.instructions }

// MemAccesses returns the thread's retired load/store count.
func (t *Thread) MemAccesses() uint64 { return t.memAccesses }

// Overhead returns the monitoring overhead charged to this thread.
func (t *Thread) Overhead() units.Cycles { return t.overhead }

// AddOverhead charges monitoring cost to the thread. PMU samplers and
// the profiler call this so that, exactly as on real hardware, heavier
// instrumentation shows up as longer monitored runtime (Table 2).
func (t *Thread) AddOverhead(c units.Cycles) {
	t.overhead += c
	t.regionOverhead += c
	t.cycles += c
	t.regionCycles += c
}

// AccessEvent describes one retired memory access, after address
// translation, cache simulation, and latency assignment. It carries
// everything any of the six sampling mechanisms could capture.
type AccessEvent struct {
	Thread  *Thread
	Site    isa.SiteID
	EA      uint64
	IsStore bool
	// Source is the level that satisfied the access.
	Source cache.DataSource
	// Home is the NUMA domain owning the page (what move_pages
	// reports); NoDomain for untracked addresses.
	Home topology.DomainID
	// Latency is the access's full, contention-adjusted cost.
	Latency units.Cycles
	// FirstTouch reports whether this access was the first touch of
	// its page.
	FirstTouch bool
	// Region is the allocation containing EA, if any.
	Region vm.Region
	// RegionValid reports whether Region is meaningful.
	RegionValid bool
}

// Hook observes execution. All methods are called synchronously from
// the simulating goroutine of the owning thread; implementations must
// not retain the event pointer.
type Hook interface {
	// OnAccess fires after each retired memory access.
	OnAccess(ev *AccessEvent)
	// OnCompute fires after a batch of n non-memory instructions
	// retires on t.
	OnCompute(t *Thread, n uint64)
	// OnAlloc fires when t allocates a region (site is the allocation
	// instruction). The thread's call path at this moment is the
	// allocation path used for data-centric attribution.
	OnAlloc(t *Thread, site isa.SiteID, r vm.Region, name string)
	// OnStackAlloc fires when t allocates a stack variable inside the
	// current frame (the Section 10 stack-tracking extension). The
	// variable is freed automatically when the frame returns,
	// reported through OnFree.
	OnStackAlloc(t *Thread, site isa.SiteID, r vm.Region, name string)
	// OnFree fires when t frees a region.
	OnFree(t *Thread, r vm.Region)
	// OnRegionBegin/End bracket serial and parallel regions. name is
	// the region's function name; team lists participating threads.
	OnRegionBegin(name string, team []*Thread)
	OnRegionEnd(name string)
}

// BaseHook is a no-op Hook for embedding.
type BaseHook struct{}

// OnAccess implements Hook.
func (BaseHook) OnAccess(*AccessEvent) {}

// OnCompute implements Hook.
func (BaseHook) OnCompute(*Thread, uint64) {}

// OnAlloc implements Hook.
func (BaseHook) OnAlloc(*Thread, isa.SiteID, vm.Region, string) {}

// OnStackAlloc implements Hook.
func (BaseHook) OnStackAlloc(*Thread, isa.SiteID, vm.Region, string) {}

// OnFree implements Hook.
func (BaseHook) OnFree(*Thread, vm.Region) {}

// OnRegionBegin implements Hook.
func (BaseHook) OnRegionBegin(string, []*Thread) {}

// OnRegionEnd implements Hook.
func (BaseHook) OnRegionEnd(string) {}

// Engine drives one program execution on one machine.
type Engine struct {
	machine *topology.Machine
	prog    *isa.Program
	as      *vm.AddressSpace
	memory  *mem.System
	fabric  *interconnect.Fabric
	caches  *cache.Hierarchy

	threads []*Thread
	hooks   []Hook

	// Contention factors from the previous region (feedback model).
	memFactors  []float64
	linkFactors [][]float64
	// dramLat and hopLat hold, at [from*domains+to], the contention-scaled
	// DRAM and fabric-crossing latencies for a CPU in domain from that
	// reaches memory homed in domain to. They are recomputed from the
	// factors in NewEngine and EndRegion, so an access does one table
	// load instead of a distance ratio and a scaling.
	dramLat, hopLat []units.Cycles
	domains         int

	totalTime    units.Cycles
	baseTime     units.Cycles // totalTime without hook overhead
	regionName   string
	regionTeam   []*Thread
	regionActive bool

	// currentThread/currentSite identify the in-flight access for
	// fault handlers (see CurrentThread).
	currentThread *Thread
	currentSite   isa.SiteID

	// accessEv is the scratch event handed to hooks, reused across
	// accesses and filled in place by resolve: hooks must not retain
	// the pointer (the Hook contract), and accesses never nest, so one
	// buffer serves every access.
	accessEv AccessEvent

	// staticRegions backs the program's symbol-table statics.
	staticRegions []vm.Region

	// marks records named time points (phase boundaries).
	marks map[string]units.Cycles

	// Program-wide retirement totals.
	totalInstructions uint64
	totalMemAccesses  uint64
	totalRemote       uint64
	totalRemoteCycles units.Cycles
}

// Config assembles an Engine.
type Config struct {
	Machine *topology.Machine
	Program *isa.Program
	// Threads is the team size; at most Machine.NumCPUs(). Zero means
	// all CPUs.
	Threads int
	// CacheConfig overrides the default cache geometry if non-zero.
	CacheConfig cache.Config
	// MemParams overrides the default memory latency model if non-zero.
	MemParams mem.LatencyParams
	// FabricParams overrides the default interconnect model if non-zero.
	FabricParams interconnect.Params
	// Binding selects how threads map to CPUs.
	Binding Binding
}

// Binding is a thread-to-CPU placement policy.
type Binding int

// Bindings.
const (
	// Compact fills CPUs in order (thread i on CPU i): domains fill
	// one at a time.
	Compact Binding = iota
	// Scatter deals threads round-robin across domains — how the
	// paper binds UMT2013's 32 threads over POWER7's four domains
	// ("each hardware core in each of four NUMA domains", Section
	// 8.4).
	Scatter
)

// NewEngine builds an engine and its full machine state (address space,
// memory system, fabric, caches, threads).
func NewEngine(cfg Config) *Engine {
	if cfg.Machine == nil {
		panic("proc: Config.Machine is required")
	}
	if cfg.Program == nil {
		panic("proc: Config.Program is required")
	}
	n := cfg.Threads
	if n <= 0 || n > cfg.Machine.NumCPUs() {
		n = cfg.Machine.NumCPUs()
	}
	e := &Engine{
		machine: cfg.Machine,
		prog:    cfg.Program,
		as:      vm.NewAddressSpace(cfg.Machine),
		memory:  mem.NewSystem(cfg.Machine, cfg.MemParams),
		fabric:  interconnect.New(cfg.Machine, cfg.FabricParams),
		caches:  cache.NewHierarchy(cfg.Machine, cfg.CacheConfig),
	}
	cpus := bindCPUs(cfg.Machine, n, cfg.Binding)
	for i := 0; i < n; i++ {
		e.threads = append(e.threads, &Thread{
			ID:     i,
			CPU:    cpus[i],
			Domain: cfg.Machine.DomainOfCPU(cpus[i]),
		})
	}
	nd := cfg.Machine.NumDomains()
	e.domains = nd
	e.memFactors = make([]float64, nd)
	e.linkFactors = make([][]float64, nd)
	for i := range e.memFactors {
		e.memFactors[i] = 1.0
		e.linkFactors[i] = make([]float64, nd)
		for j := range e.linkFactors[i] {
			e.linkFactors[i][j] = 1.0
		}
	}
	e.dramLat = make([]units.Cycles, nd*nd)
	e.hopLat = make([]units.Cycles, nd*nd)
	e.refreshLatencies()
	// "Load" the program: map each symbol-table static variable into
	// the address space (the data/bss segment). Statics are homed by
	// first touch, like pages of a freshly mapped segment.
	for _, sv := range cfg.Program.Statics() {
		e.staticRegions = append(e.staticRegions, e.as.Alloc(sv.Size, vm.FirstTouch{}))
	}
	return e
}

// ROIMark is the conventional mark name for the start of a program's
// measured phase (solver loop, PARSEC region of interest). Workloads
// set it; the profiler reports time since it alongside total time.
const ROIMark = "roi"

// Mark records the current simulated time under a name, delimiting a
// program phase (e.g. the start of the solver loop or a PARSEC-style
// region of interest). Call it between regions.
func (e *Engine) Mark(name string) {
	if e.marks == nil {
		e.marks = make(map[string]units.Cycles)
	}
	e.marks[name] = e.totalTime
}

// Now approximates the simulated timestamp of thread t's current
// instruction: completed-region time plus the thread's progress in the
// open region. Used for trace-based (time-varying) measurements.
func (e *Engine) Now(t *Thread) units.Cycles {
	if t == nil {
		return e.totalTime
	}
	return e.totalTime + t.regionCycles
}

// TimeSince returns simulated time elapsed since the named mark, or
// total time if the mark was never set.
func (e *Engine) TimeSince(name string) units.Cycles {
	if c, ok := e.marks[name]; ok {
		return e.totalTime - c
	}
	return e.totalTime
}

// StaticRegion returns the allocation backing static variable i.
func (e *Engine) StaticRegion(i int) vm.Region { return e.staticRegions[i] }

// bindCPUs picks the CPU for each of n threads under the binding.
func bindCPUs(m *topology.Machine, n int, b Binding) []topology.CPUID {
	out := make([]topology.CPUID, 0, n)
	if b == Compact {
		for i := 0; i < n; i++ {
			out = append(out, topology.CPUID(i))
		}
		return out
	}
	// Scatter: round-robin over domains, taking the next unused CPU
	// in each.
	next := make([]int, m.NumDomains())
	for i := 0; i < n; i++ {
		d := i % m.NumDomains()
		cpus := m.CPUsOfDomain(topology.DomainID(d))
		out = append(out, cpus[next[d]%len(cpus)])
		next[d]++
	}
	return out
}

// Machine returns the engine's machine.
func (e *Engine) Machine() *topology.Machine { return e.machine }

// AddressSpace returns the simulated process's memory.
func (e *Engine) AddressSpace() *vm.AddressSpace { return e.as }

// Memory returns the memory system.
func (e *Engine) Memory() *mem.System { return e.memory }

// Fabric returns the interconnect.
func (e *Engine) Fabric() *interconnect.Fabric { return e.fabric }

// Threads returns the team, index == thread id.
func (e *Engine) Threads() []*Thread { return e.threads }

// NumThreads returns the team size.
func (e *Engine) NumThreads() int { return len(e.threads) }

// AddHook registers an observer. Hooks run in registration order.
func (e *Engine) AddHook(h Hook) {
	e.hooks = append(e.hooks, h)
}

// TotalTime returns the simulated program time accumulated so far: the
// sum over completed regions of the slowest team member's cycles.
func (e *Engine) TotalTime() units.Cycles { return e.totalTime }

// BaseTime returns the monitoring-free program time accumulated so far:
// the sum over completed regions of the slowest team member's cycles
// net of the overhead hooks charged to it in the region. It is the
// TotalTime the same program reaches with no hooks installed (see the
// package doc's contract on hooks).
func (e *Engine) BaseTime() units.Cycles { return e.baseTime }

// TotalInstructions returns program-wide retired instructions (the
// paper's I).
func (e *Engine) TotalInstructions() uint64 { return e.totalInstructions }

// TotalMemAccesses returns program-wide retired loads+stores (I_MEM).
func (e *Engine) TotalMemAccesses() uint64 { return e.totalMemAccesses }

// TotalRemoteAccesses returns program-wide remote accesses (I_NUMA).
func (e *Engine) TotalRemoteAccesses() uint64 { return e.totalRemote }

// ExactLPI returns Equation 1 computed from full (unsampled) execution
// counts: l_NUMA / I.
func (e *Engine) ExactLPI() float64 {
	if e.totalInstructions == 0 {
		return 0
	}
	return float64(e.totalRemoteCycles) / float64(e.totalInstructions)
}

// BeginRegion starts a region with the given team. Panics if a region
// is already active: regions never nest (OpenMP nested parallelism is
// out of scope, as in the paper's experiments).
func (e *Engine) BeginRegion(name string, team []*Thread) {
	if e.regionActive {
		panic(fmt.Sprintf("proc: BeginRegion(%q) inside active region %q", name, e.regionName))
	}
	e.regionActive = true
	e.regionName = name
	e.regionTeam = team
	for _, t := range team {
		t.regionCycles = 0
		t.regionOverhead = 0
	}
	for _, h := range e.hooks {
		h.OnRegionBegin(name, team)
	}
}

// EndRegion closes the active region: program time advances by the
// slowest team member's cycles, the base clock by the slowest member's
// cycles net of its monitoring overhead, and the contention factors for
// the next region are computed from this region's traffic.
func (e *Engine) EndRegion() {
	if !e.regionActive {
		panic("proc: EndRegion without BeginRegion")
	}
	var dur, base units.Cycles
	for _, t := range e.regionTeam {
		dur = max(dur, t.regionCycles)
		base = max(base, t.regionCycles-t.regionOverhead)
	}
	e.totalTime += dur
	e.baseTime += base
	e.memFactors = e.memory.EndEpoch()
	e.linkFactors = e.fabric.EndEpoch()
	e.refreshLatencies()
	name := e.regionName
	e.regionActive = false
	e.regionTeam = nil
	e.regionName = ""
	for _, h := range e.hooks {
		h.OnRegionEnd(name)
	}
}

// Ctx returns an execution context for the given thread. Workload code
// receives a Ctx and issues instructions through it.
func (e *Engine) Ctx(threadID int) *Ctx {
	return &Ctx{e: e, t: e.threads[threadID]}
}

// CurrentThread returns the thread whose access is being simulated, or
// nil outside an access. Fault handlers use it the way a real SIGSEGV
// handler relies on running on the faulting thread (Section 6 of the
// paper): the signal context identifies who touched the page.
func (e *Engine) CurrentThread() *Thread { return e.currentThread }

// CurrentSite returns the instruction site of the access being
// simulated (the faulting IP available to a signal handler), or NoSite.
func (e *Engine) CurrentSite() isa.SiteID { return e.currentSite }

// access simulates one load or store on thread t.
//
// This is the per-access hot path of the whole simulator; it avoids
// deferred closures and heap allocations deliberately. The in-flight
// marker is cleared explicitly at the end — TouchRegion's fault
// handlers run between the assignments, and nothing here panics on
// degraded inputs (the cache and memory models classify them instead).
func (e *Engine) access(t *Thread, site isa.SiteID, addr uint64, isStore bool) {
	e.currentThread, e.currentSite = t, site
	ev := &e.accessEv
	e.resolve(ev, t, site, addr, isStore)
	// The access itself retires one instruction (1 cycle issue) plus
	// its memory latency.
	t.instructions++
	t.memAccesses++
	t.cycles += 1 + ev.Latency
	t.regionCycles += 1 + ev.Latency
	e.totalInstructions++
	e.totalMemAccesses++
	if ev.Source.IsRemote() {
		e.totalRemote++
		e.totalRemoteCycles += ev.Latency
	}
	for _, h := range e.hooks {
		h.OnAccess(ev)
	}
	e.currentThread, e.currentSite = nil, isa.NoSite
}

// resolve is the memory side of one access by t: the page touch, the
// cache probe, and the DRAM or fabric latency with its contention
// traffic. It writes the outcome into ev field by field — assigning a
// composite literal would build the event on the stack and copy it —
// and assigns every field, so a reused event carries nothing over from
// the previous access (TestAccessEventFillCoversEveryField fails when a
// field is added to AccessEvent, as a reminder to fill it here). access
// owns the retirement counters and hook delivery.
func (e *Engine) resolve(ev *AccessEvent, t *Thread, site isa.SiteID, addr uint64, isStore bool) {
	home, first, region, regionOK, err := e.as.TouchRegion(addr, isStore, t.Domain)
	if err != nil {
		home = topology.NoDomain
	}
	res := e.caches.Access(t.CPU, addr, home)
	lat := res.OnChipLatency
	switch res.Source {
	case cache.SrcRemoteCache:
		e.fabric.RecordTransfer(t.Domain, home)
		lat += e.hopLatency(t.Domain, home)
	case cache.SrcLocalDRAM:
		e.memory.RecordRequest(home)
		lat += e.dramLatency(t.Domain, home)
	case cache.SrcRemoteDRAM:
		e.memory.RecordRequest(home)
		e.fabric.RecordTransfer(t.Domain, home)
		lat += e.dramLatency(t.Domain, home)
		lat += e.hopLatency(t.Domain, home)
	}
	ev.Thread = t
	ev.Site = site
	ev.EA = addr
	ev.IsStore = isStore
	ev.Source = res.Source
	ev.Home = home
	ev.Latency = lat
	ev.FirstTouch = first
	ev.Region = region
	ev.RegionValid = regionOK
}

// refreshLatencies recomputes the latency tables from the current
// contention factors.
func (e *Engine) refreshLatencies() {
	n := e.domains
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			f, t := topology.DomainID(from), topology.DomainID(to)
			e.dramLat[from*n+to] = e.scaledDRAMLatency(f, t)
			e.hopLat[from*n+to] = e.scaledHopLatency(f, t)
		}
	}
}

// dramLatency is the contention-scaled DRAM latency of an access from
// domain from to memory homed in to: a table load for a pair of the
// machine's domains, the formula for NoDomain or an out-of-range id.
func (e *Engine) dramLatency(from, to topology.DomainID) units.Cycles {
	if uint(from) < uint(e.domains) && uint(to) < uint(e.domains) {
		return e.dramLat[int(from)*e.domains+int(to)]
	}
	return e.scaledDRAMLatency(from, to)
}

// hopLatency is dramLatency's counterpart for the fabric crossing.
func (e *Engine) hopLatency(from, to topology.DomainID) units.Cycles {
	if uint(from) < uint(e.domains) && uint(to) < uint(e.domains) {
		return e.hopLat[int(from)*e.domains+int(to)]
	}
	return e.scaledHopLatency(from, to)
}

func (e *Engine) scaledDRAMLatency(from, to topology.DomainID) units.Cycles {
	return e.memory.DRAMLatency(from, to).Scale(e.memFactor(to))
}

func (e *Engine) scaledHopLatency(from, to topology.DomainID) units.Cycles {
	return e.fabric.HopLatency(from, to).Scale(e.linkFactor(from, to))
}

func (e *Engine) memFactor(d topology.DomainID) float64 {
	if d < 0 || int(d) >= len(e.memFactors) {
		return 1.0
	}
	return e.memFactors[d]
}

func (e *Engine) linkFactor(from, to topology.DomainID) float64 {
	if from < 0 || to < 0 || int(from) >= len(e.linkFactors) || int(to) >= len(e.linkFactors[from]) {
		return 1.0
	}
	return e.linkFactors[from][to]
}

// Ctx is the instruction-issue interface handed to workload code; all
// methods execute on the context's bound thread.
type Ctx struct {
	e *Engine
	t *Thread
}

// Engine returns the owning engine.
func (c *Ctx) Engine() *Engine { return c.e }

// Thread returns the bound thread.
func (c *Ctx) Thread() *Thread { return c.t }

// Load retires one load of addr at the given instruction site.
func (c *Ctx) Load(site isa.SiteID, addr uint64) {
	c.e.access(c.t, site, addr, false)
}

// Store retires one store to addr at the given instruction site.
func (c *Ctx) Store(site isa.SiteID, addr uint64) {
	c.e.access(c.t, site, addr, true)
}

// Compute retires n non-memory instructions (1 cycle each).
func (c *Ctx) Compute(n uint64) {
	if n == 0 {
		return
	}
	c.t.instructions += n
	c.t.cycles += units.Cycles(n)
	c.t.regionCycles += units.Cycles(n)
	c.e.totalInstructions += n
	for _, h := range c.e.hooks {
		h.OnCompute(c.t, n)
	}
}

// Call pushes a frame for fn (invoked from source line callLine in the
// caller), runs body, and pops the frame. The thread's call path during
// body includes the new frame — this is what call-stack unwinding sees.
// Stack variables allocated in the frame (AllocStack) are freed when it
// returns.
func (c *Ctx) Call(fn isa.FuncID, callLine int, body func()) {
	c.t.stack = append(c.t.stack, Frame{Fn: fn, CallLine: callLine})
	c.t.frameAllocs = append(c.t.frameAllocs, nil)
	defer func() {
		top := len(c.t.frameAllocs) - 1
		for _, r := range c.t.frameAllocs[top] {
			c.e.as.Free(r)
			for _, h := range c.e.hooks {
				h.OnFree(c.t, r)
			}
		}
		c.t.frameAllocs = c.t.frameAllocs[:top]
		c.t.stack = c.t.stack[:len(c.t.stack)-1]
	}()
	body()
}

// AllocStack allocates a stack variable in the current frame: it lives
// until the frame returns, is homed by first touch like any memory, and
// is tracked data-centrically under the Stack kind — the full
// stack-variable support the paper lists as future work (Section 10;
// their tool required converting such variables to statics, as done
// for LULESH's nodelist in Section 8.1). Panics outside any frame.
func (c *Ctx) AllocStack(site isa.SiteID, name string, size uint64) vm.Region {
	if len(c.t.frameAllocs) == 0 {
		panic("proc: AllocStack outside any frame")
	}
	r := c.e.as.Alloc(size, vm.FirstTouch{})
	top := len(c.t.frameAllocs) - 1
	c.t.frameAllocs[top] = append(c.t.frameAllocs[top], r)
	c.t.instructions++
	c.t.cycles++
	c.t.regionCycles++
	c.e.totalInstructions++
	for _, h := range c.e.hooks {
		h.OnStackAlloc(c.t, site, r, name)
	}
	return r
}

// Alloc allocates size bytes at the given allocation site under the
// placement policy (nil means first-touch) and notifies hooks. The
// allocation itself retires one instruction.
func (c *Ctx) Alloc(site isa.SiteID, name string, size uint64, pol vm.Policy) vm.Region {
	r := c.e.as.Alloc(size, pol)
	c.t.instructions++
	c.t.cycles++
	c.t.regionCycles++
	c.e.totalInstructions++
	for _, h := range c.e.hooks {
		h.OnAlloc(c.t, site, r, name)
	}
	return r
}

// Free releases a region and notifies hooks.
func (c *Ctx) Free(r vm.Region) {
	c.e.as.Free(r)
	for _, h := range c.e.hooks {
		h.OnFree(c.t, r)
	}
}
