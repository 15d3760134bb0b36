// Package pmu implements the six address-sampling mechanisms the paper
// builds on (Section 3): AMD instruction-based sampling (IBS), IBM
// marked-event sampling (MRK), Intel precise event-based sampling
// (PEBS), Itanium data event address registers (DEAR), PEBS with the
// load-latency extension (PEBS-LL), and the software fallback Soft-IBS.
//
// Each mechanism is modelled with the capability matrix the paper's
// Sections 3 and 10 lay out — whether it samples all instructions or
// only events, whether it measures access latency, whether its
// instruction pointer is precise, and what it costs — and is driven by
// the execution engine through a Monitor, which plays the role of the
// PMU interrupt handler inside hpcrun.
//
// Monitoring cost is charged to the monitored thread via
// Thread.AddOverhead, so a mechanism's overhead profile shows up in
// simulated runtime exactly as Table 2 measures it: Soft-IBS pays a tax
// on every access (instrumentation), PEBS pays a large per-sample tax
// (online binary analysis to fix off-by-one attribution), IBS pays a
// moderate per-sample tax at a high sample rate (it samples all
// instruction kinds and must filter in software), and MRK, DEAR, and
// PEBS-LL are cheap.
package pmu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

// Sample is one address sample: the (instruction, data address) pair —
// plus whatever else the mechanism can capture — delivered to the
// profiler.
type Sample struct {
	ThreadID int
	CPU      topology.CPUID
	// IP is the sampled instruction site; NoSite when the mechanism
	// sampled a non-memory instruction (IBS and PEBS do).
	IP isa.SiteID
	// PreciseIP reports whether IP is exact. PEBS delivers the *next*
	// instruction's address; the Monitor corrects it when configured
	// to, at a cost.
	PreciseIP bool

	// HasEA reports whether the sample carries an effective address.
	HasEA   bool
	EA      uint64
	IsStore bool

	Source cache.DataSource
	// Home is the NUMA domain of EA's page at sample time.
	Home topology.DomainID
	// HasLatency reports whether Latency is measured (IBS, PEBS-LL).
	HasLatency bool
	Latency    units.Cycles

	FirstTouch  bool
	Region      vm.Region
	RegionValid bool
}

// Capability is the mechanism feature matrix of Sections 3 and 10.
type Capability struct {
	// SamplesAllInstructions: instruction sampling (IBS, PEBS) as
	// opposed to event sampling; enables the Equation 2 estimator.
	SamplesAllInstructions bool
	// EventBased: samples fire on specific events (MRK, DEAR,
	// PEBS-LL); enables the Equation 3 estimator.
	EventBased bool
	// MeasuresLatency: the sample carries access latency.
	MeasuresLatency bool
	// PreciseIP: attribution needs no correction.
	PreciseIP bool
	// NUMAEvents: the mechanism can restrict sampling to NUMA-related
	// events directly in hardware.
	NUMAEvents bool
	// RequiresInstrumentation: software sampling; every access pays.
	RequiresInstrumentation bool
	// RequiresThreadBinding: the CPU id is not in the sample, so the
	// tool must bind threads to cores and keep a static map
	// (Soft-IBS, Section 4.1).
	RequiresThreadBinding bool
}

// Config is one Table 1 row: the event programmed into the PMU, the
// sampling period, and the testbed the mechanism was evaluated on.
type Config struct {
	Event  string
	Period uint64
	// Machine is the testbed's topology preset name.
	Machine string
}

// Costs models where a mechanism's overhead comes from, in cycles.
type Costs struct {
	// PerSample is charged for each sample taken (interrupt, register
	// capture, call-stack unwind).
	PerSample units.Cycles
	// PerAccess is charged on every memory access regardless of
	// sampling (Soft-IBS instrumentation stubs).
	PerAccess units.Cycles
	// OffByOneFix is charged per sample for online binary analysis to
	// recover the precise IP (PEBS).
	OffByOneFix units.Cycles
}

// AccessOutcome is a mechanism's verdict on one access event.
type AccessOutcome struct {
	// Sampled requests a sample for this access.
	Sampled bool
	// Overhead is the monitoring cost to charge the thread.
	Overhead units.Cycles
}

// Mechanism is one address-sampling implementation. Mechanism state
// (per-thread period counters) is owned by the instance, so a fresh
// instance is needed per monitored run.
type Mechanism interface {
	// Name returns the mechanism's short name, e.g. "IBS".
	Name() string
	// Caps returns the capability matrix entry.
	Caps() Capability
	// PaperConfig returns the Table 1 configuration (event name and
	// the paper's sampling period on the real hardware).
	PaperConfig() Config
	// Period returns the operating period of this instance.
	Period() uint64
	// ObserveAccess inspects one retired memory access.
	ObserveAccess(ev *proc.AccessEvent) AccessOutcome
	// ObserveCompute inspects a batch of n non-memory instructions
	// retired by thread t, returning how many (non-memory) samples
	// fire inside the batch and the cost to charge.
	ObserveCompute(t *proc.Thread, n uint64) (samples int, overhead units.Cycles)
}

// SampleTransformer is an optional Mechanism extension: a decorator
// (e.g. faults.Faulty) that mutates or suppresses samples after capture
// but before delivery. Returning false drops the sample — the Monitor
// still charges the capture cost (the PMU did the work) but the sample
// never reaches the profiler or the I^s counters, exactly like a
// ring-buffer overflow.
type SampleTransformer interface {
	TransformSample(s *Sample) bool
}

// Monitor connects a Mechanism to an Engine and delivers samples to a
// callback: it is the PMU interrupt handler of hpcrun. It is a
// proc.Hook; a hook of its own may also call its methods directly, as
// the profiler in internal/core does.
type Monitor struct {
	proc.BaseHook
	mech Mechanism
	prog *isa.Program
	cb   func(*Sample)

	// caps and tr cache the mechanism's Caps() and its
	// SampleTransformer type assertion, both invariant between
	// SetMechanism calls; the per-sample path must not re-derive them on
	// every delivery.
	caps Capability
	tr   SampleTransformer

	// sampleBuf is the scratch sample reused across deliveries. The
	// callback must not retain the pointer; samples are consumed
	// synchronously (the PMU interrupt-handler model).
	sampleBuf Sample

	// CorrectOffByOne enables the online previous-instruction fix for
	// imprecise-IP mechanisms, at Costs.OffByOneFix per sample. The
	// paper notes this is expensive on x86 and better done postmortem
	// (Section 8, footnote 3).
	CorrectOffByOne bool

	costs Costs

	// Counters the profiler reads back.
	samplesTaken     uint64
	sampledInstr     uint64 // I^s: all sampled instructions (incl. non-memory)
	sampledRemote    uint64
	sampledRemoteLat units.Cycles

	// stopped detaches the monitor mid-run: no further observation,
	// sampling, or overhead charging. Counters freeze at their values
	// as of the stop (the converge-early window).
	stopped bool
}

// NewMonitor builds a Monitor. cb may be nil (counting only). The
// callback receives a pointer into a buffer reused across deliveries:
// samples are consumed synchronously, and a callback that keeps one
// must copy the value.
func NewMonitor(mech Mechanism, prog *isa.Program, cb func(*Sample)) *Monitor {
	m := &Monitor{
		prog:            prog,
		cb:              cb,
		CorrectOffByOne: true,
	}
	m.SetMechanism(mech)
	return m
}

// Mechanism returns the monitored mechanism.
func (m *Monitor) Mechanism() Mechanism { return m.mech }

// SetMechanism swaps the monitored mechanism mid-run — the profiler's
// fallback path when the configured sampler hard-fails. The overhead
// model follows the new mechanism; accumulated counters carry over.
func (m *Monitor) SetMechanism(mech Mechanism) {
	m.mech = mech
	m.costs = DefaultCosts(mech.Name())
	m.caps = mech.Caps()
	m.tr, _ = mech.(SampleTransformer)
}

// SamplesTaken returns the total number of samples delivered.
func (m *Monitor) SamplesTaken() uint64 { return m.samplesTaken }

// SampledInstructions returns I^s, the Equation 2 denominator.
func (m *Monitor) SampledInstructions() uint64 { return m.sampledInstr }

// SampledRemoteLatency returns l^s_NUMA, the accumulated latency of
// sampled remote accesses (zero for mechanisms without latency).
func (m *Monitor) SampledRemoteLatency() units.Cycles { return m.sampledRemoteLat }

// SampledRemote returns E^s_NUMA, the number of sampled remote events.
func (m *Monitor) SampledRemote() uint64 { return m.sampledRemote }

// StopSampling detaches the monitor for the rest of the run: no
// further samples fire and no further monitoring overhead is charged.
// Used by the profiler's converge-early policy once the live metric
// estimates stabilize — the whole point of stopping is that the
// remaining execution proceeds unmonitored and untaxed.
func (m *Monitor) StopSampling() { m.stopped = true }

// OnAccess implements proc.Hook.
func (m *Monitor) OnAccess(ev *proc.AccessEvent) {
	if m.stopped {
		return
	}
	if m.costs.PerAccess > 0 {
		// Instrumentation-based sampling pays on every access.
		ev.Thread.AddOverhead(m.costs.PerAccess)
	}
	out := m.mech.ObserveAccess(ev)
	if out.Overhead > 0 {
		ev.Thread.AddOverhead(out.Overhead)
	}
	if !out.Sampled {
		return
	}
	m.deliverSample(ev)
}

// deliverSample captures a sample for a fired access and delivers it:
// the tail of the PMU interrupt handler, kept out of OnAccess because
// most accesses do not fire.
func (m *Monitor) deliverSample(ev *proc.AccessEvent) {
	cost := m.costs.PerSample
	caps := m.caps
	s := &m.sampleBuf
	*s = Sample{
		ThreadID:    ev.Thread.ID,
		CPU:         ev.Thread.CPU,
		IP:          ev.Site,
		PreciseIP:   caps.PreciseIP,
		HasEA:       true,
		EA:          ev.EA,
		IsStore:     ev.IsStore,
		Source:      ev.Source,
		Home:        ev.Home,
		FirstTouch:  ev.FirstTouch,
		Region:      ev.Region,
		RegionValid: ev.RegionValid,
	}
	if caps.MeasuresLatency {
		s.HasLatency = true
		s.Latency = ev.Latency
	}
	if !caps.PreciseIP {
		// The PMU reported the *next* instruction; model that and, if
		// configured, pay for the online correction that walks the
		// binary back to the previous instruction.
		s.IP = ev.Site + 1
		if m.CorrectOffByOne {
			if prev, ok := m.prog.PrevSite(s.IP); ok {
				s.IP = prev.ID
				s.PreciseIP = true
			}
			cost += m.costs.OffByOneFix
		}
	}
	ev.Thread.AddOverhead(cost)

	if m.tr != nil && !m.tr.TransformSample(s) {
		// Captured but lost before delivery: the cost was paid, but
		// the sample must not count toward I^s or reach the profiler.
		return
	}

	m.samplesTaken++
	m.sampledInstr++
	if s.Source.IsRemote() {
		m.sampledRemote++
		if s.HasLatency {
			m.sampledRemoteLat += s.Latency
		}
	}
	if m.cb != nil {
		m.cb(s)
	}
}

// OnCompute implements proc.Hook: instruction-sampling mechanisms may
// fire inside a compute batch, yielding samples with no effective
// address. Those samples still count toward I^s — they are what lets
// Equation 2's denominator represent all instructions.
func (m *Monitor) OnCompute(t *proc.Thread, n uint64) {
	if m.stopped {
		return
	}
	samples, overhead := m.mech.ObserveCompute(t, n)
	if overhead > 0 {
		t.AddOverhead(overhead)
	}
	for i := 0; i < samples; i++ {
		cost := m.costs.PerSample
		if !m.caps.PreciseIP && m.CorrectOffByOne {
			cost += m.costs.OffByOneFix
		}
		t.AddOverhead(cost)
		s := &m.sampleBuf
		*s = Sample{
			ThreadID:  t.ID,
			CPU:       t.CPU,
			IP:        isa.NoSite,
			PreciseIP: m.caps.PreciseIP,
		}
		if m.tr != nil && !m.tr.TransformSample(s) {
			continue
		}
		m.samplesTaken++
		m.sampledInstr++
		if m.cb != nil {
			m.cb(s)
		}
	}
}

// DefaultCosts returns the overhead model for a mechanism by name. The
// constants are calibrated so the reproduction's Table 2 preserves the
// paper's overhead ordering: Soft-IBS >> PEBS > IBS > {MRK, DEAR,
// PEBS-LL}.
func DefaultCosts(name string) Costs {
	switch name {
	case "IBS":
		// Samples every kind of instruction at a high rate; software
		// must filter non-memory samples (Section 10). The cost per
		// usable sample is therefore high.
		return Costs{PerSample: 1200}
	case "MRK":
		return Costs{PerSample: 350}
	case "PEBS":
		// Off-by-one correction by online binary analysis dominates
		// (Section 8: second-highest overhead).
		return Costs{PerSample: 1200, OffByOneFix: 1300}
	case "DEAR":
		return Costs{PerSample: 3000}
	case "PEBS-LL":
		return Costs{PerSample: 3000}
	case "Soft-IBS":
		// Instrumentation stub on every load and store. The constant
		// is scaled up with the simulator's compressed instruction
		// streams (compute batches stand for many instructions), so
		// the *relative* tax matches the paper's triple-digit
		// percentages on memory-bound codes.
		return Costs{PerSample: 300, PerAccess: 160}
	default:
		return Costs{PerSample: 300}
	}
}

// ByName constructs a mechanism by its short name with the given
// period (0 means the mechanism's scaled default). Recognised names:
// IBS, MRK, PEBS, DEAR, PEBS-LL, Soft-IBS.
func ByName(name string, period uint64) (Mechanism, error) {
	switch name {
	case "IBS":
		return NewIBS(period), nil
	case "MRK":
		return NewMRK(period), nil
	case "PEBS":
		return NewPEBS(period), nil
	case "DEAR":
		return NewDEAR(period), nil
	case "PEBS-LL":
		return NewPEBSLL(period), nil
	case "Soft-IBS":
		return NewSoftIBS(period), nil
	default:
		return nil, fmt.Errorf("pmu: unknown mechanism %q", name)
	}
}

// Names lists the mechanisms in Table 1 order.
func Names() []string {
	return []string{"IBS", "MRK", "PEBS", "DEAR", "PEBS-LL", "Soft-IBS"}
}
