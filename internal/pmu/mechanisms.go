package pmu

import (
	"repro/internal/proc"
	"repro/internal/units"
)

// periodCounter tracks per-thread event counts and reports period
// crossings. Real PMUs count per hardware thread; the slice is indexed
// by thread id and grown on demand.
//
// The next sampling threshold is jittered around the nominal period
// with a per-thread deterministic LCG, as real PMU drivers randomize
// periods: without jitter, deterministic sampling aliases with loop
// periodicity and systematically misses (or over-samples) instructions
// at fixed phases — violating the paper's requirement that "memory
// accesses are uniformly sampled" (Section 3).
type periodCounter struct {
	counts []ctrState
}

type ctrState struct {
	count uint64
	next  uint64
	rng   uint64
}

// jitterNext draws the next threshold uniformly from
// [3/4 period, 5/4 period).
func jitterNext(period uint64, rng *uint64) uint64 {
	*rng = *rng*6364136223846793005 + 1442695040888963407
	span := period / 2
	if span == 0 {
		return period
	}
	return period - period/4 + (*rng>>33)%span
}

// add credits n events to thread tid and returns how many times the
// sampling threshold was crossed (i.e., how many samples fire). The
// table grows on demand, and growth seeds each new slot from its index,
// so a slot's content is a pure function of tid: it does not matter
// when a slot is first materialized.
func (p *periodCounter) add(tid int, n, period uint64) int {
	if period == 0 {
		return 0
	}
	for tid >= len(p.counts) {
		s := ctrState{rng: uint64(len(p.counts))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
		s.next = jitterNext(period, &s.rng)
		p.counts = append(p.counts, s)
	}
	st := &p.counts[tid]
	st.count += n
	fired := 0
	for st.count >= st.next {
		st.count -= st.next
		st.next = jitterNext(period, &st.rng)
		fired++
	}
	return fired
}

// IBS is AMD instruction-based sampling: the PMU tags every Nth
// instruction of *any* kind and reports its IP, effective address (for
// memory ops), data source, and latency. Because non-memory samples
// must be filtered in software, IBS's usable-sample cost is high
// relative to event-based mechanisms (Section 10), but it is the
// mechanism that makes the Equation 2 lpi estimator possible: sampled
// instructions represent all instructions.
type IBS struct {
	period uint64
	ctr    periodCounter
}

// DefaultIBSPeriod is the scaled operating period for simulated
// workloads; the paper ran IBS at one sample per 64K instructions.
const DefaultIBSPeriod = 2048

// NewIBS creates an IBS instance. period 0 selects the scaled default.
func NewIBS(period uint64) *IBS {
	if period == 0 {
		period = DefaultIBSPeriod
	}
	return &IBS{period: period}
}

// Name implements Mechanism.
func (*IBS) Name() string { return "IBS" }

// Caps implements Mechanism.
func (*IBS) Caps() Capability {
	return Capability{
		SamplesAllInstructions: true,
		MeasuresLatency:        true,
		PreciseIP:              true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*IBS) PaperConfig() Config {
	return Config{Event: "IBS op", Period: 64 * 1024, Machine: "amd-magny-cours-48"}
}

// Period implements Mechanism.
func (m *IBS) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism.
func (m *IBS) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism.
func (m *IBS) ObserveCompute(t *proc.Thread, n uint64) (int, units.Cycles) {
	return m.ctr.add(t.ID, n, m.period), 0
}

// MRK is IBM POWER marked-event sampling: the hardware marks an
// instruction stream sample and reports it only if it triggers the
// programmed event — here PM_MRK_FROM_L3MISS, an access satisfied
// beyond the local L3 (Section 8.4). MRK cannot measure latency in our
// capability model (the paper derives lpi only from IBS and PEBS-LL),
// but it highlights problematic memory instructions at very low
// overhead because nothing else is ever sampled.
type MRK struct {
	period uint64
	ctr    periodCounter
}

// DefaultMRKPeriod is the scaled operating period. The paper programs
// period 1 but notes the hardware delivers fewer than 100 samples/s per
// thread; a period over marked events models that throttling.
const DefaultMRKPeriod = 32

// NewMRK creates an MRK instance. period 0 selects the scaled default.
func NewMRK(period uint64) *MRK {
	if period == 0 {
		period = DefaultMRKPeriod
	}
	return &MRK{period: period}
}

// Name implements Mechanism.
func (*MRK) Name() string { return "MRK" }

// Caps implements Mechanism.
func (*MRK) Caps() Capability {
	return Capability{
		EventBased: true,
		PreciseIP:  true,
		NUMAEvents: true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*MRK) PaperConfig() Config {
	return Config{Event: "PM_MRK_FROM_L3MISS", Period: 1, Machine: "ibm-power7-128"}
}

// Period implements Mechanism.
func (m *MRK) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism.
func (m *MRK) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	if !ev.Source.BeyondLocalL3() {
		return AccessOutcome{}
	}
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism: MRK never samples non-memory
// instructions.
func (m *MRK) ObserveCompute(*proc.Thread, uint64) (int, units.Cycles) { return 0, 0 }

// PEBS is Intel precise event-based sampling programmed on
// INST_RETIRED:ANY_P: like IBS it samples all instruction kinds, but
// the captured IP is off by one (the *next* instruction), and hpcrun
// compensates online with binary analysis — the reason PEBS shows the
// second-highest overhead in Table 2 (the paper's footnote 3 suggests
// doing the fix postmortem instead). PEBS does not measure latency.
type PEBS struct {
	period uint64
	ctr    periodCounter
}

// DefaultPEBSPeriod is the scaled operating period; the paper used
// 1,000,000 instructions.
const DefaultPEBSPeriod = 2048

// NewPEBS creates a PEBS instance. period 0 selects the scaled default.
func NewPEBS(period uint64) *PEBS {
	if period == 0 {
		period = DefaultPEBSPeriod
	}
	return &PEBS{period: period}
}

// Name implements Mechanism.
func (*PEBS) Name() string { return "PEBS" }

// Caps implements Mechanism.
func (*PEBS) Caps() Capability {
	return Capability{
		SamplesAllInstructions: true,
		EventBased:             true,
		PreciseIP:              false, // off-by-one
		NUMAEvents:             true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*PEBS) PaperConfig() Config {
	return Config{Event: "INST_RETIRED:ANY_P", Period: 1000000, Machine: "intel-harpertown-8"}
}

// Period implements Mechanism.
func (m *PEBS) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism.
func (m *PEBS) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism.
func (m *PEBS) ObserveCompute(t *proc.Thread, n uint64) (int, units.Cycles) {
	return m.ctr.add(t.ID, n, m.period), 0
}

// DEARLatencyThreshold is the qualifying latency for DEAR samples: the
// paper's DATA_EAR_CACHE_LAT4 event captures loads taking at least 4
// cycles; with our 4-cycle L1, that means anything missing L1.
const DEARLatencyThreshold units.Cycles = 8

// DEAR is Itanium data-event-address-register sampling: it samples
// loads whose latency exceeds a threshold and records their addresses.
// DEAR has no NUMA-specific events and, in our capability model, does
// not deliver usable latency for lpi (Section 10).
type DEAR struct {
	period uint64
	ctr    periodCounter
}

// DefaultDEARPeriod is the scaled operating period; the paper used
// 20,000 events.
const DefaultDEARPeriod = 128

// NewDEAR creates a DEAR instance. period 0 selects the scaled default.
func NewDEAR(period uint64) *DEAR {
	if period == 0 {
		period = DefaultDEARPeriod
	}
	return &DEAR{period: period}
}

// Name implements Mechanism.
func (*DEAR) Name() string { return "DEAR" }

// Caps implements Mechanism.
func (*DEAR) Caps() Capability {
	return Capability{
		EventBased: true,
		PreciseIP:  true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*DEAR) PaperConfig() Config {
	return Config{Event: "DATA_EAR_CACHE_LAT4", Period: 20000, Machine: "intel-itanium2-8"}
}

// Period implements Mechanism.
func (m *DEAR) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism: loads above the latency
// threshold qualify.
func (m *DEAR) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	if ev.IsStore || ev.Latency < DEARLatencyThreshold {
		return AccessOutcome{}
	}
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism.
func (m *DEAR) ObserveCompute(*proc.Thread, uint64) (int, units.Cycles) { return 0, 0 }

// PEBSLLLatencyThreshold is the qualifying latency for PEBS-LL: loads
// reaching at least the L3 (40 cycles in the default cache model),
// i.e., the accesses that could be NUMA-relevant.
const PEBSLLLatencyThreshold units.Cycles = 40

// PEBSLL is PEBS with the load-latency extension (Intel Nehalem and
// later): event-based sampling of loads above a latency threshold,
// with measured latency and a precise IP. Together with a conventional
// counter for total instructions it enables the Equation 3 lpi
// estimator.
type PEBSLL struct {
	period uint64
	ctr    periodCounter
}

// DefaultPEBSLLPeriod is the scaled operating period; the paper used
// 500,000 events.
const DefaultPEBSLLPeriod = 64

// NewPEBSLL creates a PEBS-LL instance. period 0 selects the scaled
// default.
func NewPEBSLL(period uint64) *PEBSLL {
	if period == 0 {
		period = DefaultPEBSLLPeriod
	}
	return &PEBSLL{period: period}
}

// Name implements Mechanism.
func (*PEBSLL) Name() string { return "PEBS-LL" }

// Caps implements Mechanism.
func (*PEBSLL) Caps() Capability {
	return Capability{
		EventBased:      true,
		MeasuresLatency: true,
		PreciseIP:       true,
		NUMAEvents:      true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*PEBSLL) PaperConfig() Config {
	return Config{Event: "LATENCY_ABOVE_THRESHOLD", Period: 500000, Machine: "intel-ivybridge-8"}
}

// Period implements Mechanism.
func (m *PEBSLL) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism.
func (m *PEBSLL) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	if ev.IsStore || ev.Latency < PEBSLLLatencyThreshold {
		return AccessOutcome{}
	}
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism.
func (m *PEBSLL) ObserveCompute(*proc.Thread, uint64) (int, units.Cycles) { return 0, 0 }

// SoftIBS is the software fallback of Section 3 for processors without
// address-sampling hardware: an LLVM pass instruments every load and
// store with a stub that the profiler overloads; the stub records every
// Nth access. The per-access stub cost dominates Table 2's overhead
// column (+200% on LULESH). CPU identification relies on the tool's
// static thread-to-core binding rather than a PMU-reported CPU id.
type SoftIBS struct {
	period uint64
	ctr    periodCounter
}

// DefaultSoftIBSPeriod is the scaled operating period; the paper used
// one record per 10,000,000 accesses.
const DefaultSoftIBSPeriod = 1024

// NewSoftIBS creates a Soft-IBS instance. period 0 selects the scaled
// default.
func NewSoftIBS(period uint64) *SoftIBS {
	if period == 0 {
		period = DefaultSoftIBSPeriod
	}
	return &SoftIBS{period: period}
}

// Name implements Mechanism.
func (*SoftIBS) Name() string { return "Soft-IBS" }

// Caps implements Mechanism.
func (*SoftIBS) Caps() Capability {
	return Capability{
		PreciseIP:               true,
		RequiresInstrumentation: true,
		RequiresThreadBinding:   true,
	}
}

// PaperConfig implements Mechanism (Table 1).
func (*SoftIBS) PaperConfig() Config {
	return Config{Event: "memory accesses", Period: 10000000, Machine: "amd-magny-cours-48"}
}

// Period implements Mechanism.
func (m *SoftIBS) Period() uint64 { return m.period }

// ObserveAccess implements Mechanism.
func (m *SoftIBS) ObserveAccess(ev *proc.AccessEvent) AccessOutcome {
	fired := m.ctr.add(ev.Thread.ID, 1, m.period)
	return AccessOutcome{Sampled: fired > 0}
}

// ObserveCompute implements Mechanism: only memory accesses are
// instrumented.
func (m *SoftIBS) ObserveCompute(*proc.Thread, uint64) (int, units.Cycles) { return 0, 0 }
