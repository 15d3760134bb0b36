// Package mem models the physical memory system of a simulated NUMA
// machine: per-domain memory controllers, DRAM access latency, and the
// contention that arises when memory requests are unevenly distributed
// across domains.
//
// The model captures the two phenomena Section 2 of the paper is built
// around:
//
//   - remote accesses cost more than local ones (the paper cites >30%
//     higher latency, and our distance-scaled model reproduces that),
//     and
//   - an uneven distribution of requests saturates the controller of
//     the overloaded domain, inflating latency by up to ~5x (the paper
//     cites Dashti et al. [7] for the factor-of-five figure).
//
// Contention is computed per "epoch" (one parallel region of the
// simulated program): callers record every request during the epoch,
// then ask for the contention factor of each domain when the epoch
// ends. This two-phase protocol keeps the simulation deterministic
// regardless of the order in which threads are simulated.
//
// A System has a single owner: the proc.Engine that built it, driven
// from that engine's goroutine (see package proc). Its counters are
// plain integers and it takes no locks, so it must not be used from two
// goroutines at once.
package mem

import (
	"fmt"
	"math"

	"repro/internal/topology"
	"repro/internal/units"
)

// LatencyParams configures the DRAM latency model.
type LatencyParams struct {
	// LocalDRAM is the unloaded local memory access latency.
	LocalDRAM units.Cycles
	// MaxContentionFactor caps the latency inflation a saturated
	// controller can impose. The paper cites a factor of five.
	MaxContentionFactor float64
	// ContentionExponent shapes how quickly overload translates into
	// latency: factor = min(max, overload^exponent) for overload > 1.
	ContentionExponent float64
}

// DefaultLatencyParams returns the model used throughout the
// reproduction: 100-cycle unloaded local DRAM latency and a contention
// cap of 5x.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		LocalDRAM:           100,
		MaxContentionFactor: 5.0,
		ContentionExponent:  0.75,
	}
}

// System is the memory system of one machine: one controller per NUMA
// domain plus the latency model.
type System struct {
	topo   *topology.Machine
	params LatencyParams

	// epoch request counters, one per domain.
	epochRequests []uint64
	// lifetime totals per domain, for whole-run balance reporting.
	totalRequests []uint64

	// epochFactors is the scratch EndEpoch reuses, so the per-region
	// call allocates nothing in steady state.
	epochFactors []float64
}

// NewSystem creates the memory system for a machine.
func NewSystem(topo *topology.Machine, params LatencyParams) *System {
	if params.LocalDRAM == 0 {
		params = DefaultLatencyParams()
	}
	return &System{
		topo:          topo,
		params:        params,
		epochRequests: make([]uint64, topo.NumDomains()),
		totalRequests: make([]uint64, topo.NumDomains()),
		epochFactors:  make([]float64, topo.NumDomains()),
	}
}

// RecordRequest notes one DRAM request served by domain d during the
// current epoch. Invalid domain ids are ignored.
func (s *System) RecordRequest(d topology.DomainID) {
	if d < 0 || int(d) >= len(s.epochRequests) {
		return
	}
	s.epochRequests[d]++
	s.totalRequests[d]++
}

// TotalsByDomain returns a copy of the lifetime per-domain request
// counts, indexed by domain id. This is the raw material for the
// paper's "imbalanced requests" analysis (Section 4.1).
func (s *System) TotalsByDomain() []uint64 {
	return append([]uint64(nil), s.totalRequests...)
}

// EndEpoch computes the contention factor for every domain from the
// requests recorded since the last EndEpoch, resets the epoch counters,
// and returns the factors indexed by domain id. The returned slice is
// reused by the next EndEpoch call; callers that need it longer must
// copy it.
//
// The factor for a domain is 1.0 when requests are evenly spread (or
// absent) and grows toward MaxContentionFactor as the domain's share of
// traffic exceeds its fair share 1/NumDomains. With every request
// aimed at one domain of an 8-domain machine, overload = 8 and the
// factor saturates at the cap — the factor-of-five scenario from the
// paper's Figure 1 "all data in domain 1" distribution.
func (s *System) EndEpoch() []float64 {
	n := len(s.epochRequests)
	var total uint64
	for _, c := range s.epochRequests {
		total += c
	}
	factors := s.epochFactors
	for i, c := range s.epochRequests {
		factors[i] = s.contentionFactor(c, total, n)
		s.epochRequests[i] = 0
	}
	return factors
}

func (s *System) contentionFactor(count, total uint64, domains int) float64 {
	if total == 0 || count == 0 || domains <= 1 {
		return 1.0
	}
	share := float64(count) / float64(total)
	overload := share * float64(domains)
	if overload <= 1 {
		return 1.0
	}
	f := math.Pow(overload, s.params.ContentionExponent)
	if f > s.params.MaxContentionFactor {
		f = s.params.MaxContentionFactor
	}
	if f < 1 {
		f = 1
	}
	return f
}

// DRAMLatency returns the unloaded DRAM latency for an access issued by
// a CPU in domain `from` to memory homed in domain `to`. The latency is
// the local cost scaled by the SLIT distance ratio, so a distance-16
// remote hop costs 1.6x the local access — comfortably above the
// paper's ">30% higher" observation. An id outside the machine,
// NoDomain included, reads the local cost.
func (s *System) DRAMLatency(from, to topology.DomainID) units.Cycles {
	base := s.params.LocalDRAM
	n := topology.DomainID(s.topo.NumDomains())
	if from == to || from < 0 || from >= n || to < 0 || to >= n {
		return base
	}
	ratio := float64(s.topo.Distance(from, to)) / 10.0
	return base.Scale(ratio)
}

// Imbalance summarises how unevenly lifetime requests are spread over
// domains: it returns the ratio of the maximum per-domain count to the
// mean. 1.0 means perfectly balanced; NumDomains means fully
// centralised. Returns 0 if no requests were recorded.
func (s *System) Imbalance() float64 {
	counts := s.TotalsByDomain()
	var total, max uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}

// String describes the system briefly.
func (s *System) String() string {
	return fmt.Sprintf("mem.System(%s, local=%v, cap=%.1fx)",
		s.topo.Name, s.params.LocalDRAM, s.params.MaxContentionFactor)
}
