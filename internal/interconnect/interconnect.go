// Package interconnect models the links between NUMA domains: the
// HyperTransport / QPI / PowerBus-style fabric a remote memory access
// must cross. Each ordered pair of distinct domains has a link with a
// base crossing latency and per-epoch traffic accounting; when a link
// carries far more than its fair share of the epoch's remote traffic,
// its latency inflates, modelling bandwidth saturation between domains
// (the second NUMA bottleneck of Section 2 of the paper).
//
// Like the memory controllers in package mem, traffic is recorded
// during an epoch (one parallel region) and the congestion factors are
// computed deterministically when the epoch ends.
//
// A Fabric has a single owner: the proc.Engine that built it, driven
// from that engine's goroutine (see package proc). Its counters are
// plain integers and it takes no locks, so it must not be used from two
// goroutines at once.
package interconnect

import (
	"fmt"
	"math"

	"repro/internal/topology"
	"repro/internal/units"
)

// Params configures the link model.
type Params struct {
	// HopLatency is the unloaded cost of crossing one link.
	HopLatency units.Cycles
	// MaxCongestionFactor caps latency inflation on a saturated link.
	MaxCongestionFactor float64
	// CongestionExponent shapes the overload->factor curve.
	CongestionExponent float64
}

// DefaultParams returns the model used throughout the reproduction:
// a 60-cycle unloaded hop and a 4x congestion cap.
func DefaultParams() Params {
	return Params{
		HopLatency:          60,
		MaxCongestionFactor: 4.0,
		CongestionExponent:  0.6,
	}
}

// Fabric is the interconnect of one machine.
type Fabric struct {
	topo   *topology.Machine
	params Params
	n      int

	// epoch and lifetime traffic per directed link, flattened as
	// from*n+to. The diagonal (from==to) stays zero: local accesses
	// never cross the fabric.
	epoch []uint64
	total []uint64

	// factors is the matrix EndEpoch returns, its rows slices of one
	// backing array; it is reused by every call, so the per-region
	// EndEpoch allocates nothing.
	factors [][]float64
}

// New creates the fabric for a machine.
func New(topo *topology.Machine, params Params) *Fabric {
	if params.HopLatency == 0 {
		params = DefaultParams()
	}
	n := topo.NumDomains()
	f := &Fabric{
		topo:    topo,
		params:  params,
		n:       n,
		epoch:   make([]uint64, n*n),
		total:   make([]uint64, n*n),
		factors: make([][]float64, n),
	}
	backing := make([]float64, n*n)
	for from := range f.factors {
		f.factors[from] = backing[from*n : (from+1)*n : (from+1)*n]
	}
	return f
}

func (f *Fabric) idx(from, to topology.DomainID) int { return int(from)*f.n + int(to) }

func (f *Fabric) validPair(from, to topology.DomainID) bool {
	return from >= 0 && to >= 0 && int(from) < f.n && int(to) < f.n && from != to
}

// RecordTransfer notes one remote memory transfer crossing the link
// from -> to during the current epoch. Local pairs and invalid ids are
// ignored.
func (f *Fabric) RecordTransfer(from, to topology.DomainID) {
	if !f.validPair(from, to) {
		return
	}
	i := f.idx(from, to)
	f.epoch[i]++
	f.total[i]++
}

// TotalTraffic returns the lifetime transfer count on link from->to.
func (f *Fabric) TotalTraffic(from, to topology.DomainID) uint64 {
	if !f.validPair(from, to) {
		return 0
	}
	return f.total[f.idx(from, to)]
}

// HopLatency returns the unloaded fabric-crossing latency for the
// ordered pair, scaled by topological distance (zero for local pairs).
func (f *Fabric) HopLatency(from, to topology.DomainID) units.Cycles {
	if !f.validPair(from, to) {
		return 0
	}
	ratio := float64(f.topo.Distance(from, to)) / 16.0
	return f.params.HopLatency.Scale(ratio)
}

// EndEpoch computes per-link congestion factors from the traffic
// recorded since the last EndEpoch, resets the epoch counters, and
// returns the factors as a matrix indexed [from][to]. The matrix is
// reused by the next EndEpoch call; callers that need it longer must
// copy it. A link carrying its fair share (total remote traffic /
// number of links) or less gets factor 1.0; heavier links inflate
// toward the cap.
//
// The classic saturation case — many domains all reading one domain's
// memory — loads all n-1 links *into* that domain, so every reader sees
// inflated crossing latency on top of the hot controller's own
// contention from package mem.
func (f *Fabric) EndEpoch() [][]float64 {
	links := f.n * (f.n - 1)
	var total uint64
	for _, c := range f.epoch {
		total += c
	}
	for from, row := range f.factors {
		for to := range row {
			i := from*f.n + to
			row[to] = f.congestionFactor(f.epoch[i], total, links)
			f.epoch[i] = 0
		}
	}
	return f.factors
}

func (f *Fabric) congestionFactor(count, total uint64, links int) float64 {
	if total == 0 || count == 0 || links <= 1 {
		return 1.0
	}
	fair := float64(total) / float64(links)
	overload := float64(count) / fair
	if overload <= 1 {
		return 1.0
	}
	c := math.Pow(overload, f.params.CongestionExponent)
	if c > f.params.MaxCongestionFactor {
		c = f.params.MaxCongestionFactor
	}
	return c
}

// String describes the fabric briefly.
func (f *Fabric) String() string {
	return fmt.Sprintf("interconnect.Fabric(%s, hop=%v, cap=%.1fx)",
		f.topo.Name, f.params.HopLatency, f.params.MaxCongestionFactor)
}
