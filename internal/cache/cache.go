// Package cache simulates the cache hierarchy of a NUMA machine:
// private L1 and L2 caches per CPU and one shared L3 per NUMA domain.
//
// The hierarchy classifies each memory access by its *data source* —
// the level that finally satisfied it — which is exactly what hardware
// address sampling reports (IBS "data source", PEBS-LL "load latency
// data source", POWER7 marked-event source). Two paper-relevant
// behaviours emerge from the model:
//
//   - MRK-style samplers can restrict sampling to accesses whose source
//     is beyond the local L3 ("L3 miss" events, Section 8.4), and
//   - a variable homed in a remote domain can still be served by a
//     local cache after the first touch, the bias scenario Section 4.1
//     warns about when interpreting M_r.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
	"repro/internal/units"
)

// DataSource classifies where an access was satisfied.
type DataSource int

// Data sources, ordered from cheapest to most expensive.
const (
	SrcL1 DataSource = iota
	SrcL2
	SrcL3          // local domain's shared L3
	SrcRemoteCache // remote domain's shared L3
	SrcLocalDRAM
	SrcRemoteDRAM
)

// String returns the conventional name of the data source.
func (s DataSource) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcRemoteCache:
		return "RMT_CACHE"
	case SrcLocalDRAM:
		return "LCL_DRAM"
	case SrcRemoteDRAM:
		return "RMT_DRAM"
	default:
		return fmt.Sprintf("DataSource(%d)", int(s))
	}
}

// IsRemote reports whether the access crossed a domain boundary: a
// remote cache hit or remote DRAM access. These are the accesses whose
// latency accumulates into l_NUMA in the paper's Equation 1.
func (s DataSource) IsRemote() bool { return s == SrcRemoteCache || s == SrcRemoteDRAM }

// BeyondLocalL3 reports whether the access missed the entire local
// hierarchy (L1, L2, local L3). POWER7's PM_MRK_FROM_L3MISS marked
// event fires exactly for these accesses.
func (s DataSource) BeyondLocalL3() bool {
	return s == SrcRemoteCache || s == SrcLocalDRAM || s == SrcRemoteDRAM
}

// Config describes the geometry and on-chip latencies of the hierarchy.
// All caches use LRU replacement; sizes must be powers of two.
type Config struct {
	LineSize units.Bytes

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	L3Sets, L3Ways int

	// Hit latencies per level.
	L1Latency, L2Latency, L3Latency units.Cycles
	// RemoteCacheLatency is the extra snoop cost of hitting a remote
	// L3, on top of the fabric hop.
	RemoteCacheLatency units.Cycles
}

// DefaultConfig returns a deliberately small hierarchy (16 KiB L1,
// 128 KiB L2, 2 MiB shared L3) so simulated working sets in the tens of
// megabytes behave like real working sets in the gigabytes: large array
// sweeps miss, hot scalars hit.
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		L1Sets:   32, L1Ways: 8, // 16 KiB
		L2Sets: 256, L2Ways: 8, // 128 KiB
		L3Sets: 2048, L3Ways: 16, // 2 MiB
		L1Latency:          4,
		L2Latency:          12,
		L3Latency:          40,
		RemoteCacheLatency: 40,
	}
}

// setAssoc is one set-associative cache with exact LRU replacement. It
// stores only tags; the simulator never needs the data itself.
type setAssoc struct {
	// sets holds ways tags per set in MRU-first order; zero means
	// empty (tag values are offset by 1 to distinguish empty slots).
	sets      []uint64
	ways      int
	setMask   uint64
	lineShift uint // log2(lineSize)
}

func newSetAssoc(sets, ways int, lineSize units.Bytes) *setAssoc {
	if sets <= 0 || ways <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: invalid geometry sets=%d ways=%d", sets, ways))
	}
	ls := uint(bits.TrailingZeros64(uint64(lineSize)))
	return &setAssoc{
		sets:      make([]uint64, sets*ways),
		ways:      ways,
		lineShift: ls,
		setMask:   uint64(sets - 1),
	}
}

// access looks up addr, returning true on hit. Hit or miss, the line
// becomes most-recently-used; on miss the LRU way is evicted.
func (c *setAssoc) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line + 1 // offset so 0 means empty
	base := set * c.ways
	// Full slice expression so the loop below runs over a slice whose
	// bounds the compiler can prove once.
	ways := c.sets[base : base+c.ways : base+c.ways]
	if ways[0] == tag {
		return true // MRU hit: the order does not change
	}
	// Move to front in one pass: put the tag in front and shift each way
	// down a slot until the tag's old slot turns up (a hit) or the LRU
	// way falls off the end (a miss). The MRU test above is what makes
	// this correct: a tag already in front would be shifted into way 1
	// as well.
	prev := ways[0]
	ways[0] = tag
	for i := 1; i < len(ways); i++ {
		cur := ways[i]
		ways[i] = prev
		if cur == tag {
			return true
		}
		prev = cur
	}
	return false
}

// Result describes one access through the hierarchy.
type Result struct {
	// Source is the level that satisfied the access.
	Source DataSource
	// OnChipLatency is the latency contribution of the cache levels
	// themselves (hit latency, or the lookup cost incurred before
	// going to DRAM). DRAM and fabric costs are added by the caller
	// from the mem and interconnect models so that contention can be
	// applied there.
	OnChipLatency units.Cycles
}

// Hierarchy is the full cache system of one machine.
type Hierarchy struct {
	cfg  Config
	topo *topology.Machine
	l1   []*setAssoc // per CPU
	l2   []*setAssoc // per CPU
	l3   []*setAssoc // per domain
}

// NewHierarchy builds the caches for a machine.
func NewHierarchy(topo *topology.Machine, cfg Config) *Hierarchy {
	if cfg.LineSize == 0 {
		cfg = DefaultConfig()
	}
	h := &Hierarchy{cfg: cfg, topo: topo}
	for i := 0; i < topo.NumCPUs(); i++ {
		h.l1 = append(h.l1, newSetAssoc(cfg.L1Sets, cfg.L1Ways, cfg.LineSize))
		h.l2 = append(h.l2, newSetAssoc(cfg.L2Sets, cfg.L2Ways, cfg.LineSize))
	}
	for i := 0; i < topo.NumDomains(); i++ {
		h.l3 = append(h.l3, newSetAssoc(cfg.L3Sets, cfg.L3Ways, cfg.LineSize))
	}
	return h
}

// Access simulates one access by the given CPU to addr, where the page
// containing addr is homed in homeDomain. It returns the data source
// and on-chip latency. Access is NOT safe for concurrent use; the
// execution engine serialises accesses (see internal/proc).
//
// Degraded inputs never panic and never hide remote traffic: a CPU the
// topology does not map (negative or beyond NumCPUs) has no private
// caches or local L3 to probe, so its accesses classify purely by the
// page's home — SrcRemoteDRAM whenever homeDomain is valid (the access
// cannot be proven local), SrcLocalDRAM only when the home is unknown
// too.
func (h *Hierarchy) Access(cpu topology.CPUID, addr uint64, homeDomain topology.DomainID) Result {
	local := h.topo.DomainOfCPU(cpu)
	if cpu >= 0 && int(cpu) < len(h.l1) {
		if h.l1[cpu].access(addr) {
			return Result{SrcL1, h.cfg.L1Latency}
		}
		if h.l2[cpu].access(addr) {
			return Result{SrcL2, h.cfg.L2Latency}
		}
	}
	if local >= 0 && int(local) < len(h.l3) && h.l3[local].access(addr) {
		return Result{SrcL3, h.cfg.L3Latency}
	}
	// Missed the whole local hierarchy. Lookup cost so far:
	lookup := h.cfg.L3Latency
	if homeDomain != local && homeDomain >= 0 && int(homeDomain) < len(h.l3) {
		// Snoop the home domain's L3 (a crude directory model: remote
		// data may be resident in its home L3 because the owner
		// domain's threads also touch it).
		if h.l3[homeDomain].access(addr) {
			return Result{SrcRemoteCache, lookup + h.cfg.RemoteCacheLatency}
		}
	}
	// DRAM classification. A valid home that differs from the
	// accessing domain is remote — including when the CPU's own domain
	// is unknown (local == NoDomain), where claiming SrcLocalDRAM
	// would misclassify remote traffic as local. Only an unknown home
	// falls back to the local-DRAM cost model (mem.DRAMLatency applies
	// the same NoDomain convention).
	if homeDomain == topology.NoDomain || local == homeDomain {
		return Result{SrcLocalDRAM, lookup}
	}
	return Result{SrcRemoteDRAM, lookup}
}
