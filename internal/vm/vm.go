// Package vm implements the virtual memory system of the simulated
// machine: a flat 64-bit address space carved into 4 KiB pages, page
// placement policies (Linux-style first touch, interleaving, explicit
// node binding, and block-wise distribution), page protection with
// SIGSEGV-style fault delivery, and the page-to-domain queries that
// libnuma's move_pages exposes.
//
// First-touch is the load-bearing policy: as Section 2 of the paper
// explains, Linux binds a freshly allocated page to the domain of the
// thread that first reads or writes it, so a serial initialisation loop
// silently homes an entire array in the master thread's domain. Every
// case study in Section 8 traces back to this mechanism, and the
// tool's first-touch pinpointing (Section 6) is built on page
// protection, which this package also provides.
package vm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/topology"
	"repro/internal/units"
)

// Protection is a page's access permission bits.
type Protection uint8

// Protection bits.
const (
	ProtRead Protection = 1 << iota
	ProtWrite

	// ProtNone masks off all access: any touch faults.
	ProtNone Protection = 0
	// ProtRW is the default for fresh allocations.
	ProtRW Protection = ProtRead | ProtWrite
)

// Policy tells the address space how to home the pages of an
// allocation.
type Policy interface {
	// PlacePage decides the home domain for the page at index
	// pageIdx (0-based within the allocation, of nPages total) when
	// it is first touched by a thread running in touchDomain.
	// Returning topology.NoDomain defers to first-touch (home the
	// page where the toucher runs).
	PlacePage(pageIdx, nPages uint64, touchDomain topology.DomainID) topology.DomainID
	// Name identifies the policy in profiles and reports.
	Name() string
}

// FirstTouch is the Linux default: a page is homed in the domain of the
// first thread to touch it.
type FirstTouch struct{}

// PlacePage implements Policy by deferring to the toucher's domain.
func (FirstTouch) PlacePage(_, _ uint64, touch topology.DomainID) topology.DomainID {
	return touch
}

// Name implements Policy.
func (FirstTouch) Name() string { return "first-touch" }

// Interleaved spreads pages round-robin over a set of domains,
// regardless of who touches them, like numactl --interleave /
// numa_alloc_interleaved.
type Interleaved struct {
	// Domains to rotate over. Empty means all domains of the machine;
	// the address space substitutes its full domain list.
	Domains []topology.DomainID
}

// PlacePage implements Policy.
func (p Interleaved) PlacePage(pageIdx, _ uint64, _ topology.DomainID) topology.DomainID {
	if len(p.Domains) == 0 {
		return topology.NoDomain // resolved by AddressSpace before use
	}
	return p.Domains[pageIdx%uint64(len(p.Domains))]
}

// Name implements Policy.
func (p Interleaved) Name() string { return "interleaved" }

// OnNode binds every page of the allocation to one domain, like
// numa_alloc_onnode.
type OnNode struct {
	Domain topology.DomainID
}

// PlacePage implements Policy.
func (p OnNode) PlacePage(_, _ uint64, _ topology.DomainID) topology.DomainID { return p.Domain }

// Name implements Policy.
func (p OnNode) Name() string { return fmt.Sprintf("on-node-%d", p.Domain) }

// Blocked distributes the allocation's pages block-wise over a domain
// list: the first 1/n of the pages to Domains[0], the next 1/n to
// Domains[1], and so on. This is the paper's recommended co-location
// fix for LULESH's z array and AMG's RAP_diag_data (Sections 8.1-8.2):
// when thread t works on block t, block-wise placement makes every
// access local.
type Blocked struct {
	Domains []topology.DomainID
}

// PlacePage implements Policy.
func (p Blocked) PlacePage(pageIdx, nPages uint64, _ topology.DomainID) topology.DomainID {
	if len(p.Domains) == 0 || nPages == 0 {
		return topology.NoDomain
	}
	n := uint64(len(p.Domains))
	// Block b covers pages [b*nPages/n, (b+1)*nPages/n).
	b := pageIdx * n / nPages
	if b >= n {
		b = n - 1
	}
	return p.Domains[b]
}

// Name implements Policy.
func (p Blocked) Name() string { return "blocked" }

// Fault describes a protection violation, mirroring the information a
// SIGSEGV handler receives: the faulting address (siginfo si_addr) and
// whether the access was a write.
type Fault struct {
	Addr    uint64
	IsWrite bool
	// Region is the allocation containing the fault, if any.
	Region Region
}

// FaultHandler is invoked synchronously when an access hits a protected
// page, before the access is retried. It plays the role of the tool's
// SIGSEGV handler (Section 6): it must unprotect the page (or the
// access will fault forever) and may record attributions.
type FaultHandler func(Fault)

// Region is one allocation in the address space.
type Region struct {
	// Base is the first address; allocations are page-aligned.
	Base uint64
	// Size is the requested length in bytes.
	Size uint64
	// ID is a dense allocation identifier (0, 1, 2, ...).
	ID int
}

// End returns one past the last address of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// Valid reports whether the region denotes a real allocation.
func (r Region) Valid() bool { return r.Size > 0 }

// page holds per-page state.
type page struct {
	home topology.DomainID
	// region is the ID of the allocation owning the page, or noRegion
	// for guard pages and pages of freed allocations.
	region  int32
	prot    Protection
	touched bool
}

// noRegion marks a page-table entry no live allocation owns.
const noRegion = -1

// AddressSpace is the simulated process's virtual memory.
type AddressSpace struct {
	mu   sync.Mutex
	topo *topology.Machine

	next uint64 // bump allocator cursor, page aligned
	// pages is the dense page table: pages[i] describes the page at
	// heapBase + i*PageSize. The bump allocator keeps the heap
	// contiguous, so the table covers every page handed out, guard
	// pages included, and resolving an address is one index — the
	// per-access path does no map lookup and no region search.
	pages   []page
	regions []Region
	// policies[regionID] homes pages of that region on first touch.
	policies []Policy
	// allDomains caches the machine's domain list for policies that
	// default to "all domains".
	allDomains []topology.DomainID

	handler FaultHandler

	// freed[regionID] marks freed regions, for use-after-free detection.
	freed []bool
}

// ErrOutOfRange is returned by operations on addresses outside any
// allocation.
var ErrOutOfRange = errors.New("vm: address outside any allocation")

// heapBase is where the simulated heap starts; a nonzero base keeps
// address 0 invalid, like a real process image. It is page aligned.
const heapBase = 0x10000

// heapPage is the page number of heapBase: page table index 0.
const heapPage = heapBase >> units.PageShift

// NewAddressSpace creates an empty address space for a machine.
func NewAddressSpace(topo *topology.Machine) *AddressSpace {
	as := &AddressSpace{
		topo: topo,
		next: heapBase,
	}
	for d := 0; d < topo.NumDomains(); d++ {
		as.allDomains = append(as.allDomains, topology.DomainID(d))
	}
	return as
}

// Topology returns the machine this address space lives on.
func (as *AddressSpace) Topology() *topology.Machine { return as.topo }

// SetFaultHandler installs the handler invoked on protected-page
// accesses. Passing nil removes the handler; protected accesses then
// behave as if unprotected (matching a program with no SIGSEGV handler
// installed by the tool).
func (as *AddressSpace) SetFaultHandler(h FaultHandler) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.handler = h
}

// Alloc reserves size bytes under the given placement policy and
// returns the region. The allocation is page-aligned and readable and
// writable. A nil policy means first-touch. Size zero returns an
// invalid region.
func (as *AddressSpace) Alloc(size uint64, policy Policy) Region {
	if size == 0 {
		return Region{}
	}
	if policy == nil {
		policy = FirstTouch{}
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	base := as.next
	nPages := units.PagesSpanned(base, size)
	as.next += nPages * uint64(units.PageSize)
	// Leave a guard page between allocations so adjacent regions never
	// share a page; this keeps move_pages-style per-variable queries
	// exact, as the paper's data-centric attribution requires.
	as.next += uint64(units.PageSize)
	r := Region{Base: base, Size: size, ID: len(as.regions)}
	as.regions = append(as.regions, r)
	as.policies = append(as.policies, policy)
	as.freed = append(as.freed, false)
	for i := uint64(0); i < nPages; i++ {
		as.pages = append(as.pages, page{home: topology.NoDomain, region: int32(r.ID), prot: ProtRW})
	}
	as.pages = append(as.pages, page{home: topology.NoDomain, region: noRegion, prot: ProtRW})
	return r
}

// Free releases a region. Its pages drop their homes; subsequent
// resolution of addresses inside it reports ErrOutOfRange.
func (as *AddressSpace) Free(r Region) {
	if !r.Valid() {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if r.ID < 0 || r.ID >= len(as.regions) || as.freed[r.ID] {
		return
	}
	as.freed[r.ID] = true
	// Clear the pages of the allocation as recorded, so a caller's
	// stale or forged Region cannot reset another allocation's pages.
	live := as.regions[r.ID]
	first := units.PageOf(live.Base) - heapPage
	last := units.PageOf(live.End()-1) - heapPage
	for p := first; p <= last; p++ {
		as.pages[p] = page{home: topology.NoDomain, region: noRegion, prot: ProtRW}
	}
}

// Freed reports whether the region has been freed.
func (as *AddressSpace) Freed(r Region) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return r.ID >= 0 && r.ID < len(as.freed) && as.freed[r.ID]
}

// RegionOf returns the allocation containing addr.
func (as *AddressSpace) RegionOf(addr uint64) (Region, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	_, r, ok := as.regionOfLocked(addr)
	return r, ok
}

// regionOfLocked resolves addr to its page-table entry and the live
// allocation containing it. Guard pages, freed allocations, the tail of
// an allocation's last page past its Size, and addresses outside the
// table all report false.
func (as *AddressSpace) regionOfLocked(addr uint64) (*page, Region, bool) {
	pg := as.pageLocked(addr)
	if pg == nil || pg.region == noRegion {
		return nil, Region{}, false
	}
	r := as.regions[pg.region]
	if !r.Contains(addr) {
		return nil, Region{}, false
	}
	return pg, r, true
}

// pageLocked returns the page-table entry of the page containing addr,
// or nil if the page lies below the heap or past the last allocation's
// guard page.
func (as *AddressSpace) pageLocked(addr uint64) *page {
	if addr < heapBase {
		return nil
	}
	i := units.PageOf(addr) - heapPage
	if i >= uint64(len(as.pages)) {
		return nil
	}
	return &as.pages[i]
}

// Touch resolves the page containing addr for an access by a thread
// running in touchDomain, applying the allocation's placement policy on
// first touch. It returns the page's home domain and whether this
// access was the page's first touch.
//
// If the page is protected, the installed fault handler runs first
// (with the lock released, so the handler can call Unprotect), then the
// touch is retried; this mirrors the kernel delivering SIGSEGV and
// restarting the faulting instruction (Figure 2 of the paper). If no
// handler is installed the protection is ignored.
func (as *AddressSpace) Touch(addr uint64, isWrite bool, touchDomain topology.DomainID) (topology.DomainID, bool, error) {
	home, first, _, _, err := as.TouchRegion(addr, isWrite, touchDomain)
	return home, first, err
}

// TouchRegion is Touch fused with RegionOf: one lock acquisition
// resolves the page and returns the allocation containing addr. The
// execution engine resolves every access through it: one lock
// round-trip and one page-table index, where Touch followed by RegionOf
// would take the lock twice. Semantics are identical to Touch followed
// by RegionOf.
func (as *AddressSpace) TouchRegion(addr uint64, isWrite bool, touchDomain topology.DomainID) (topology.DomainID, bool, Region, bool, error) {
	for attempt := 0; ; attempt++ {
		as.mu.Lock()
		pg, r, ok := as.regionOfLocked(addr)
		if !ok {
			as.mu.Unlock()
			return topology.NoDomain, false, Region{}, false, ErrOutOfRange
		}
		if pg.prot&ProtRW != ProtRW && as.handler != nil && attempt == 0 {
			h := as.handler
			as.mu.Unlock()
			h(Fault{Addr: addr, IsWrite: isWrite, Region: r})
			continue // retry the faulting access, like the kernel does
		}
		first := !pg.touched
		if first {
			pg.touched = true
			policy := as.policies[r.ID]
			pidx := units.PageOf(addr)
			firstPage := units.PageOf(r.Base)
			nPages := units.PagesSpanned(r.Base, r.Size)
			home := policy.PlacePage(pidx-firstPage, nPages, touchDomain)
			if home == topology.NoDomain {
				if _, isIL := policy.(Interleaved); isIL {
					home = as.allDomains[(pidx-firstPage)%uint64(len(as.allDomains))]
				} else {
					home = touchDomain
				}
			}
			if home == topology.NoDomain {
				home = 0
			}
			pg.home = home
		}
		home := pg.home
		as.mu.Unlock()
		return home, first, r, true, nil
	}
}

// PageNode returns the home domain of the page containing addr, or
// NoDomain if the page has not been touched yet. This is the
// move_pages(…, nodes=NULL) query libnuma exposes and the profiler
// uses for every address sample (Section 4.1).
func (as *AddressSpace) PageNode(addr uint64) (topology.DomainID, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	pg, _, ok := as.regionOfLocked(addr)
	if !ok {
		return topology.NoDomain, ErrOutOfRange
	}
	if !pg.touched {
		return topology.NoDomain, nil
	}
	return pg.home, nil
}

// Protect masks off permissions on every *full* page within
// [base, base+size): pages straddling the range boundaries are left
// alone, exactly as the tool's allocation wrapper masks only the pages
// between the first and last page boundaries within the variable's
// extent (Section 6), because neighbouring data may share the partial
// pages. Guard pages count like any other page; pages below the heap or
// past the last allocation's guard page are not mapped and are skipped.
//
// It returns the number of pages protected.
func (as *AddressSpace) Protect(base, size uint64, prot Protection) int {
	if size == 0 {
		return 0
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	ps := uint64(units.PageSize)
	end := base + size
	// Full pages are those whose start >= base and end <= end, clamped
	// to the page table.
	first := max((base+ps-1)/ps, heapPage)
	lastFull := min(end/ps, heapPage+uint64(len(as.pages)))
	n := 0
	for p := first; p < lastFull; p++ {
		as.pages[p-heapPage].prot = prot
		n++
	}
	return n
}

// Unprotect restores read/write permission on the page containing addr.
func (as *AddressSpace) Unprotect(addr uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if pg := as.pageLocked(addr); pg != nil {
		pg.prot = ProtRW
	}
}

// ProtectionOf returns the protection of the page containing addr.
// Unmapped pages report ProtRW.
func (as *AddressSpace) ProtectionOf(addr uint64) Protection {
	as.mu.Lock()
	defer as.mu.Unlock()
	if pg := as.pageLocked(addr); pg != nil {
		return pg.prot
	}
	return ProtRW
}

// Regions returns a copy of all allocations, live and freed.
func (as *AddressSpace) Regions() []Region {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// SetPolicy replaces the placement policy of a region. It only
// affects pages not yet touched — the same semantics as calling
// numa_tonode_memory / mbind on a freshly mapped range before anything
// touches it (how one applies a block-wise distribution to a static
// variable, whose allocation the program does not control).
func (as *AddressSpace) SetPolicy(r Region, p Policy) {
	if p == nil || r.ID < 0 {
		return
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if r.ID < len(as.policies) {
		as.policies[r.ID] = p
	}
}

// PolicyOf returns the placement policy of the region.
func (as *AddressSpace) PolicyOf(r Region) Policy {
	as.mu.Lock()
	defer as.mu.Unlock()
	if r.ID < 0 || r.ID >= len(as.policies) {
		return nil
	}
	return as.policies[r.ID]
}

// DomainPages counts touched pages homed in each domain, indexed by
// domain id — the raw material for page-placement reports.
func (as *AddressSpace) DomainPages() []uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]uint64, as.topo.NumDomains())
	for _, pg := range as.pages {
		if pg.touched && pg.home >= 0 && int(pg.home) < len(out) {
			out[pg.home]++
		}
	}
	return out
}
