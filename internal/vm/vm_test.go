package vm

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func TestAllocBasics(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(100, nil)
	if !r.Valid() {
		t.Fatal("allocation invalid")
	}
	if r.Base%uint64(units.PageSize) != 0 {
		t.Errorf("base %#x not page aligned", r.Base)
	}
	if !r.Contains(r.Base) || !r.Contains(r.Base+99) || r.Contains(r.Base+100) {
		t.Error("Contains boundaries wrong")
	}
	if z := as.Alloc(0, nil); z.Valid() {
		t.Error("zero-size allocation should be invalid")
	}
}

func TestAllocationsDontSharePages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	a := as.Alloc(10, nil)
	b := as.Alloc(10, nil)
	if units.PageOf(a.End()-1) == units.PageOf(b.Base) {
		t.Fatal("adjacent allocations share a page")
	}
}

func TestRegionOf(t *testing.T) {
	as := NewAddressSpace(testMachine())
	a := as.Alloc(5000, nil)
	b := as.Alloc(100, nil)
	if _, _, got, ok, _ := as.TouchRegion(a.Base+4999, false, 0); !ok || got.ID != a.ID {
		t.Errorf("region of mid-a = %+v, %v", got, ok)
	}
	if _, _, got, ok, _ := as.TouchRegion(b.Base, false, 0); !ok || got.ID != b.ID {
		t.Errorf("region of b = %+v, %v", got, ok)
	}
	if _, _, _, ok, _ := as.TouchRegion(0, false, 0); ok {
		t.Error("address 0 should be outside any allocation")
	}
	if _, _, _, ok, _ := as.TouchRegion(a.End(), false, 0); ok {
		t.Error("one-past-end should be outside (guard page)")
	}
}

func TestFirstTouchHomesPageAtToucher(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*4, FirstTouch{})
	home, first, _, _, err := as.TouchRegion(r.Base, true, 2)
	if err != nil || !first || home != 2 {
		t.Fatalf("first touch: home=%d first=%v err=%v, want 2,true,nil", home, first, err)
	}
	// Second touch by a different domain does not re-home.
	home, first, _, _, err = as.TouchRegion(r.Base, false, 3)
	if err != nil || first || home != 2 {
		t.Fatalf("second touch: home=%d first=%v err=%v, want 2,false,nil", home, first, err)
	}
	// A different page of the same region first-touched elsewhere.
	home, first, _, _, _ = as.TouchRegion(r.Base+uint64(units.PageSize), false, 3)
	if !first || home != 3 {
		t.Fatalf("other page: home=%d first=%v, want 3,true", home, first)
	}
}

func TestInterleavedPolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*8, Interleaved{})
	for p := uint64(0); p < 8; p++ {
		home, _, _, _, err := as.TouchRegion(r.Base+p*ps, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := topology.DomainID(p % 4); home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestInterleavedExplicitDomains(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, Interleaved{Domains: []topology.DomainID{1, 3}})
	wants := []topology.DomainID{1, 3, 1, 3}
	for p, want := range wants {
		home, _, _, _, _ := as.TouchRegion(r.Base+uint64(p)*ps, true, 0)
		if home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestOnNodePolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*3, OnNode{Domain: 3})
	for p := uint64(0); p < 3; p++ {
		home, _, _, _, _ := as.TouchRegion(r.Base+p*uint64(units.PageSize), true, 0)
		if home != 3 {
			t.Errorf("page %d homed in %d, want 3", p, home)
		}
	}
}

func TestBlockedPolicy(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	doms := []topology.DomainID{0, 1, 2, 3}
	r := as.Alloc(ps*8, Blocked{Domains: doms})
	wants := []topology.DomainID{0, 0, 1, 1, 2, 2, 3, 3}
	for p, want := range wants {
		home, _, _, _, _ := as.TouchRegion(r.Base+uint64(p)*ps, false, 1)
		if home != want {
			t.Errorf("page %d homed in %d, want %d", p, home, want)
		}
	}
}

func TestBlockedPolicyUnevenPages(t *testing.T) {
	// 7 pages over 4 domains: blocks may differ by one page but every
	// page must be placed and block indices must be non-decreasing.
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*7, Blocked{Domains: []topology.DomainID{0, 1, 2, 3}})
	prev := topology.DomainID(0)
	for p := uint64(0); p < 7; p++ {
		home, _, _, _, _ := as.TouchRegion(r.Base+p*ps, false, 0)
		if home < prev {
			t.Errorf("page %d home %d decreased below %d", p, home, prev)
		}
		prev = home
	}
	if prev != 3 {
		t.Errorf("last page homed in %d, want 3", prev)
	}
}

func TestPageNode(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*2, nil)
	if d, err := as.PageNode(r.Base); err != nil || d != topology.NoDomain {
		t.Fatalf("untouched PageNode = %d, %v; want NoDomain, nil", d, err)
	}
	as.TouchRegion(r.Base, true, 1)
	if d, err := as.PageNode(r.Base); err != nil || d != 1 {
		t.Fatalf("PageNode = %d, %v; want 1, nil", d, err)
	}
	if _, err := as.PageNode(0x1); err != ErrOutOfRange {
		t.Fatalf("PageNode outside = %v, want ErrOutOfRange", err)
	}
}

func TestTouchOutOfRange(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	a := as.Alloc(ps+100, nil) // two pages, the second mostly past Size
	freed := as.Alloc(ps, nil)
	as.TouchRegion(freed.Base, true, 0)
	as.Free(freed)
	last := as.Alloc(10, nil)
	for _, c := range []struct {
		name string
		addr uint64
	}{
		{"null page", 0x1},
		{"last byte below the heap", heapBase - 1},
		{"guard page", a.Base + 2*ps},
		{"last page past Size", a.End()},
		{"freed region", freed.Base},
		{"page after the last guard page", last.Base + 2*ps},
		{"far past the last allocation", 1 << 40},
	} {
		if _, _, r, ok, err := as.TouchRegion(c.addr, false, 0); err != ErrOutOfRange || ok {
			t.Errorf("%s: TouchRegion = region %+v, ok %v, err %v; want none, ErrOutOfRange", c.name, r, ok, err)
		}
		if _, err := as.PageNode(c.addr); err != ErrOutOfRange {
			t.Errorf("%s: PageNode err = %v, want ErrOutOfRange", c.name, err)
		}
	}
}

func TestProtectInteriorPagesOnly(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, nil)
	// Protect a range starting mid-page: the partial first page must
	// be skipped.
	n := as.Protect(r.Base+100, ps*3, ProtNone)
	if n != 2 {
		t.Fatalf("protected %d pages, want 2 (partials skipped)", n)
	}
	if as.ProtectionOf(r.Base) != ProtRW {
		t.Error("partial leading page should stay RW")
	}
	if as.ProtectionOf(r.Base+ps) != ProtNone {
		t.Error("first full page should be protected")
	}
	for _, addr := range []uint64{0x1, r.Base + 8*ps} {
		if p := as.ProtectionOf(addr); p != ProtRW {
			t.Errorf("ProtectionOf(unmapped %#x) = %v, want ProtRW", addr, p)
		}
	}
}

func TestProtectWholePages(t *testing.T) {
	ps := uint64(units.PageSize)
	// Layout from heapBase: a's three pages, a guard page, b's page and
	// b's guard page; nothing is mapped below it or past it.
	for _, c := range []struct {
		name       string
		base, size uint64
		want       int
	}{
		{"whole region", heapBase, 3 * ps, 3},
		{"region and its guard page", heapBase, 4 * ps, 4},
		{"across the guard page into the next region", heapBase + 2*ps, 3 * ps, 3},
		{"from below the heap", 0, heapBase + ps, 1},
		{"past the last guard page", heapBase + 4*ps, 4 * ps, 2},
	} {
		as := NewAddressSpace(testMachine())
		if a := as.Alloc(ps*3, nil); a.Base != heapBase {
			t.Fatalf("first allocation at %#x, want heapBase", a.Base)
		}
		as.Alloc(ps, nil)
		if n := as.Protect(c.base, c.size, ProtNone); n != c.want {
			t.Errorf("%s: protected %d pages, want %d", c.name, n, c.want)
		}
		if p := as.ProtectionOf(max(c.base, heapBase)); p != ProtNone {
			t.Errorf("%s: first mapped page in range has %v, want ProtNone", c.name, p)
		}
	}
}

func TestFaultDeliveryAndRetry(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*2, nil)
	as.Protect(r.Base, ps*2, ProtNone)

	var faults []Fault
	as.SetFaultHandler(func(f Fault) {
		faults = append(faults, f)
		as.Unprotect(f.Addr) // handler must restore access
	})

	home, first, _, _, err := as.TouchRegion(r.Base+8, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatalf("got %d faults, want 1", len(faults))
	}
	f := faults[0]
	if f.Addr != r.Base+8 || !f.IsWrite || f.Region.ID != r.ID {
		t.Errorf("fault = %+v", f)
	}
	if !first || home != 2 {
		t.Errorf("touch after fault: home=%d first=%v", home, first)
	}
	// Subsequent access to the unprotected page: no new fault.
	as.TouchRegion(r.Base+16, false, 2)
	if len(faults) != 1 {
		t.Errorf("unprotected access faulted again: %d faults", len(faults))
	}
	// The second page is still protected.
	as.TouchRegion(r.Base+ps, false, 1)
	if len(faults) != 2 {
		t.Errorf("second page should fault: %d faults", len(faults))
	}
}

// TestTouchedPageLeavesFastPath covers the three ways a page that was
// already touched can stop being an ordinary hit: protection, a free,
// and an address past the region's Size on its last page. Each must
// take the full path, as it did before the page was touched.
func TestTouchedPageLeavesFastPath(t *testing.T) {
	ps := uint64(units.PageSize)
	t.Run("protected after touch", func(t *testing.T) {
		as := NewAddressSpace(testMachine())
		r := as.Alloc(ps*2, nil)
		as.TouchRegion(r.Base, false, 1)
		faults := 0
		as.SetFaultHandler(func(f Fault) {
			faults++
			as.Unprotect(f.Addr)
		})
		as.Protect(r.Base, ps, ProtNone)
		home, first, region, ok, err := as.TouchRegion(r.Base+8, true, 3)
		if err != nil || !ok || region.ID != r.ID {
			t.Fatalf("TouchRegion = region %+v, ok %v, err %v", region, ok, err)
		}
		if faults != 1 {
			t.Fatalf("handler ran %d times, want 1", faults)
		}
		if first || home != 1 {
			t.Errorf("home = %d, first = %v; want the first toucher's 1, false", home, first)
		}
	})
	t.Run("freed after touch", func(t *testing.T) {
		as := NewAddressSpace(testMachine())
		r := as.Alloc(ps*2, nil)
		as.TouchRegion(r.Base+ps, false, 1)
		as.Free(r)
		if _, _, _, ok, err := as.TouchRegion(r.Base+ps, false, 1); err != ErrOutOfRange || ok {
			t.Fatalf("TouchRegion after free = ok %v, err %v; want ErrOutOfRange", ok, err)
		}
	})
	t.Run("past size on a touched last page", func(t *testing.T) {
		as := NewAddressSpace(testMachine())
		r := as.Alloc(ps+100, nil)
		as.TouchRegion(r.Base+ps, false, 2) // the last page, partly used
		if _, _, _, ok, err := as.TouchRegion(r.End(), false, 2); err != ErrOutOfRange || ok {
			t.Fatalf("TouchRegion(End) = ok %v, err %v; want ErrOutOfRange", ok, err)
		}
		if home, _, _, ok, err := as.TouchRegion(r.End()-1, false, 0); err != nil || !ok || home != 2 {
			t.Fatalf("TouchRegion(End-1) = home %d, ok %v, err %v; want 2, true, nil", home, ok, err)
		}
	})
}

func TestNoHandlerIgnoresProtection(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps, nil)
	as.Protect(r.Base, ps, ProtNone)
	if _, _, _, _, err := as.TouchRegion(r.Base, false, 0); err != nil {
		t.Fatalf("touch with no handler: %v", err)
	}
}

func TestFree(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*2, nil)
	keep := as.Alloc(ps, nil)
	as.TouchRegion(r.Base, true, 1)
	as.TouchRegion(r.Base+ps, true, 1)
	as.TouchRegion(keep.Base, true, 2)
	as.Protect(r.Base, ps, ProtNone)
	as.Free(r)
	if !as.Freed(r) {
		t.Fatal("region not marked freed")
	}
	if as.Freed(keep) {
		t.Error("live region reported freed")
	}
	for _, id := range []int{-1, 99} {
		if as.Freed(Region{ID: id}) {
			t.Errorf("Freed(Region{ID: %d}) = true for an ID never allocated", id)
		}
	}
	if _, _, _, _, err := as.TouchRegion(r.Base, false, 0); err != ErrOutOfRange {
		t.Fatalf("touch after free = %v, want ErrOutOfRange", err)
	}
	if _, err := as.PageNode(r.Base + ps); err != ErrOutOfRange {
		t.Fatalf("PageNode after free = %v, want ErrOutOfRange", err)
	}
	if p := as.ProtectionOf(r.Base); p != ProtRW {
		t.Errorf("freed page keeps protection %v, want ProtRW", p)
	}
	if got, want := as.DomainPages(), []uint64{0, 0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("DomainPages after free = %v, want %v (freed pages dropped)", got, want)
	}
	as.Free(r) // double free is a no-op
	if d, err := as.PageNode(keep.Base); err != nil || d != 2 {
		t.Errorf("surviving region's page = %d, %v; want 2, nil", d, err)
	}
}

func TestDomainPages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, Interleaved{})
	for p := uint64(0); p < 4; p++ {
		as.TouchRegion(r.Base+p*ps, true, 0)
	}
	counts := as.DomainPages()
	for d, c := range counts {
		if c != 1 {
			t.Errorf("domain %d has %d pages, want 1", d, c)
		}
	}
}

func TestPolicyOf(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(100, OnNode{Domain: 2})
	if p := as.PolicyOf(r); p == nil || p.Name() != "on-node-2" {
		t.Fatalf("PolicyOf = %v", p)
	}
	if p := as.PolicyOf(Region{ID: -1}); p != nil {
		t.Error("PolicyOf invalid region should be nil")
	}
}

// Property: Blocked placement maps every page to a valid domain and
// assigns each domain a contiguous page range.
func TestQuickBlockedContiguous(t *testing.T) {
	f := func(nPages uint8, nDoms uint8) bool {
		np := uint64(nPages%64) + 1
		nd := int(nDoms%8) + 1
		doms := make([]topology.DomainID, nd)
		for i := range doms {
			doms[i] = topology.DomainID(i)
		}
		p := Blocked{Domains: doms}
		prev := topology.DomainID(0)
		for i := uint64(0); i < np; i++ {
			d := p.PlacePage(i, np, 0)
			if d < 0 || int(d) >= nd {
				return false
			}
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: first-touch homes are sticky — the home returned by the
// first TouchRegion is returned by every later one regardless of toucher.
func TestQuickFirstTouchSticky(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize)*256, FirstTouch{})
	f := func(pageIdx uint8, d1, d2 uint8) bool {
		addr := r.Base + uint64(pageIdx)*uint64(units.PageSize)
		h1, _, _, _, err := as.TouchRegion(addr, false, topology.DomainID(d1%4))
		if err != nil {
			return false
		}
		h2, first2, _, _, err := as.TouchRegion(addr, true, topology.DomainID(d2%4))
		return err == nil && h1 == h2 && !first2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A fault handler that forgets to unprotect must not hang the
// simulation: after one delivery the access is retried and proceeds
// (a real program would SIGSEGV-loop; the simulator opts for forward
// progress so a buggy tool can't wedge an experiment).
func TestMisbehavingFaultHandlerDoesNotHang(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(uint64(units.PageSize), nil)
	as.Protect(r.Base, uint64(units.PageSize), ProtNone)
	faults := 0
	as.SetFaultHandler(func(Fault) { faults++ }) // never unprotects
	if _, _, _, _, err := as.TouchRegion(r.Base, true, 0); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", faults)
	}
	// The page stays protected (the handler's bug), and the next
	// access faults again — still exactly once per access.
	if _, _, _, _, err := as.TouchRegion(r.Base, false, 0); err != nil {
		t.Fatal(err)
	}
	if faults != 2 {
		t.Fatalf("handler ran %d times across two accesses, want 2", faults)
	}
}
