package vm

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

func TestSetPolicyRebindsUntouchedPages(t *testing.T) {
	as := NewAddressSpace(testMachine())
	ps := uint64(units.PageSize)
	r := as.Alloc(ps*4, FirstTouch{})

	// Touch page 0 before rebinding: its home is fixed.
	as.TouchRegion(r.Base, true, 2)

	// mbind-style rebinding to a block-wise policy.
	as.SetPolicy(r, Blocked{Domains: []topology.DomainID{0, 1, 2, 3}})
	if p := as.PolicyOf(r); p == nil || p.Name() != "blocked" {
		t.Fatalf("PolicyOf = %v", p)
	}

	// Page 0 keeps its first-touch home.
	if d, _ := as.PageNode(r.Base); d != 2 {
		t.Fatalf("already-touched page rehomed to %d", d)
	}
	// Untouched pages follow the new policy.
	for p := uint64(1); p < 4; p++ {
		home, _, _, _, _ := as.TouchRegion(r.Base+p*ps, false, 0)
		if want := topology.DomainID(p); home != want {
			t.Errorf("page %d homed in %d, want %d (blocked)", p, home, want)
		}
	}
}

func TestSetPolicyIgnoresInvalid(t *testing.T) {
	as := NewAddressSpace(testMachine())
	r := as.Alloc(4096, nil)
	as.SetPolicy(r, nil)                            // nil policy: no-op
	as.SetPolicy(Region{ID: -1}, OnNode{Domain: 1}) // invalid region: no-op
	as.SetPolicy(Region{ID: 99}, OnNode{Domain: 1}) // out of range: no-op
	if p := as.PolicyOf(r); p == nil || p.Name() != "first-touch" {
		t.Fatalf("policy should be unchanged, got %v", p)
	}
}
