package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t", NumDomains: 2, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func TestDataSourceClassification(t *testing.T) {
	cases := []struct {
		s             DataSource
		remote        bool
		beyondLocalL3 bool
	}{
		{SrcL1, false, false},
		{SrcL2, false, false},
		{SrcL3, false, false},
		{SrcRemoteCache, true, true},
		{SrcLocalDRAM, false, true},
		{SrcRemoteDRAM, true, true},
	}
	for _, c := range cases {
		if c.s.IsRemote() != c.remote {
			t.Errorf("%v.IsRemote() = %v", c.s, c.s.IsRemote())
		}
		if c.s.BeyondLocalL3() != c.beyondLocalL3 {
			t.Errorf("%v.BeyondLocalL3() = %v", c.s, c.s.BeyondLocalL3())
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	r := h.Access(0, 0x1000, 0)
	if r.Source != SrcLocalDRAM {
		t.Fatalf("cold access source = %v, want LCL_DRAM", r.Source)
	}
	r = h.Access(0, 0x1000, 0)
	if r.Source != SrcL1 {
		t.Fatalf("second access source = %v, want L1", r.Source)
	}
	// Same line, different byte: still a hit.
	r = h.Access(0, 0x1004, 0)
	if r.Source != SrcL1 {
		t.Fatalf("same-line access source = %v, want L1", r.Source)
	}
}

func TestRemoteDRAMClassification(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	r := h.Access(0, 0x2000, 1) // CPU 0 is in domain 0; page homed in 1
	if r.Source != SrcRemoteDRAM {
		t.Fatalf("source = %v, want RMT_DRAM", r.Source)
	}
}

// TestDegradedCPUAndHomeClassification pins the classification for
// every degraded (cpu, home) combination: CPUs the topology does not
// map must not panic and must not launder remote traffic into
// SrcLocalDRAM, and NoDomain homes fall back to the local cost model.
// Pre-fix, the unmapped-CPU rows panicked on the unguarded private
// cache probe (h.l1[cpu]).
func TestDegradedCPUAndHomeClassification(t *testing.T) {
	cases := []struct {
		name string
		cpu  topology.CPUID
		home topology.DomainID
		want DataSource
	}{
		{"mapped cpu, local home", 0, 0, SrcLocalDRAM},
		{"mapped cpu, remote home", 0, 1, SrcRemoteDRAM},
		{"mapped cpu, NoDomain home", 0, topology.NoDomain, SrcLocalDRAM},
		{"mapped cpu, home beyond machine", 0, 9, SrcRemoteDRAM},
		{"unmapped cpu, valid home", 99, 1, SrcRemoteDRAM},
		{"unmapped cpu, other valid home", 99, 0, SrcRemoteDRAM},
		{"unmapped cpu, NoDomain home", 99, topology.NoDomain, SrcLocalDRAM},
		{"negative cpu, valid home", -1, 1, SrcRemoteDRAM},
		{"negative cpu, NoDomain home", -1, topology.NoDomain, SrcLocalDRAM},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Fresh hierarchy per case: each first access is a cold
			// miss, so the DRAM classification is what's probed.
			h := NewHierarchy(testMachine(), DefaultConfig())
			r := h.Access(c.cpu, 0x9000, c.home)
			if r.Source != c.want {
				t.Fatalf("Access(cpu=%d, home=%d) = %v, want %v",
					c.cpu, c.home, r.Source, c.want)
			}
			if r.OnChipLatency <= 0 {
				t.Fatalf("OnChipLatency = %v, want > 0", r.OnChipLatency)
			}
		})
	}
}

// An unmapped CPU has no private caches: repeated accesses to the same
// remote-homed line stay remote (first from DRAM, then from the home
// L3 the miss filled) instead of fabricating L1 hits.
func TestUnmappedCPUNeverCaches(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	if r := h.Access(99, 0xA000, 1); r.Source != SrcRemoteDRAM {
		t.Fatalf("first access = %v, want RMT_DRAM", r.Source)
	}
	for i := 0; i < 4; i++ {
		if r := h.Access(99, 0xA000, 1); !r.Source.IsRemote() {
			t.Fatalf("access %d = %v, want a remote source", i, r.Source)
		}
	}
}

func TestRemoteCacheSnoopHit(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	// CPU 2 (domain 1) touches the line: fills domain 1's L3.
	h.Access(2, 0x3000, 1)
	// CPU 0 (domain 0) misses locally but snoops domain 1's L3.
	r := h.Access(0, 0x3000, 1)
	if r.Source != SrcRemoteCache {
		t.Fatalf("source = %v, want RMT_CACHE", r.Source)
	}
}

// The Section 4.1 bias scenario: a remote-homed line, once cached
// locally, is served at L1 cost even though move_pages still reports a
// remote home.
func TestRemoteHomedLineCachesLocally(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	if r := h.Access(0, 0x4000, 1); r.Source != SrcRemoteDRAM {
		t.Fatalf("first access = %v, want RMT_DRAM", r.Source)
	}
	for i := 0; i < 10; i++ {
		if r := h.Access(0, 0x4000, 1); r.Source != SrcL1 {
			t.Fatalf("cached access = %v, want L1", r.Source)
		}
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(testMachine(), cfg)
	// Fill one L1 set beyond capacity: addresses that map to the same
	// set differ by sets*lineSize.
	stride := uint64(cfg.L1Sets) * uint64(cfg.LineSize)
	base := uint64(0x10000)
	for i := 0; i <= cfg.L1Ways; i++ {
		h.Access(0, base+uint64(i)*stride, 0)
	}
	// base was evicted from L1 but lives in L2 (larger geometry).
	r := h.Access(0, base, 0)
	if r.Source != SrcL2 {
		t.Fatalf("evicted-line access = %v, want L2", r.Source)
	}
}

func TestPrivateCachesAreNotShared(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	h.Access(0, 0x5000, 0)
	// CPU 1 is in the same domain: misses L1/L2 but hits shared L3.
	r := h.Access(1, 0x5000, 0)
	if r.Source != SrcL3 {
		t.Fatalf("sibling access = %v, want L3", r.Source)
	}
}

func TestLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(testMachine(), cfg)
	l1 := h.Access(0, 0x9000, 0) // cold: DRAM
	dramLookup := l1.OnChipLatency
	hit := h.Access(0, 0x9000, 0) // L1
	if hit.OnChipLatency >= dramLookup {
		t.Errorf("L1 hit latency %v should be below DRAM lookup %v", hit.OnChipLatency, dramLookup)
	}
	if hit.OnChipLatency != cfg.L1Latency {
		t.Errorf("L1 latency = %v, want %v", hit.OnChipLatency, cfg.L1Latency)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	newSetAssoc(3, 4, 64)
}

// Property: a just-accessed line is always an L1 hit on immediate
// re-access by the same CPU, regardless of address or home domain.
func TestQuickTemporalLocality(t *testing.T) {
	h := NewHierarchy(testMachine(), DefaultConfig())
	f := func(addr uint32, home uint8) bool {
		d := topology.DomainID(home % 2)
		h.Access(0, uint64(addr), d)
		return h.Access(0, uint64(addr), d).Source == SrcL1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the data source never misclassifies locality — SrcRemoteDRAM
// only appears when home differs from the accessor's domain.
func TestQuickRemoteOnlyWhenRemote(t *testing.T) {
	f := func(accesses []uint16, home uint8) bool {
		h := NewHierarchy(testMachine(), DefaultConfig())
		d := topology.DomainID(home % 2)
		for _, a := range accesses {
			r := h.Access(0, uint64(a)*64, d)
			if r.Source == SrcRemoteDRAM && d == 0 {
				return false // CPU 0 is in domain 0
			}
			if r.Source == SrcLocalDRAM && d == 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
