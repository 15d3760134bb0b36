package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func testMachine() *topology.Machine {
	return topology.New(topology.Config{
		Name: "t", NumDomains: 8, CPUsPerDomain: 6,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
}

func TestDRAMLatencyLocalVsRemote(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	local := s.DRAMLatency(0, 0)
	remote := s.DRAMLatency(0, 1)
	if local != 100 {
		t.Fatalf("local latency = %v, want 100", local)
	}
	if remote != 160 {
		t.Fatalf("remote latency = %v, want 160", remote)
	}
	// The paper: remote accesses have more than 30% higher latency.
	if float64(remote) < 1.3*float64(local) {
		t.Errorf("remote/local = %v, want >= 1.3", float64(remote)/float64(local))
	}
}

func TestDRAMLatencyNoDomain(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	if got := s.DRAMLatency(topology.NoDomain, 0); got != 100 {
		t.Errorf("NoDomain from: %v", got)
	}
	if got := s.DRAMLatency(0, topology.NoDomain); got != 100 {
		t.Errorf("NoDomain to: %v", got)
	}
	// Ids past either end of the machine read the local cost too.
	for _, d := range []topology.DomainID{-2, 8} {
		if got := s.DRAMLatency(d, 0); got != 100 {
			t.Errorf("from %d: %v", d, got)
		}
		if got := s.DRAMLatency(0, d); got != 100 {
			t.Errorf("to %d: %v", d, got)
		}
	}
}

func TestContentionBalancedIsOne(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	for d := 0; d < 8; d++ {
		for i := 0; i < 1000; i++ {
			s.RecordRequest(topology.DomainID(d))
		}
	}
	factors := s.EndEpoch()
	for d, f := range factors {
		if f != 1.0 {
			t.Errorf("balanced domain %d factor = %v, want 1.0", d, f)
		}
	}
}

func TestContentionCentralizedSaturates(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	for i := 0; i < 8000; i++ {
		s.RecordRequest(0)
	}
	factors := s.EndEpoch()
	// All traffic to one domain of 8: overload = 8, 8^0.75 ~ 4.76,
	// within the cap but close to the paper's 5x figure.
	if factors[0] < 4.0 || factors[0] > 5.0 {
		t.Errorf("centralized factor = %v, want in [4,5]", factors[0])
	}
	for d := 1; d < 8; d++ {
		if factors[d] != 1.0 {
			t.Errorf("idle domain %d factor = %v, want 1.0", d, factors[d])
		}
	}
}

func TestContentionCap(t *testing.T) {
	m := topology.New(topology.Config{
		Name: "wide", NumDomains: 32, CPUsPerDomain: 1, MemoryPerDomain: units.GiB,
	})
	s := NewSystem(m, DefaultLatencyParams())
	for i := 0; i < 1000; i++ {
		s.RecordRequest(5)
	}
	factors := s.EndEpoch()
	if factors[5] != 5.0 {
		t.Errorf("factor = %v, want capped at 5.0", factors[5])
	}
}

func TestEndEpochResets(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	s.RecordRequest(0)
	s.RecordRequest(0)
	if got := s.epochRequests[0]; got != 2 {
		t.Fatalf("epoch requests = %d, want 2", got)
	}
	s.EndEpoch()
	if got := s.epochRequests[0]; got != 0 {
		t.Fatalf("after EndEpoch, epoch requests = %d, want 0", got)
	}
	if got := s.TotalsByDomain()[0]; got != 2 {
		t.Fatalf("lifetime requests = %d, want 2 (lifetime persists)", got)
	}
}

func TestRecordRequestOutOfRangeIgnored(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	s.RecordRequest(topology.NoDomain)
	s.RecordRequest(topology.DomainID(99))
	for _, c := range s.TotalsByDomain() {
		if c != 0 {
			t.Fatal("out-of-range requests should be ignored")
		}
	}
}

func TestImbalance(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	if s.Imbalance() != 0 {
		t.Error("empty system imbalance should be 0")
	}
	for d := 0; d < 8; d++ {
		for i := 0; i < 100; i++ {
			s.RecordRequest(topology.DomainID(d))
		}
	}
	if got := s.Imbalance(); got != 1.0 {
		t.Errorf("balanced imbalance = %v, want 1.0", got)
	}
	s2 := NewSystem(testMachine(), DefaultLatencyParams())
	for i := 0; i < 100; i++ {
		s2.RecordRequest(3)
	}
	if got := s2.Imbalance(); got != 8.0 {
		t.Errorf("centralized imbalance = %v, want 8.0", got)
	}
}

// Property: contention factors are always in [1, cap], and a domain
// with zero requests always gets factor 1.
func TestQuickContentionBounds(t *testing.T) {
	s := NewSystem(testMachine(), DefaultLatencyParams())
	f := func(loads [8]uint16) bool {
		for d, n := range loads {
			for i := 0; i < int(n%500); i++ {
				s.RecordRequest(topology.DomainID(d))
			}
		}
		factors := s.EndEpoch()
		for d, fac := range factors {
			if fac < 1.0 || fac > DefaultLatencyParams().MaxContentionFactor {
				return false
			}
			if loads[d]%500 == 0 && fac != 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: more concentration never decreases the hot domain's factor.
func TestQuickContentionMonotone(t *testing.T) {
	f := func(hot uint16, cold uint16) bool {
		h := uint64(hot) + 1
		c := uint64(cold)
		s := NewSystem(testMachine(), DefaultLatencyParams())
		record := func(d topology.DomainID, n uint64) {
			for i := uint64(0); i < n; i++ {
				s.RecordRequest(d)
			}
		}
		record(0, h)
		record(1, c)
		f1 := s.EndEpoch()[0]
		record(0, h*2)
		record(1, c)
		f2 := s.EndEpoch()[0]
		return f2 >= f1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
