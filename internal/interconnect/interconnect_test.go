package interconnect

import (
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

func TestHopLatency(t *testing.T) {
	f := New(testMachine(), DefaultParams())
	if got := f.HopLatency(0, 0); got != 0 {
		t.Errorf("local hop latency = %v, want 0", got)
	}
	if got := f.HopLatency(0, 1); got != 60 {
		t.Errorf("remote hop latency = %v, want 60 (distance 16)", got)
	}
	if got := f.HopLatency(topology.NoDomain, 1); got != 0 {
		t.Errorf("invalid pair latency = %v, want 0", got)
	}
}

func TestLocalTransfersIgnored(t *testing.T) {
	f := New(testMachine(), DefaultParams())
	f.RecordTransfer(0, 0)
	f.RecordTransfer(topology.NoDomain, 1)
	f.RecordTransfer(1, topology.DomainID(99))
	if got := f.TotalTraffic(0, 0); got != 0 {
		t.Errorf("diagonal traffic = %d, want 0", got)
	}
}

func TestBalancedTrafficNoCongestion(t *testing.T) {
	f := New(testMachine(), DefaultParams())
	n := 4
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for i := 0; i < 100; i++ {
				f.RecordTransfer(topology.DomainID(from), topology.DomainID(to))
			}
		}
	}
	factors := f.EndEpoch()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if factors[from][to] != 1.0 {
				t.Errorf("balanced link (%d,%d) factor = %v, want 1.0", from, to, factors[from][to])
			}
		}
	}
}

func TestHotLinkCongests(t *testing.T) {
	f := New(testMachine(), DefaultParams())
	// All remote traffic flows into domain 0 from domain 1.
	for i := 0; i < 1200; i++ {
		f.RecordTransfer(1, 0)
	}
	factors := f.EndEpoch()
	// One of 12 links carries everything: overload = 12, 12^0.6 ~ 4.4 -> capped 4.
	if factors[1][0] != 4.0 {
		t.Errorf("hot link factor = %v, want 4.0 (capped)", factors[1][0])
	}
	if factors[2][0] != 1.0 {
		t.Errorf("idle link factor = %v, want 1.0", factors[2][0])
	}
}

func TestEndEpochResets(t *testing.T) {
	f := New(testMachine(), DefaultParams())
	f.RecordTransfer(1, 0)
	if f.epoch[f.idx(1, 0)] != 1 {
		t.Fatal("epoch traffic not recorded")
	}
	f.EndEpoch()
	if f.epoch[f.idx(1, 0)] != 0 {
		t.Fatal("epoch traffic not reset")
	}
	if f.TotalTraffic(1, 0) != 1 {
		t.Fatal("lifetime traffic should persist")
	}
}

// Property: congestion factors always lie in [1, cap]; diagonal is 1.
func TestQuickCongestionBounds(t *testing.T) {
	f := func(loads [4][4]uint8) bool {
		fab := New(testMachine(), DefaultParams())
		for from := range loads {
			for to := range loads[from] {
				for i := 0; i < int(loads[from][to]); i++ {
					fab.RecordTransfer(topology.DomainID(from), topology.DomainID(to))
				}
			}
		}
		factors := fab.EndEpoch()
		for from := range factors {
			for to := range factors[from] {
				v := factors[from][to]
				if v < 1.0 || v > DefaultParams().MaxCongestionFactor {
					return false
				}
				if from == to && v != 1.0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
