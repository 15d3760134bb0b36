package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestNewSymmetricMachine(t *testing.T) {
	m := New(Config{
		Name:            "test",
		NumDomains:      4,
		CPUsPerDomain:   3,
		MemoryPerDomain: 2 * units.GiB,
	})
	if got := m.NumCPUs(); got != 12 {
		t.Fatalf("NumCPUs = %d, want 12", got)
	}
	if got := m.NumDomains(); got != 4 {
		t.Fatalf("NumDomains = %d, want 4", got)
	}
	if got := units.Bytes(len(m.domains)) * m.domains[0].Memory; got != 8*units.GiB {
		t.Fatalf("total memory = %v, want 8GiB", got)
	}
}

func TestDomainOfCPUCoversAllCPUs(t *testing.T) {
	m := New(Config{Name: "t", NumDomains: 3, CPUsPerDomain: 5, MemoryPerDomain: units.GiB})
	counts := make(map[DomainID]int)
	for c := 0; c < m.NumCPUs(); c++ {
		d := m.DomainOfCPU(CPUID(c))
		if d == NoDomain {
			t.Fatalf("CPU %d has no domain", c)
		}
		counts[d]++
	}
	for d, n := range counts {
		if n != 5 {
			t.Errorf("domain %d has %d CPUs, want 5", d, n)
		}
	}
}

func TestDomainOfCPUOutOfRange(t *testing.T) {
	m := New(Config{Name: "t", NumDomains: 2, CPUsPerDomain: 2, MemoryPerDomain: units.GiB})
	if d := m.DomainOfCPU(-1); d != NoDomain {
		t.Errorf("DomainOfCPU(-1) = %d, want NoDomain", d)
	}
	if d := m.DomainOfCPU(99); d != NoDomain {
		t.Errorf("DomainOfCPU(99) = %d, want NoDomain", d)
	}
}

func TestCPUsOfDomainRoundTrip(t *testing.T) {
	m := MagnyCours48()
	for _, dom := range m.domains {
		for _, c := range m.CPUsOfDomain(dom.ID) {
			if got := m.DomainOfCPU(c); got != dom.ID {
				t.Errorf("CPU %d: DomainOfCPU = %d, want %d", c, got, dom.ID)
			}
		}
	}
	if m.CPUsOfDomain(NoDomain) != nil {
		t.Error("CPUsOfDomain(NoDomain) should be nil")
	}
	if m.CPUsOfDomain(DomainID(m.NumDomains())) != nil {
		t.Error("CPUsOfDomain(out of range) should be nil")
	}
}

func TestDistanceProperties(t *testing.T) {
	for name, m := range Presets() {
		n := m.NumDomains()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := m.Distance(DomainID(i), DomainID(j))
				if i == j && d != 10 {
					t.Errorf("%s: Distance(%d,%d) = %d, want 10", name, i, j, d)
				}
				if i != j && d <= 10 {
					t.Errorf("%s: remote Distance(%d,%d) = %d, want > 10", name, i, j, d)
				}
				if back := m.Distance(DomainID(j), DomainID(i)); back != d {
					t.Errorf("%s: distance not symmetric: (%d,%d)=%d (%d,%d)=%d", name, i, j, d, j, i, back)
				}
			}
		}
	}
}

// Preset, PresetNames and Presets read one name-to-constructor table:
// each name builds the machine that carries it.
func TestPresetTable(t *testing.T) {
	names := PresetNames()
	all := Presets()
	if len(names) != 5 || len(all) != len(names) {
		t.Fatalf("%d names, %d presets; want 5 of each", len(names), len(all))
	}
	for _, name := range names {
		m, ok := Preset(name)
		if !ok || m.Name != name {
			t.Errorf("Preset(%q) = %v, %v", name, m, ok)
		}
		if all[name] == nil || all[name].Name != name {
			t.Errorf("Presets()[%q] missing or misnamed", name)
		}
	}
	if m, ok := Preset("pdp-11"); ok || m != nil {
		t.Errorf("Preset of an unknown name = %v, %v", m, ok)
	}
}

func TestPresetsMatchPaperScale(t *testing.T) {
	cases := []struct {
		m       *Machine
		cpus    int
		domains int
		mem     units.Bytes
	}{
		{MagnyCours48(), 48, 8, 128 * units.GiB},
		{Power7x128(), 128, 4, 64 * units.GiB},
		{Harpertown8(), 8, 2, 16 * units.GiB},
		{Itanium2x8(), 8, 2, 16 * units.GiB},
		{IvyBridge8(), 8, 2, 32 * units.GiB},
	}
	for _, c := range cases {
		if c.m.NumCPUs() != c.cpus {
			t.Errorf("%s: NumCPUs = %d, want %d", c.m.Name, c.m.NumCPUs(), c.cpus)
		}
		if c.m.NumDomains() != c.domains {
			t.Errorf("%s: NumDomains = %d, want %d", c.m.Name, c.m.NumDomains(), c.domains)
		}
		if got := units.Bytes(len(c.m.domains)) * c.m.domains[0].Memory; got != c.mem {
			t.Errorf("%s: total memory = %v, want %v", c.m.Name, got, c.mem)
		}
	}
}

// Property: for any generated small machine, every CPU id in
// [0, NumCPUs) maps to exactly one valid domain and appears in that
// domain's CPU list.
func TestQuickCPUDomainConsistency(t *testing.T) {
	f := func(nd, nc uint8) bool {
		d := int(nd%6) + 1
		c := int(nc%8) + 1
		m := New(Config{Name: "q", NumDomains: d, CPUsPerDomain: c, MemoryPerDomain: units.GiB})
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			dom := m.DomainOfCPU(CPUID(cpu))
			if dom < 0 || int(dom) >= d {
				return false
			}
			found := false
			for _, cc := range m.CPUsOfDomain(dom) {
				if cc == CPUID(cpu) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return m.NumCPUs() == d*c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	m := MagnyCours48()
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	var c units.Cycles = 42
	if c.String() != "42 cyc" {
		t.Errorf("Cycles.String = %q", c.String())
	}
}

func TestCustomDistanceMatrix(t *testing.T) {
	// A 4-domain ring: neighbours one hop (16), opposite corner two (22).
	d := [][]int{
		{10, 16, 22, 16},
		{16, 10, 16, 22},
		{22, 16, 10, 16},
		{16, 22, 16, 10},
	}
	m := New(Config{
		Name: "ring", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, Distances: d,
	})
	if m.Distance(0, 2) != 22 || m.Distance(0, 1) != 16 {
		t.Fatalf("distances not applied: %d, %d", m.Distance(0, 2), m.Distance(0, 1))
	}
	if m.Uniform() {
		t.Fatal("ring should be non-uniform")
	}
	// Config round trip carries the matrix.
	back := New(m.Config())
	if back.Distance(0, 2) != 22 {
		t.Fatal("Config round trip lost the matrix")
	}
	// Uniform machines stay uniform.
	if !MagnyCours48().Uniform() {
		t.Fatal("preset should be uniform")
	}
}

func TestBadDistanceMatrixPanics(t *testing.T) {
	cases := [][][]int{
		{{10, 16}, {16, 10}, {16, 16}},         // wrong rows
		{{10, 16, 16}, {16, 10}, {16, 16, 10}}, // ragged
		{{12, 16}, {16, 10}},                   // bad diagonal
		{{10, 9}, {9, 10}},                     // remote <= 10
		{{10, 16}, {17, 10}},                   // asymmetric
	}
	for i, d := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(Config{Name: "bad", NumDomains: len(d[0]), CPUsPerDomain: 1,
				MemoryPerDomain: units.GiB, Distances: d})
		}()
	}
}
