// Package topology describes the shape of a simulated NUMA machine:
// how many NUMA domains it has, which CPUs belong to each domain, how
// much memory each domain owns, and the relative distances between
// domains.
//
// A "NUMA domain", following the paper's definition, is a set of CPU
// cores together with the cache/memory they can all access with uniform
// latency. Everything above this package (memory system, caches,
// virtual memory, the profiler itself) consumes a *Machine.
//
// # Concurrency
//
// A Machine is immutable once New (or a preset constructor) returns:
// nothing in this package or its consumers writes to it afterwards.
// That makes a single Machine safe to share across every concurrent
// cell of a scheduled sweep (internal/sched), which is precisely how
// the experiment drivers use the presets — one MagnyCours48 handed to
// all thirty Table 2 cells at once.
package topology

import (
	"fmt"

	"repro/internal/units"
)

// CPUID identifies a logical CPU (a hardware thread) on the machine.
type CPUID int

// DomainID identifies a NUMA domain.
type DomainID int

// NoDomain is returned by queries on addresses or CPUs that are not
// bound to any domain.
const NoDomain DomainID = -1

// Domain is one NUMA domain: a set of CPUs plus locally attached memory.
type Domain struct {
	ID     DomainID
	CPUs   []CPUID
	Memory units.Bytes
}

// Machine is an immutable description of a NUMA machine.
type Machine struct {
	// Name identifies the machine model, e.g. "amd-magny-cours-48".
	Name string
	// ClockGHz is the core clock used to convert cycles to seconds.
	ClockGHz float64

	domains     []Domain
	cpuToDomain []DomainID
	// distance[i][j] follows the Linux SLIT convention: 10 means
	// local, larger values mean proportionally higher latency.
	distance [][]int
}

// Config describes a machine to be built by New.
type Config struct {
	Name            string
	ClockGHz        float64
	NumDomains      int
	CPUsPerDomain   int
	MemoryPerDomain units.Bytes
	// RemoteDistance is the SLIT distance between any two distinct
	// domains (local distance is always 10). If zero, 16 is used,
	// a typical one-hop HyperTransport/QPI figure.
	RemoteDistance int
	// Distances, if non-nil, is a full SLIT matrix overriding
	// RemoteDistance — for fabrics where some domain pairs are one
	// hop apart and others two (e.g. the Magny-Cours HyperTransport
	// mesh). Must be NumDomains x NumDomains, symmetric, with 10 on
	// the diagonal and values > 10 elsewhere.
	Distances [][]int
}

// New builds a symmetric machine from cfg. It panics on a non-positive
// domain or CPU count, since machine descriptions are static data fixed
// at program start.
func New(cfg Config) *Machine {
	if cfg.NumDomains <= 0 || cfg.CPUsPerDomain <= 0 {
		panic(fmt.Sprintf("topology: invalid config %+v", cfg))
	}
	if cfg.RemoteDistance == 0 {
		cfg.RemoteDistance = 16
	}
	if cfg.ClockGHz == 0 {
		cfg.ClockGHz = 2.0
	}
	m := &Machine{
		Name:     cfg.Name,
		ClockGHz: cfg.ClockGHz,
	}
	next := CPUID(0)
	for d := 0; d < cfg.NumDomains; d++ {
		dom := Domain{ID: DomainID(d), Memory: cfg.MemoryPerDomain}
		for c := 0; c < cfg.CPUsPerDomain; c++ {
			dom.CPUs = append(dom.CPUs, next)
			m.cpuToDomain = append(m.cpuToDomain, DomainID(d))
			next++
		}
		m.domains = append(m.domains, dom)
	}
	m.distance = make([][]int, cfg.NumDomains)
	for i := range m.distance {
		m.distance[i] = make([]int, cfg.NumDomains)
		for j := range m.distance[i] {
			if i == j {
				m.distance[i][j] = 10
			} else {
				m.distance[i][j] = cfg.RemoteDistance
			}
		}
	}
	if cfg.Distances != nil {
		if err := validateSLIT(cfg.Distances, cfg.NumDomains); err != nil {
			panic("topology: " + err.Error())
		}
		for i := range m.distance {
			copy(m.distance[i], cfg.Distances[i])
		}
	}
	return m
}

// validateSLIT checks a distance matrix: square, symmetric, 10 on the
// diagonal, > 10 off it.
func validateSLIT(d [][]int, n int) error {
	if len(d) != n {
		return fmt.Errorf("distance matrix has %d rows, want %d", len(d), n)
	}
	for i := range d {
		if len(d[i]) != n {
			return fmt.Errorf("distance row %d has %d entries, want %d", i, len(d[i]), n)
		}
		for j := range d[i] {
			switch {
			case i == j && d[i][j] != 10:
				return fmt.Errorf("diagonal distance [%d][%d] = %d, want 10", i, j, d[i][j])
			case i != j && d[i][j] <= 10:
				return fmt.Errorf("remote distance [%d][%d] = %d, want > 10", i, j, d[i][j])
			case d[i][j] != d[j][i]:
				return fmt.Errorf("distance not symmetric at [%d][%d]", i, j)
			}
		}
	}
	return nil
}

// Uniform reports whether all remote distances are equal (the Config
// round trip through Config() is exact only for uniform machines;
// non-uniform machines serialise their full matrix).
func (m *Machine) Uniform() bool {
	n := m.NumDomains()
	if n <= 1 {
		return true
	}
	d := m.distance[0][1]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && m.distance[i][j] != d {
				return false
			}
		}
	}
	return true
}

// Distances returns a copy of the full SLIT matrix.
func (m *Machine) Distances() [][]int {
	out := make([][]int, len(m.distance))
	for i := range m.distance {
		out[i] = append([]int(nil), m.distance[i]...)
	}
	return out
}

// NumCPUs returns the number of logical CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpuToDomain) }

// NumDomains returns the number of NUMA domains.
func (m *Machine) NumDomains() int { return len(m.domains) }

// DomainOfCPU returns the NUMA domain that owns the CPU, or NoDomain if
// the CPU id is out of range. This mirrors libnuma's numa_node_of_cpu.
func (m *Machine) DomainOfCPU(c CPUID) DomainID {
	if c < 0 || int(c) >= len(m.cpuToDomain) {
		return NoDomain
	}
	return m.cpuToDomain[c]
}

// CPUsOfDomain returns the CPUs in domain d. The slice must not be
// mutated.
func (m *Machine) CPUsOfDomain(d DomainID) []CPUID {
	if d < 0 || int(d) >= len(m.domains) {
		return nil
	}
	return m.domains[d].CPUs
}

// Distance returns the SLIT distance between two domains: 10 for a
// domain to itself, larger for remote domains.
func (m *Machine) Distance(a, b DomainID) int {
	return m.distance[a][b]
}

// Config reconstructs the Config that built this machine, for
// serialisation round trips. (Machines are always built symmetric.)
func (m *Machine) Config() Config {
	cfg := Config{
		Name:       m.Name,
		ClockGHz:   m.ClockGHz,
		NumDomains: m.NumDomains(),
	}
	if len(m.domains) > 0 {
		cfg.CPUsPerDomain = len(m.domains[0].CPUs)
		cfg.MemoryPerDomain = m.domains[0].Memory
	}
	if m.NumDomains() > 1 {
		cfg.RemoteDistance = m.distance[0][1]
		if !m.Uniform() {
			cfg.Distances = m.Distances()
		}
	}
	return cfg
}

// String returns a one-line summary, e.g.
// "amd-magny-cours-48: 8 domains x 6 CPUs, 16GiB/domain".
func (m *Machine) String() string {
	if len(m.domains) == 0 {
		return m.Name + ": empty"
	}
	return fmt.Sprintf("%s: %d domains x %d CPUs, %s/domain",
		m.Name, m.NumDomains(), len(m.domains[0].CPUs), m.domains[0].Memory)
}
