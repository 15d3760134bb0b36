package topology

import (
	"sort"

	"repro/internal/units"
)

// The five machines from Table 1 of the paper. The paper evaluated
// HPCToolkit-NUMA on one machine per address-sampling mechanism; we
// reconstruct each from the configurations described in Sections 7-8.

// MagnyCours48 models the four-socket, 48-core AMD Magny-Cours system
// used for IBS and Soft-IBS experiments: each 12-core package contains
// two 6-core dies, each die its own NUMA domain, for 8 domains total
// and 128 GiB of memory evenly divided among them (Section 8).
func MagnyCours48() *Machine {
	return New(Config{
		Name:            "amd-magny-cours-48",
		ClockGHz:        2.1,
		NumDomains:      8,
		CPUsPerDomain:   6,
		MemoryPerDomain: 16 * units.GiB,
		RemoteDistance:  16, // one/two HyperTransport hops, averaged
	})
}

// Power7x128 models the four-socket, eight-core POWER7 system used for
// MRK experiments: 128 SMT hardware threads and 64 GiB of memory, with
// each socket treated as one NUMA domain (Section 8).
func Power7x128() *Machine {
	return New(Config{
		Name:            "ibm-power7-128",
		ClockGHz:        3.8,
		NumDomains:      4,
		CPUsPerDomain:   32, // 8 cores x SMT4
		MemoryPerDomain: 16 * units.GiB,
		// POWER7's off-chip fabric has a comparatively high remote
		// penalty; this drives the paper's observation that
		// interleaving *hurts* LULESH on POWER7 (Section 8.1).
		RemoteDistance: 24,
	})
}

// Harpertown8 models the 8-thread Intel Xeon Harpertown system used
// for PEBS experiments. Harpertown is a front-side-bus part; we model
// the two-socket system as two domains to exercise the tool on a
// shallow NUMA topology.
func Harpertown8() *Machine {
	return New(Config{
		Name:            "intel-harpertown-8",
		ClockGHz:        2.8,
		NumDomains:      2,
		CPUsPerDomain:   4,
		MemoryPerDomain: 8 * units.GiB,
		RemoteDistance:  14,
	})
}

// Itanium2x8 models the 8-thread Intel Itanium 2 system used for DEAR
// experiments.
func Itanium2x8() *Machine {
	return New(Config{
		Name:            "intel-itanium2-8",
		ClockGHz:        1.6,
		NumDomains:      2,
		CPUsPerDomain:   4,
		MemoryPerDomain: 8 * units.GiB,
		RemoteDistance:  17,
	})
}

// IvyBridge8 models the 8-thread Intel Ivy Bridge system used for
// PEBS-LL experiments.
func IvyBridge8() *Machine {
	return New(Config{
		Name:            "intel-ivybridge-8",
		ClockGHz:        3.0,
		NumDomains:      2,
		CPUsPerDomain:   4,
		MemoryPerDomain: 16 * units.GiB,
		RemoteDistance:  21,
	})
}

// presets maps each Table-1 machine's name to its constructor.
var presets = map[string]func() *Machine{
	"amd-magny-cours-48": MagnyCours48,
	"ibm-power7-128":     Power7x128,
	"intel-harpertown-8": Harpertown8,
	"intel-itanium2-8":   Itanium2x8,
	"intel-ivybridge-8":  IvyBridge8,
}

// Preset builds the Table-1 machine with the given name.
func Preset(name string) (*Machine, bool) {
	build, ok := presets[name]
	if !ok {
		return nil, false
	}
	return build(), true
}

// PresetNames returns the names of the Table-1 machines, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Presets returns all five Table-1 machines keyed by name.
func Presets() map[string]*Machine {
	out := make(map[string]*Machine, len(presets))
	for name, build := range presets {
		out[name] = build()
	}
	return out
}
