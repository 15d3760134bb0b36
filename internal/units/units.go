// Package units defines the primitive quantities shared by every layer
// of the simulated NUMA machine: cycles, bytes, and page geometry.
//
// Keeping these in a leaf package lets the memory system, caches,
// interconnect, execution engine, and profiler agree on representations
// without import cycles.
package units

import "fmt"

// Cycles counts simulated processor clock cycles. All latencies and
// durations in the simulator are expressed in cycles; wall-clock time
// is derived by dividing by a machine's clock rate.
type Cycles uint64

// Scale returns c multiplied by factor, rounding to the nearest cycle.
// Factors below zero are treated as zero.
func (c Cycles) Scale(factor float64) Cycles {
	if factor <= 0 {
		return 0
	}
	return Cycles(float64(c)*factor + 0.5)
}

func (c Cycles) String() string { return fmt.Sprintf("%d cyc", uint64(c)) }

// Bytes is a size in bytes.
type Bytes uint64

// Common sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

func (b Bytes) String() string {
	switch {
	case b >= GiB && b%GiB == 0:
		return fmt.Sprintf("%dGiB", uint64(b/GiB))
	case b >= MiB && b%MiB == 0:
		return fmt.Sprintf("%dMiB", uint64(b/MiB))
	case b >= KiB && b%KiB == 0:
		return fmt.Sprintf("%dKiB", uint64(b/KiB))
	default:
		return fmt.Sprintf("%dB", uint64(b))
	}
}

// PageSize is the simulated virtual-memory page size. The paper's
// first-touch analysis and libnuma's move_pages both operate at page
// granularity, so the whole toolkit shares this constant.
const PageSize Bytes = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageOf returns the page index containing the address.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the first address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (uint64(PageSize) - 1) }

// PagesSpanned returns how many pages the half-open range
// [base, base+size) touches. A zero-size range spans zero pages.
func PagesSpanned(base, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := PageOf(base)
	last := PageOf(base + size - 1)
	return last - first + 1
}
