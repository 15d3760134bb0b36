// Package addrcentric implements the address-centric attribution of
// Section 5.2 of the paper: summarising, per thread, which part of each
// variable the thread actually touched. For every (variable, scope,
// thread) triple it maintains the [min, max] effective addresses
// accessed, the access count, and the accumulated latency, where a
// scope is either the whole program or one parallel region.
//
// The per-region scoping is what makes the analysis actionable: in the
// paper's AMG2006 study, RAP_diag_data's whole-program pattern is an
// uninterpretable blur (Figure 4), while the pattern inside
// hypre_BoomerAMGRelax._omp — the region with 74.2% of the variable's
// remote latency — is cleanly block-regular (Figure 5) and directly
// dictates the block-wise page distribution that fixes it.
package addrcentric

import (
	"sort"

	"repro/internal/cct"
	"repro/internal/datacentric"
	"repro/internal/units"
)

// WholeProgram is the scope covering all execution.
const WholeProgram = ""

// ThreadRange is one thread's summary for a variable in a scope.
type ThreadRange struct {
	Thread  int
	Range   cct.Range
	Count   uint64
	Latency units.Cycles
}

// normalize returns the range bounds normalised to [0,1] over the
// variable's extent.
func (tr ThreadRange) normalize(v *datacentric.Variable) (lo, hi float64) {
	return v.NormalizeAddr(tr.Range.Min), v.NormalizeAddr(tr.Range.Max)
}

// Pattern is the access pattern of one variable (or one of its bins —
// the synthetic sub-variables of Section 5.2) in one scope: one
// [min,max] summary per thread.
type Pattern struct {
	Var   *datacentric.Variable
	Scope string
	// Bin is WholeVariable for the full extent, or the bin index for
	// a synthetic sub-variable pattern.
	Bin int

	perThread map[int]*ThreadRange
}

// Threads returns the per-thread summaries sorted by thread id — the
// rows of the address-centric view.
func (p *Pattern) Threads() []ThreadRange {
	out := make([]ThreadRange, 0, len(p.perThread))
	for _, tr := range p.perThread {
		out = append(out, *tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}

// Normalized returns thread t's accessed range normalised to [0,1]
// over the variable's extent.
func (p *Pattern) Normalized(t int) (lo, hi float64, ok bool) {
	tr, found := p.perThread[t]
	if !found {
		return 0, 0, false
	}
	lo, hi = tr.normalize(p.Var)
	return lo, hi, true
}

// TotalLatency sums latency across threads.
func (p *Pattern) TotalLatency() units.Cycles {
	var total units.Cycles
	for _, tr := range p.perThread {
		total += tr.Latency
	}
	return total
}

// TotalCount sums access counts across threads.
func (p *Pattern) TotalCount() uint64 {
	var total uint64
	for _, tr := range p.perThread {
		total += tr.Count
	}
	return total
}

// MeanOverlap measures how much consecutive threads' normalised ranges
// overlap, averaged pairwise, as a regularity indicator: ~0 for the
// disjoint staircase of LULESH's z (Figure 3), large for Blackscholes'
// heavily overlapping buffer sections (Figure 8), and ~1 when every
// thread sweeps the whole variable.
func (p *Pattern) MeanOverlap() float64 {
	trs := p.Threads()
	if len(trs) < 2 {
		return 0
	}
	var sum float64
	var pairs int
	for i := 1; i < len(trs); i++ {
		a0, a1 := trs[i-1].normalize(p.Var)
		b0, b1 := trs[i].normalize(p.Var)
		lo, hi := maxf(a0, b0), minf(a1, b1)
		span := minf(a1-a0, b1-b0)
		if span <= 0 {
			continue
		}
		if hi > lo {
			sum += (hi - lo) / span
		}
		pairs++
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// IsStaircase reports whether threads touch essentially disjoint,
// monotonically increasing sub-ranges — the co-location-friendly
// pattern that tells the user a block-wise distribution will work
// (Sections 8.1, 8.2). tol is the tolerated normalised overlap between
// neighbours (e.g. 0.1).
func (p *Pattern) IsStaircase(tol float64) bool {
	trs := p.Threads()
	if len(trs) < 2 {
		return false
	}
	for i := 1; i < len(trs); i++ {
		_, prevHi := trs[i-1].normalize(p.Var)
		lo, hi := trs[i].normalize(p.Var)
		if hi < prevHi-tol { // ranges must march upward
			return false
		}
		if prevHi-lo > tol { // and overlap at most tol
			return false
		}
	}
	return true
}

// WholeVariable selects the pattern aggregated over a variable's full
// extent, as opposed to one of its bins.
const WholeVariable = -1

// key identifies a pattern bucket.
type key struct {
	varID int // allocation id
	bin   int // WholeVariable or a bin index
	scope string
}

// Tracker accumulates patterns. It is driven by the profiler: Record
// on every sampled access, EnterRegion/LeaveRegion at region bounds.
type Tracker struct {
	patterns map[key]*Pattern
	scope    string
}

// NewTracker creates an empty tracker scoped to the whole program.
func NewTracker() *Tracker {
	return &Tracker{patterns: make(map[key]*Pattern), scope: WholeProgram}
}

// EnterRegion switches the current region scope. Repeated entries to
// the same region name accumulate into one pattern (the paper
// aggregates a region's instances).
func (t *Tracker) EnterRegion(name string) { t.scope = name }

// LeaveRegion restores whole-program scope.
func (t *Tracker) LeaveRegion() { t.scope = WholeProgram }

// Record notes a sampled access by thread to addr within v, updating
// the whole-variable pattern and — for binned variables — the touched
// bin's own pattern (each bin is a synthetic variable with its own
// address-centric attribution, Section 5.2), in both the whole-program
// scope and the current region's.
func (t *Tracker) Record(v *datacentric.Variable, thread int, addr uint64, latency units.Cycles) {
	t.record(v, WholeVariable, WholeProgram, thread, addr, latency)
	if t.scope != WholeProgram {
		t.record(v, WholeVariable, t.scope, thread, addr, latency)
	}
	if v.Bins > 1 {
		bin := v.BinOf(addr)
		t.record(v, bin, WholeProgram, thread, addr, latency)
		if t.scope != WholeProgram {
			t.record(v, bin, t.scope, thread, addr, latency)
		}
	}
}

func (t *Tracker) record(v *datacentric.Variable, bin int, scope string, thread int, addr uint64, latency units.Cycles) {
	k := key{varID: v.Region.ID, bin: bin, scope: scope}
	p, ok := t.patterns[k]
	if !ok {
		p = &Pattern{Var: v, Scope: scope, Bin: bin, perThread: make(map[int]*ThreadRange)}
		t.patterns[k] = p
	}
	tr, ok := p.perThread[thread]
	if !ok {
		tr = &ThreadRange{Thread: thread, Range: cct.Range{Min: addr, Max: addr}}
		p.perThread[thread] = tr
	} else {
		tr.Range = tr.Range.Extend(addr)
	}
	tr.Count++
	tr.Latency += latency
}

// Pattern returns v's whole-extent pattern in the given scope.
func (t *Tracker) Pattern(v *datacentric.Variable, scope string) (*Pattern, bool) {
	p, ok := t.patterns[key{varID: v.Region.ID, bin: WholeVariable, scope: scope}]
	return p, ok
}

// BinPattern returns the pattern of one bin of v in the given scope.
func (t *Tracker) BinPattern(v *datacentric.Variable, bin int, scope string) (*Pattern, bool) {
	p, ok := t.patterns[key{varID: v.Region.ID, bin: bin, scope: scope}]
	return p, ok
}

// HotBin returns the bin of v with the most sampled accesses in the
// scope, with its pattern — Section 5.2's "we only use the access
// patterns of the hot bins to represent the access patterns of the
// whole variable". ok is false for unbinned or unsampled variables.
func (t *Tracker) HotBin(v *datacentric.Variable, scope string) (bin int, p *Pattern, ok bool) {
	var best uint64
	for b := 0; b < v.Bins; b++ {
		if bp, found := t.BinPattern(v, b, scope); found {
			if c := bp.TotalCount(); c > best || (c == best && !ok) {
				best, bin, p, ok = c, b, bp, true
			}
		}
	}
	if best == 0 {
		return 0, nil, false
	}
	return bin, p, ok
}

// Scopes returns every scope that has a pattern for v, whole-program
// first, then region scopes sorted by descending latency — the order a
// user drills down in (Section 5.2: use latency to pick the contexts
// that matter).
func (t *Tracker) Scopes(v *datacentric.Variable) []string {
	type sc struct {
		name string
		lat  units.Cycles
	}
	var regions []sc
	hasWhole := false
	for k, p := range t.patterns {
		if k.varID != v.Region.ID || k.bin != WholeVariable {
			continue
		}
		if k.scope == WholeProgram {
			hasWhole = true
			continue
		}
		regions = append(regions, sc{k.scope, p.TotalLatency()})
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].lat != regions[j].lat {
			return regions[i].lat > regions[j].lat
		}
		return regions[i].name < regions[j].name
	})
	var out []string
	if hasWhole {
		out = append(out, WholeProgram)
	}
	for _, r := range regions {
		out = append(out, r.name)
	}
	return out
}

// RestoreBin installs a fully formed pattern for one bin (bin may be
// WholeVariable), for profile deserialisation. Existing data for the
// same (variable, bin, scope) is replaced.
func (t *Tracker) RestoreBin(v *datacentric.Variable, bin int, scope string, trs []ThreadRange) {
	p := &Pattern{Var: v, Scope: scope, Bin: bin, perThread: make(map[int]*ThreadRange, len(trs))}
	for _, tr := range trs {
		cp := tr
		p.perThread[tr.Thread] = &cp
	}
	t.patterns[key{varID: v.Region.ID, bin: bin, scope: scope}] = p
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
