package addrcentric

import (
	"math"
	"testing"

	"repro/internal/datacentric"
	"repro/internal/vm"
)

func testVar(id int, base, size uint64) *datacentric.Variable {
	return &datacentric.Variable{
		Name:   "z",
		Region: vm.Region{ID: id, Base: base, Size: size},
		Bins:   1,
	}
}

func TestRecordAndPattern(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 1000, 1000)
	tr.Record(v, 0, 1100, 50)
	tr.Record(v, 0, 1300, 70)
	tr.Record(v, 1, 1900, 200)

	p, ok := tr.Pattern(v, WholeProgram)
	if !ok {
		t.Fatal("whole-program pattern missing")
	}
	r0, ok := p.perThread[0]
	if !ok || r0.Range.Min != 1100 || r0.Range.Max != 1300 || r0.Count != 2 || r0.Latency != 120 {
		t.Fatalf("thread 0 = %+v", r0)
	}
	if p.TotalCount() != 3 || p.TotalLatency() != 320 {
		t.Fatalf("totals = %d, %v", p.TotalCount(), p.TotalLatency())
	}
	if _, ok := p.perThread[9]; ok {
		t.Fatal("absent thread should have no range")
	}
}

func TestNormalized(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 1000, 1000)
	tr.Record(v, 2, 1250, 0)
	tr.Record(v, 2, 1750, 0)
	p, _ := tr.Pattern(v, WholeProgram)
	lo, hi, ok := p.Normalized(2)
	if !ok || math.Abs(lo-0.25) > 1e-9 || math.Abs(hi-0.75) > 1e-9 {
		t.Fatalf("Normalized = %v, %v, %v", lo, hi, ok)
	}
	if _, _, ok := p.Normalized(5); ok {
		t.Fatal("absent thread should not normalise")
	}
}

func TestRegionScoping(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0x10000, 8000)

	// Irregular whole-program accesses from two different regions.
	tr.EnterRegion("relax._omp")
	tr.Record(v, 0, 0x10000, 10)
	tr.Record(v, 1, 0x10000+2000, 10)
	tr.LeaveRegion()

	tr.EnterRegion("interp._omp")
	tr.Record(v, 0, 0x10000+7000, 10)
	tr.LeaveRegion()

	whole, _ := tr.Pattern(v, WholeProgram)
	r0, _ := whole.perThread[0]
	if r0.Range.Min != 0x10000 || r0.Range.Max != 0x10000+7000 {
		t.Fatalf("whole-program thread 0 range = %+v", r0.Range)
	}

	relax, ok := tr.Pattern(v, "relax._omp")
	if !ok {
		t.Fatal("region pattern missing")
	}
	rr0, _ := relax.perThread[0]
	if rr0.Range.Max != 0x10000 {
		t.Fatalf("region thread 0 range = %+v (should exclude other region)", rr0.Range)
	}
	if _, ok := relax.perThread[1]; !ok {
		t.Fatal("region should track thread 1")
	}
}

func TestScopesOrderedByLatency(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0, 10000)
	tr.EnterRegion("cold")
	tr.Record(v, 0, 10, 5)
	tr.LeaveRegion()
	tr.EnterRegion("hot")
	tr.Record(v, 0, 20, 500)
	tr.LeaveRegion()
	scopes := tr.Scopes(v)
	if len(scopes) != 3 || scopes[0] != WholeProgram || scopes[1] != "hot" || scopes[2] != "cold" {
		t.Fatalf("scopes = %q", scopes)
	}
}

// The Figure 3 pattern: each thread touches a disjoint ascending block.
func TestStaircaseDetection(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0, 8000)
	for th := 0; th < 8; th++ {
		base := uint64(th) * 1000
		tr.Record(v, th, base, 10)
		tr.Record(v, th, base+999, 10)
	}
	p, _ := tr.Pattern(v, WholeProgram)
	if !p.IsStaircase(0.05) {
		t.Fatal("disjoint ascending blocks should be a staircase")
	}
	if ov := p.MeanOverlap(); ov > 0.01 {
		t.Fatalf("MeanOverlap = %v, want ~0", ov)
	}
}

// The Figure 8 pattern: threads touch heavily overlapping staggered
// ranges (Blackscholes' five buffer sections).
func TestOverlappingPatternIsNotStaircase(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0, 0x900)
	// Paper's example: threads touch (0x100,0x700), (0x200,0x800), (0x300,0x900).
	spans := [][2]uint64{{0x100, 0x700}, {0x200, 0x800}, {0x300, 0x900}}
	for th, s := range spans {
		tr.Record(v, th, s[0], 10)
		tr.Record(v, th, s[1]-1, 10)
	}
	p, _ := tr.Pattern(v, WholeProgram)
	if p.IsStaircase(0.1) {
		t.Fatal("staggered overlapping ranges are not a staircase")
	}
	if ov := p.MeanOverlap(); ov < 0.5 {
		t.Fatalf("MeanOverlap = %v, want large", ov)
	}
}

func TestFullSweepPattern(t *testing.T) {
	// Every thread sweeps the whole variable: maximal overlap.
	tr := NewTracker()
	v := testVar(0, 0, 10000)
	for th := 0; th < 4; th++ {
		tr.Record(v, th, 0, 1)
		tr.Record(v, th, 9999, 1)
	}
	p, _ := tr.Pattern(v, WholeProgram)
	if ov := p.MeanOverlap(); math.Abs(ov-1.0) > 1e-9 {
		t.Fatalf("MeanOverlap = %v, want 1.0", ov)
	}
	if p.IsStaircase(0.1) {
		t.Fatal("full sweep is not a staircase")
	}
}

func TestSingleThreadPatternDegenerate(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0, 100)
	tr.Record(v, 0, 50, 1)
	p, _ := tr.Pattern(v, WholeProgram)
	if p.MeanOverlap() != 0 {
		t.Error("single thread overlap should be 0")
	}
	if p.IsStaircase(0.1) {
		t.Error("single thread is not a staircase")
	}
}

// Section 5.2: bins are synthetic variables with their own
// address-centric attributions; the hot bin's pattern represents the
// variable.
func TestBinPatternsAndHotBin(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0x10000, 50000)
	v.Bins = 5 // 10000 bytes per bin

	// 90% of accesses land in bin 4, spread as a staircase across
	// threads; a few stray accesses hit bin 0.
	hotLo := v.Region.Base + 40000
	for th := 0; th < 4; th++ {
		for k := 0; k < 9; k++ {
			tr.Record(v, th, hotLo+uint64(th)*2500+uint64(k)*64, 10)
		}
	}
	tr.Record(v, 0, v.Region.Base+100, 10)

	bin, hot, ok := tr.HotBin(v, WholeProgram)
	if !ok || bin != 4 {
		t.Fatalf("HotBin = %d, %v; want 4, true", bin, ok)
	}
	if hot.TotalCount() != 36 {
		t.Fatalf("hot bin count = %d, want 36", hot.TotalCount())
	}
	if hot.Bin != 4 {
		t.Fatalf("pattern Bin = %d", hot.Bin)
	}
	// The cold bin has its own, separate pattern.
	cold, ok := tr.BinPattern(v, 0, WholeProgram)
	if !ok || cold.TotalCount() != 1 {
		t.Fatalf("cold bin = %+v, %v", cold, ok)
	}
	// The whole-variable pattern still aggregates everything.
	whole, _ := tr.Pattern(v, WholeProgram)
	if whole.TotalCount() != 37 {
		t.Fatalf("whole count = %d, want 37", whole.TotalCount())
	}
	// Unbinned variable: no bin patterns, no hot bin.
	u := testVar(1, 0x90000, 100)
	tr.Record(u, 0, u.Region.Base, 1)
	if _, _, ok := tr.HotBin(u, WholeProgram); ok {
		t.Fatal("unbinned variable should have no hot bin")
	}
}

// The paper's reason for per-bin patterns: the whole-variable pattern
// can look like every thread sweeps everything, while the hot bin shows
// a clean staircase that the whole-extent normalisation flattens.
func TestHotBinRevealsPatternHiddenAtFullExtent(t *testing.T) {
	tr := NewTracker()
	v := testVar(0, 0, 100000)
	v.Bins = 5
	// All threads touch scattered cold addresses across the extent...
	for th := 0; th < 4; th++ {
		tr.Record(v, th, uint64(th)*11, 1)
		tr.Record(v, th, 99990-uint64(th)*7, 1)
	}
	// ...but the hot bin (bin 2: [40000,60000)) is a staircase.
	for th := 0; th < 4; th++ {
		base := 40000 + uint64(th)*5000
		for k := 0; k < 20; k++ {
			tr.Record(v, th, base+uint64(k)*64, 10)
		}
	}
	whole, _ := tr.Pattern(v, WholeProgram)
	if whole.IsStaircase(0.1) {
		t.Fatal("whole-extent pattern should be blurred by the cold accesses")
	}
	_, hot, ok := tr.HotBin(v, WholeProgram)
	if !ok {
		t.Fatal("no hot bin")
	}
	// Per-thread hot-bin ranges are disjoint ascending blocks; check
	// via raw ranges (normalisation is relative to the whole extent).
	trs := hot.Threads()
	if len(trs) != 4 {
		t.Fatalf("hot bin threads = %d", len(trs))
	}
	for i := 1; i < len(trs); i++ {
		if trs[i].Range.Min <= trs[i-1].Range.Max {
			t.Fatalf("hot-bin ranges overlap: %+v then %+v", trs[i-1].Range, trs[i].Range)
		}
	}
}
