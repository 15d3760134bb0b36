package cct

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestChildGetOrCreate(t *testing.T) {
	tr := New()
	k := FrameKey(1, 10)
	a := tr.Root().Child(k)
	b := tr.Root().Child(k)
	if a != b {
		t.Fatal("Child should return the same node for the same key")
	}
	if a.parent != tr.Root() {
		t.Fatal("parent link broken")
	}
	if _, ok := tr.Root().FindChild(FrameKey(2, 10)); ok {
		t.Fatal("FindChild should not create")
	}
}

func TestInsertAndFindPath(t *testing.T) {
	tr := New()
	path := []Key{
		FrameKey(0, 0),
		FrameKey(1, 42),
		DummyKey(DummyAlloc),
		VariableKey("z"),
	}
	leaf := tr.Root().InsertPath(path)
	if again := tr.Root().InsertPath(path); again != leaf || tr.Root().Size() != 1+len(path) {
		t.Fatal("InsertPath of an inserted path should find its leaf, creating nothing")
	}
	if got := leaf.Path(); !reflect.DeepEqual(got, path) {
		t.Fatalf("Path() = %+v, want %+v", got, path)
	}
}

func TestMetricsExclusiveAndInclusive(t *testing.T) {
	tr := New()
	a := tr.Root().Child(FrameKey(0, 0))
	b := a.Child(FrameKey(1, 5))
	c := a.Child(FrameKey(2, 9))
	a.AddMetric(metrics.Mismatch, 1)
	b.AddMetric(metrics.Mismatch, 2)
	c.AddMetric(metrics.Mismatch, 3)
	if got := a.Metric(metrics.Mismatch); got != 1 {
		t.Errorf("exclusive = %v, want 1", got)
	}
	if got := a.InclusiveMetric(metrics.Mismatch); got != 6 {
		t.Errorf("inclusive = %v, want 6", got)
	}
	if got := tr.Root().InclusiveMetric(metrics.Mismatch); got != 6 {
		t.Errorf("root inclusive = %v, want 6", got)
	}
}

func TestRanges(t *testing.T) {
	tr := New()
	n := tr.Root().Child(VariableKey("z"))
	n.ExtendRange(3, 100)
	n.ExtendRange(3, 50)
	n.ExtendRange(3, 200)
	n.ExtendRange(7, 1000)
	r, ok := n.Range(3)
	if !ok || r.Min != 50 || r.Max != 200 {
		t.Fatalf("Range(3) = %+v, %v", r, ok)
	}
	if owners := n.AppendRangeOwners(nil); !reflect.DeepEqual(owners, []int{3, 7}) {
		t.Fatalf("owners = %v", owners)
	}
	if _, ok := n.Range(99); ok {
		t.Fatal("absent owner should have no range")
	}
}

func TestChildrenDeterministicOrder(t *testing.T) {
	tr := New()
	tr.Root().Child(FrameKey(2, 0))
	tr.Root().Child(FrameKey(0, 0))
	tr.Root().Child(FrameKey(1, 0))
	tr.Root().Child(DummyKey("x"))
	var kinds []NodeKind
	var fns []int
	for _, c := range tr.Root().Children() {
		kinds = append(kinds, c.Key.Kind)
		if c.Key.Kind == KindFrame {
			fns = append(fns, int(c.Key.Fn))
		}
	}
	if !reflect.DeepEqual(fns, []int{0, 1, 2}) {
		t.Fatalf("frame order = %v", fns)
	}
	// KindFrame (1) sorts before KindDummy (3).
	if kinds[len(kinds)-1] != KindDummy {
		t.Fatalf("kind order = %v", kinds)
	}
}

func TestMergeSumsMetricsAndUnionsRanges(t *testing.T) {
	t1, t2 := New(), New()
	path := []Key{FrameKey(0, 0), VariableKey("z")}

	n1 := t1.Root().InsertPath(path)
	n1.AddMetric(metrics.Match, 5)
	n1.ExtendRange(0, 100)
	n1.ExtendRange(0, 300)

	n2 := t2.Root().InsertPath(path)
	n2.AddMetric(metrics.Match, 7)
	n2.AddMetric(metrics.Mismatch, 2)
	n2.ExtendRange(0, 50)
	n2.ExtendRange(1, 999)

	MergeTrees(t1, t2)
	merged := t1.Root().InsertPath(path)
	if got := merged.Metric(metrics.Match); got != 12 {
		t.Errorf("merged Match = %v, want 12", got)
	}
	if got := merged.Metric(metrics.Mismatch); got != 2 {
		t.Errorf("merged Mismatch = %v, want 2", got)
	}
	r, _ := merged.Range(0)
	if r.Min != 50 || r.Max != 300 {
		t.Errorf("merged range(0) = %+v, want [50,300]", r)
	}
	r1, ok := merged.Range(1)
	if !ok || r1.Min != 999 || r1.Max != 999 {
		t.Errorf("merged range(1) = %+v, %v", r1, ok)
	}
}

func TestMergeCreatesMissingSubtrees(t *testing.T) {
	t1, t2 := New(), New()
	t2.Root().InsertPath([]Key{FrameKey(5, 1), SiteKey(9)}).AddMetric(metrics.Samples, 3)
	MergeTrees(t1, t2)
	if t1.Root().Size() != 3 || t1.Root().InsertPath([]Key{FrameKey(5, 1), SiteKey(9)}).Metric(metrics.Samples) != 3 {
		t.Fatal("merge should create missing subtree with metrics")
	}
	// src unchanged
	if t2.Root().Size() != 3 {
		t.Fatalf("src size = %d, want 3", t2.Root().Size())
	}
}

func TestVisitPreorder(t *testing.T) {
	tr := New()
	tr.Root().InsertPath([]Key{FrameKey(0, 0), FrameKey(1, 1)})
	tr.Root().InsertPath([]Key{FrameKey(0, 0), FrameKey(2, 2)})
	var count int
	var rootFirst bool
	tr.Root().Visit(func(n *Node) {
		if count == 0 {
			rootFirst = n.Key.Kind == KindRoot
		}
		count++
	})
	if count != 4 || !rootFirst {
		t.Fatalf("visit count = %d, rootFirst = %v", count, rootFirst)
	}
	if tr.Root().Size() != 4 {
		t.Fatalf("Size = %d", tr.Root().Size())
	}
}

func TestKeyHelpers(t *testing.T) {
	if k := BinKey("z", 3); k.Kind != KindBin || k.Label != "z" || k.Line != 3 {
		t.Errorf("BinKey = %+v", k)
	}
	if k := SiteKey(7); k.Kind != KindSite || k.Site != 7 {
		t.Errorf("SiteKey = %+v", k)
	}
	if KindRoot.String() != "root" || KindBin.String() != "bin" {
		t.Error("kind names wrong")
	}
}

// Property: merging is "additive" — merging a tree into an empty tree
// twice doubles every metric.
func TestQuickMergeAdditive(t *testing.T) {
	f := func(vals []uint8) bool {
		src := New()
		for i, v := range vals {
			n := src.Root().InsertPath([]Key{FrameKey(0, 0), SiteKey(0).withLine(i)})
			n.AddMetric(metrics.Samples, float64(v))
		}
		dst := New()
		MergeTrees(dst, src)
		MergeTrees(dst, src)
		// dst has src's nodes in the same key order, each at twice
		// src's samples.
		var doubled func(s, d *Node) bool
		doubled = func(s, d *Node) bool {
			sc, dc := s.Children(), d.Children()
			if d.Metric(metrics.Samples) != 2*s.Metric(metrics.Samples) || len(sc) != len(dc) {
				return false
			}
			for i := range sc {
				if sc[i].Key != dc[i].Key || !doubled(sc[i], dc[i]) {
					return false
				}
			}
			return true
		}
		return doubled(src.Root(), dst.Root())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// withLine disambiguates site keys in the property test.
func (k Key) withLine(l int) Key {
	k.Line = l
	return k
}

// Property: Range.Union is commutative and idempotent.
func TestQuickRangeUnion(t *testing.T) {
	f := func(a0, a1, b0, b1 uint32) bool {
		a := Range{Min: uint64(min(a0, a1)), Max: uint64(max(a0, a1))}
		b := Range{Min: uint64(min(b0, b1)), Max: uint64(max(b0, b1))}
		if a.Union(b) != b.Union(a) {
			return false
		}
		if a.Union(a) != a {
			return false
		}
		u := a.Union(b)
		return u.Min <= a.Min && u.Min <= b.Min && u.Max >= a.Max && u.Max >= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func max(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
