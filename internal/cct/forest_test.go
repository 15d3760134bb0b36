package cct

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// These two tests keep the names they had when the serial salvage merge
// was the MergeForest wrapper; they now call what it ran, MergeShards
// at one worker. Some per-thread trees may be missing (nil) and the
// merged tree must sum over the survivors only, reporting exactly which
// slots were skipped.
func TestMergeForestSkipsNilTrees(t *testing.T) {
	mk := func(v float64) *Tree {
		tr := New()
		tr.Root().Child(FrameKey(0, 0)).AddMetric(metrics.Samples, v)
		return tr
	}
	dst := New()
	merged, skipped := MergeShards(dst, []*Tree{mk(1), nil, mk(2), nil, mk(4)}, 1)
	if merged != 3 {
		t.Errorf("merged = %d, want 3", merged)
	}
	if !reflect.DeepEqual(skipped, []int{1, 3}) {
		t.Errorf("skipped = %v, want [1 3]", skipped)
	}
	n, ok := dst.Root().FindChild(FrameKey(0, 0))
	if !ok {
		t.Fatal("merged node missing")
	}
	if got := n.Metric(metrics.Samples); got != 7 {
		t.Errorf("merged samples = %v, want 1+2+4 = 7", got)
	}
}

func TestMergeForestAllNil(t *testing.T) {
	dst := New()
	merged, skipped := MergeShards(dst, []*Tree{nil, nil}, 1)
	if merged != 0 || !reflect.DeepEqual(skipped, []int{0, 1}) {
		t.Errorf("merged %d skipped %v", merged, skipped)
	}
	if len(dst.Root().Children()) != 0 {
		t.Error("nothing should have merged")
	}
	if m, s := MergeShards(dst, nil, 1); m != 0 || s != nil {
		t.Errorf("empty forest: merged %d skipped %v", m, s)
	}
}
