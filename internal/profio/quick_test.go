package profio

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cct"
	"repro/internal/isa"
	"repro/internal/metrics"
)

// buildRandomTree grows a deterministic pseudo-random CCT from a seed.
func buildRandomTree(seed int64) *cct.Tree {
	rng := rand.New(rand.NewSource(seed))
	tree := cct.New()
	nodes := []*cct.Node{tree.Root()}
	n := 5 + rng.Intn(60)
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		var key cct.Key
		switch rng.Intn(4) {
		case 0:
			key = cct.FrameKey(isa.FuncID(rng.Intn(8)), rng.Intn(100))
		case 1:
			key = cct.SiteKey(isa.SiteID(rng.Intn(16)))
		case 2:
			key = cct.VariableKey([]string{"x", "y", "z"}[rng.Intn(3)])
		default:
			key = cct.DummyKey([]string{cct.DummyAlloc, cct.DummyAccess, cct.DummyFirstTouch}[rng.Intn(3)])
		}
		node := parent.Child(key)
		if rng.Intn(2) == 0 {
			node.AddMetric(metrics.ID(rng.Intn(10)), float64(rng.Intn(1000)))
		}
		if rng.Intn(3) == 0 {
			base := rng.Uint64() % (1 << 40)
			node.ExtendRange(rng.Intn(8), base)
			node.ExtendRange(rng.Intn(8), base+uint64(rng.Intn(1<<16)))
		}
		nodes = append(nodes, node)
	}
	return tree
}

// treesEqual compares two CCTs structurally: at every node the same
// key, metrics and ranges, and the same children in key order.
func treesEqual(a, b *cct.Tree) bool { return nodesEqual(a.Root(), b.Root()) }

func nodesEqual(n, m *cct.Node) bool {
	nc, mc := n.Children(), m.Children()
	if n.Key != m.Key || len(nc) != len(mc) ||
		!reflect.DeepEqual(n.Metrics(), m.Metrics()) || !reflect.DeepEqual(n.Ranges(), m.Ranges()) {
		return false
	}
	for i := range nc {
		if !nodesEqual(nc[i], mc[i]) {
			return false
		}
	}
	return true
}

// Property: any CCT round-trips through the tree section's encoder and
// decoder intact.
func TestQuickTreeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		tree := buildRandomTree(seed)
		e := &encoder{}
		e.encodeTreeNode(tree.Root())
		d := decPool.Get().(*decoder)
		defer d.release()
		if err := d.readTree(e.body); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		back := cct.New()
		d.buildTree(back)
		return treesEqual(tree, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
