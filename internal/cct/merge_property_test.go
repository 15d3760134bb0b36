package cct

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
)

// Property tests for the columnar shard merge. The differential oracle
// below (refNode / refMerge) is the node-by-node map-based merge the
// arena implementation replaced: metrics in a map keyed by metrics.ID,
// ranges in a map keyed by owner, children in a map keyed by Key, each
// node merged recursively. Randomized forests must merge to the same
// tree through both implementations, and MergeShards must be invariant
// under shard order (commutative), grouping (associative), and worker
// count — the invariants that license core.finish's parallel merge.
//
// All generated metric deltas are integral: that is the profiler's
// contract (see the package comment) and what makes float addition
// exact. The properties pinned here are claims about that regime, not
// about arbitrary float inputs.

// refNode is the oracle's tree node.
type refNode struct {
	metrics  map[metrics.ID]float64
	ranges   map[int]Range
	children map[Key]*refNode
}

func newRefNode() *refNode {
	return &refNode{
		metrics:  map[metrics.ID]float64{},
		ranges:   map[int]Range{},
		children: map[Key]*refNode{},
	}
}

// refFromTree copies a Tree into oracle form.
func refFromTree(t *Tree) *refNode {
	return refFromNode(t.Root())
}

func refFromNode(n *Node) *refNode {
	r := newRefNode()
	for id, v := range n.Metrics() {
		r.metrics[id] = v
	}
	for owner, rg := range n.Ranges() {
		r.ranges[owner] = rg
	}
	for _, c := range n.Children() {
		r.children[c.Key] = refFromNode(c)
	}
	return r
}

// refMerge is the old node-by-node merge: sum reduction for metrics,
// [min,max] union for ranges, recursive merge by child key.
func refMerge(dst, src *refNode) {
	for id, v := range src.metrics {
		dst.metrics[id] += v
	}
	for owner, rg := range src.ranges {
		if have, ok := dst.ranges[owner]; ok {
			dst.ranges[owner] = have.Union(rg)
		} else {
			dst.ranges[owner] = rg
		}
	}
	for k, c := range src.children {
		d, ok := dst.children[k]
		if !ok {
			d = newRefNode()
			dst.children[k] = d
		}
		refMerge(d, c)
	}
}

// renderRef serializes an oracle tree canonically (sorted keys at
// every level) so trees can be compared as strings with legible diffs.
func renderRef(r *refNode, b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	ids := make([]metrics.ID, 0, len(r.metrics))
	for id, v := range r.metrics {
		if v != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(b, "%sm[%d]=%v\n", indent, id, r.metrics[id])
	}
	owners := make([]int, 0, len(r.ranges))
	for o := range r.ranges {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		fmt.Fprintf(b, "%sr[%d]=%v\n", indent, o, r.ranges[o])
	}
	keys := make([]Key, 0, len(r.children))
	for k := range r.children {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		fmt.Fprintf(b, "%s%+v\n", indent, k)
		renderRef(r.children[k], b, depth+1)
	}
}

func refString(r *refNode) string {
	var b strings.Builder
	renderRef(r, &b, 0)
	return b.String()
}

func treeString(t *Tree) string {
	return refString(refFromTree(t))
}

// randKey draws a child key; the small value ranges force heavy path
// overlap between independently generated trees, which is what makes
// the merge properties non-trivial.
func randKey(rng *rand.Rand) Key {
	switch rng.Intn(5) {
	case 0:
		return FrameKey(isa.FuncID(rng.Intn(4)), rng.Intn(3))
	case 1:
		return SiteKey(isa.SiteID(rng.Intn(6)))
	case 2:
		return DummyKey([]string{DummyAlloc, DummyAccess, DummyFirstTouch}[rng.Intn(3)])
	case 3:
		return VariableKey(fmt.Sprintf("v%d", rng.Intn(3)))
	default:
		return BinKey(fmt.Sprintf("v%d", rng.Intn(3)), rng.Intn(4))
	}
}

// randTree grows a random tree of about size nodes with integral
// metric values and per-owner ranges.
func randTree(rng *rand.Rand, size int) *Tree {
	t := New()
	nodes := []*Node{t.Root()}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		n := parent.Child(randKey(rng))
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		for i := rng.Intn(4); i > 0; i-- {
			id := metrics.ID(rng.Intn(int(metrics.NodeBase) + 8))
			n.AddMetric(id, float64(rng.Intn(1000)))
		}
		for i := rng.Intn(3); i > 0; i-- {
			n.ExtendRange(rng.Intn(6), uint64(rng.Intn(1<<20)))
		}
	}
	return t
}

// TestMergeShardsMatchesNodeByNodeOracle is the differential test: a
// randomized forest merged by MergeShards (at several worker counts)
// must equal the same forest merged by the retained map-based oracle.
func TestMergeShardsMatchesNodeByNodeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		nShards := 1 + rng.Intn(12)
		shards := make([]*Tree, nShards)
		for i := range shards {
			shards[i] = randTree(rng, 5+rng.Intn(60))
		}

		want := newRefNode()
		for _, s := range shards {
			refMerge(want, refFromTree(s))
		}
		wantStr := refString(want)

		for _, workers := range []int{1, 2, 4, 8} {
			dst := New()
			merged, skipped := MergeShards(dst, shards, workers)
			if merged != nShards || len(skipped) != 0 {
				t.Fatalf("round %d workers %d: merged %d of %d, skipped %v",
					round, workers, merged, nShards, skipped)
			}
			if got := treeString(dst); got != wantStr {
				t.Fatalf("round %d workers %d: merge disagrees with node-by-node oracle\ngot:\n%s\nwant:\n%s",
					round, workers, got, wantStr)
			}
		}
	}
}

// TestMergeCommutativeAndAssociative pins the algebra on metric totals
// and full tree shape: shard order and grouping must not change the
// merged result. Integral metrics make float addition exact, so the
// comparison is bitwise, not approximate.
func TestMergeCommutativeAndAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		a := randTree(rng, 40)
		b := randTree(rng, 40)
		c := randTree(rng, 40)

		mergeAll := func(order ...*Tree) string {
			dst := New()
			for _, s := range order {
				MergeTrees(dst, s)
			}
			return treeString(dst)
		}

		abc := mergeAll(a, b, c)
		if got := mergeAll(c, b, a); got != abc {
			t.Fatalf("round %d: merge not commutative:\n(c,b,a):\n%s\n(a,b,c):\n%s", round, got, abc)
		}
		if got := mergeAll(b, a, c); got != abc {
			t.Fatalf("round %d: merge not commutative:\n(b,a,c):\n%s\n(a,b,c):\n%s", round, got, abc)
		}

		// Associativity over grouping: ((a+b)+c) vs (a+(b+c)).
		left := New()
		MergeTrees(left, a)
		MergeTrees(left, b)
		MergeTrees(left, c)

		bc := New()
		MergeTrees(bc, b)
		MergeTrees(bc, c)
		right := New()
		MergeTrees(right, a)
		MergeTrees(right, bc)

		if l, r := treeString(left), treeString(right); l != r {
			t.Fatalf("round %d: merge not associative:\n((a+b)+c):\n%s\n(a+(b+c)):\n%s", round, l, r)
		}

		// And the totals line up with plain sums.
		wantSamples := refFromTree(a).inclusive(metrics.Samples) +
			refFromTree(b).inclusive(metrics.Samples) +
			refFromTree(c).inclusive(metrics.Samples)
		if got := left.Root().InclusiveMetric(metrics.Samples); got != wantSamples {
			t.Fatalf("round %d: inclusive Samples %v, want %v", round, got, wantSamples)
		}
	}
}

func (r *refNode) inclusive(id metrics.ID) float64 {
	total := r.metrics[id]
	for _, c := range r.children {
		total += c.inclusive(id)
	}
	return total
}

// TestMergeShardsSkipsNilShards pins the salvage contract: nil entries
// (per-thread profiles lost before the merge) are skipped and reported
// by index, and the survivors still merge to the oracle result. A
// forest of nil shards merges nothing, and an empty one reports no
// skipped index at all.
func TestMergeShardsSkipsNilShards(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	holes := make([]*Tree, 10)
	for i := range holes {
		if i%3 != 1 { // leave a hole at 1, 4 and 7
			holes[i] = randTree(rng, 30)
		}
	}
	cases := []struct {
		name    string
		shards  []*Tree
		merged  int
		skipped []int
	}{
		{"holes", holes, 7, []int{1, 4, 7}},
		{"all nil", []*Tree{nil, nil}, 0, []int{0, 1}},
		{"nil slice", nil, 0, nil},
	}
	for _, c := range cases {
		want := newRefNode()
		for _, s := range c.shards {
			if s != nil {
				refMerge(want, refFromTree(s))
			}
		}
		for _, workers := range []int{1, 4} {
			dst := New()
			merged, skipped := MergeShards(dst, c.shards, workers)
			if merged != c.merged {
				t.Errorf("%s, workers %d: merged = %d, want %d", c.name, workers, merged, c.merged)
			}
			if !equalInts(skipped, c.skipped) || (skipped == nil) != (c.skipped == nil) {
				t.Errorf("%s, workers %d: skipped = %#v, want %#v", c.name, workers, skipped, c.skipped)
			}
			if got, wantStr := treeString(dst), refString(want); got != wantStr {
				t.Errorf("%s, workers %d: salvaged merge disagrees with oracle", c.name, workers)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzMergeShards drives the shard merge with adversarial tree shapes
// decoded from raw bytes: deep chains, huge fan-outs that cross the
// index threshold, metric ids at the edges of the column space, range
// owners both inline and overflowing. It must never panic, and the
// parallel merge must equal the serial merge exactly.
func FuzzMergeShards(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4), uint8(3))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55}, uint8(1), uint8(9))
	f.Add(make([]byte, 64), uint8(12), uint8(2))
	f.Add([]byte("deep chains and wide fans"), uint8(8), uint8(64))

	f.Fuzz(func(t *testing.T, data []byte, nShards, workers uint8) {
		n := int(nShards)%16 + 1
		shards := make([]*Tree, n)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		for i := range shards {
			if next()%7 == 0 {
				continue // nil shard: the salvage path must hold under fuzz too
			}
			tr := New()
			cur := tr.Root()
			ops := int(next())%96 + 1
			for o := 0; o < ops; o++ {
				switch next() % 6 {
				case 0: // descend into a (possibly new) child
					cur = cur.Child(FrameKey(isa.FuncID(next()%8), int(next()%4)))
				case 1: // wide fan-out to stress the index threshold
					for j := byte(0); j < next()%80; j++ {
						cur.Child(SiteKey(isa.SiteID(j)))
					}
				case 2:
					cur.AddMetric(metrics.ID(int(next())%(int(metrics.NodeBase)+12)), float64(next()))
				case 3:
					cur.ExtendRange(int(next()%10), uint64(next())<<uint(next()%24))
				case 4:
					cur = cur.Child(BinKey(string(rune('a'+next()%3)), int(next()%5)))
				default: // pop toward the root
					if cur.parent != nil {
						cur = cur.parent
					}
				}
			}
			shards[i] = tr
		}

		serial := New()
		sm, ss := MergeShards(serial, shards, 1)
		parallel := New()
		pm, ps := MergeShards(parallel, shards, int(workers))
		if sm != pm || !equalInts(ss, ps) {
			t.Fatalf("serial merged %d skipped %v; parallel merged %d skipped %v", sm, ss, pm, ps)
		}
		if got, want := treeString(parallel), treeString(serial); got != want {
			t.Fatalf("parallel merge diverged from serial merge\nparallel:\n%s\nserial:\n%s", got, want)
		}
	})
}
