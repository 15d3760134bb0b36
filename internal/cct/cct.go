// Package cct implements the augmented calling context trees of
// Section 7.1 of the paper. A CCT node is identified by what it
// represents — a procedure frame, an instruction site, a dummy
// separator, a variable, or a bin of a variable — and carries NUMA
// metric columns plus per-thread [min,max] address ranges.
//
// The "augmented" part is the paper's mixture of call-path flavours in
// one tree: variable allocation paths, memory access paths, and first
// touch paths, separated by dummy nodes so the viewer can distinguish
// the segments (Section 7.1). The offline analyzer merges per-thread
// trees with sum reductions for counters and the customised [min,max]
// reduction Section 7.2 calls out for address ranges.
//
// # Storage model
//
// Nodes live in slabs owned by their Tree (an arena), not as individual
// heap objects: creating a node bumps a cursor, and slabs are never
// reallocated, so node pointers stay stable for the tree's lifetime.
// Metric columns come from a per-tree float64 arena the same way, and a
// node's children form an intrusive singly-linked sibling list (with a
// map index grown only past a fan-out threshold). A single-owner
// address range is stored inline in the node. The effect is that
// building or merging a tree of N nodes costs O(N/slab) allocations
// instead of O(N) — the contract the cct_merge benchmark row gates.
//
// The merge itself is columnar: metric columns are dense []float64
// slices indexed by metrics.ID and are added elementwise. All metric
// deltas the profiler ever feeds in are integral and stay far below
// 2^53, so float addition is exact and merging is commutative and
// associative — the invariant that licenses MergeShards' parallel
// grouped fold (and that the property tests in this package pin down).
package cct

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/metrics"
)

// NodeKind classifies a CCT node.
type NodeKind uint8

// Node kinds.
const (
	// KindRoot is the tree root.
	KindRoot NodeKind = iota
	// KindFrame is a procedure frame on a call path.
	KindFrame
	// KindSite is a leaf instruction site (load/store/alloc).
	KindSite
	// KindDummy separates segments of different call-path flavours
	// (allocation path vs access path vs first-touch path).
	KindDummy
	// KindVariable anchors data-centric attribution for one variable.
	KindVariable
	// KindBin is one address sub-range (synthetic variable) of a
	// binned variable (Section 5.2).
	KindBin
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindFrame:
		return "frame"
	case KindSite:
		return "site"
	case KindDummy:
		return "dummy"
	case KindVariable:
		return "variable"
	case KindBin:
		return "bin"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Key identifies a child within its parent. Only the fields relevant
// for the kind participate (the rest stay zero), so Key is directly
// usable as a map key.
type Key struct {
	Kind  NodeKind
	Fn    isa.FuncID
	Line  int
	Site  isa.SiteID
	Label string
}

// FrameKey returns the key for a procedure frame entered from the
// given call-site line.
func FrameKey(fn isa.FuncID, callLine int) Key {
	return Key{Kind: KindFrame, Fn: fn, Line: callLine}
}

// SiteKey returns the key for an instruction site.
func SiteKey(site isa.SiteID) Key {
	return Key{Kind: KindSite, Site: site}
}

// DummyKey returns the key for a dummy separator node. The canonical
// labels are DummyAlloc, DummyAccess and DummyFirstTouch.
func DummyKey(label string) Key {
	return Key{Kind: KindDummy, Label: label}
}

// VariableKey returns the key for a variable node.
func VariableKey(name string) Key {
	return Key{Kind: KindVariable, Label: name}
}

// BinKey returns the key for bin idx of a variable.
func BinKey(variable string, idx int) Key {
	return Key{Kind: KindBin, Label: variable, Line: idx}
}

// Dummy separator labels (Section 7.1's "dummy nodes ... recorded for
// different purposes").
const (
	DummyAlloc      = "<allocation path>"
	DummyAccess     = "<access path>"
	DummyFirstTouch = "<first touch>"
)

// less orders keys deterministically for stable iteration and merging.
func (k Key) less(o Key) bool {
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.Fn != o.Fn {
		return k.Fn < o.Fn
	}
	if k.Line != o.Line {
		return k.Line < o.Line
	}
	if k.Site != o.Site {
		return k.Site < o.Site
	}
	return k.Label < o.Label
}

// Range is a [Min, Max] address interval (inclusive bounds).
type Range struct {
	Min, Max uint64
}

// Union returns the smallest range covering both.
func (r Range) Union(o Range) Range {
	out := r
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Extend grows the range to include addr.
func (r Range) Extend(addr uint64) Range {
	out := r
	if addr < out.Min {
		out.Min = addr
	}
	if addr > out.Max {
		out.Max = addr
	}
	return out
}

// ownerRange is one per-owner address range entry.
type ownerRange struct {
	owner int
	r     Range
}

// indexThreshold is the sibling count past which a node grows a map
// index over its children. Below it, the linear scan of the sibling
// list is both faster (no hashing of the Label string) and
// allocation-free; above it, the index keeps adversarial fan-outs
// (fuzzed trees, huge bin counts) from degrading Child to O(n).
const indexThreshold = 48

// Node is one CCT node. Nodes are created only through their Tree
// (Tree.Root, Node.Child, Node.InsertPath) and live in the tree's
// arena; the zero Node is not usable.
type Node struct {
	Key    Key
	parent *Node
	tree   *Tree

	// Children form an intrusive singly-linked list in insertion
	// order; index is grown lazily past indexThreshold.
	firstChild  *Node
	lastChild   *Node
	nextSibling *Node
	nchildren   int
	index       map[Key]*Node

	// metrics holds the exclusive metric columns indexed by
	// metrics.ID. The ID space is small and dense (a handful of core
	// counters plus one per-domain column), so a grow-on-demand slice
	// serves the per-sample AddMetric path without the map hashing
	// the profiler used to pay on every sample. The slice is carved
	// from the tree's float arena.
	metrics []float64

	// ranges holds per-owner [min,max] accessed-address intervals;
	// the owner key is a thread index. These are the values merged
	// with the [min,max] reduction of Section 7.2. The first owner is
	// stored inline (the overwhelmingly common case: a site node is
	// usually touched by one thread), with an overflow slice for the
	// rest.
	hasRange  bool
	range0    ownerRange
	rangeRest []ownerRange
}

// Tree is a calling context tree. It owns the arenas its nodes and
// metric columns live in; a Tree and its nodes belong to one goroutine
// at a time (concurrent reads are safe, mutation is not).
type Tree struct {
	root *Node

	// nodes is the current node slab: len is the used prefix, and the
	// slab is swapped (never reallocated) when full, so node pointers
	// stay stable.
	nodes []Node
	// floats is the current metric-column slab, same discipline.
	floats []float64
}

// Node slab sizing: slabs start small so per-thread trees with a
// handful of nodes stay cheap, and double up to a cap so large merged
// trees cost O(N/slab) allocations.
const (
	minNodeSlab  = 32
	maxNodeSlab  = 1024
	minFloatSlab = 256
	maxFloatSlab = 8192
)

// New creates an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root = t.newNode(Key{Kind: KindRoot}, nil)
	return t
}

// newNode carves one node out of the tree's arena.
func (t *Tree) newNode(k Key, parent *Node) *Node {
	if len(t.nodes) == cap(t.nodes) {
		size := cap(t.nodes) * 2
		if size < minNodeSlab {
			size = minNodeSlab
		}
		if size > maxNodeSlab {
			size = maxNodeSlab
		}
		t.nodes = make([]Node, 0, size)
	}
	t.nodes = t.nodes[:len(t.nodes)+1]
	n := &t.nodes[len(t.nodes)-1]
	n.Key = k
	n.parent = parent
	n.tree = t
	return n
}

// allocFloats carves a zeroed column slice of length n out of the
// tree's float arena. The result is capacity-clamped so it can never
// grow into a neighbour's columns.
func (t *Tree) allocFloats(n int) []float64 {
	if len(t.floats)+n > cap(t.floats) {
		size := cap(t.floats) * 2
		if size < minFloatSlab {
			size = minFloatSlab
		}
		if size > maxFloatSlab {
			size = maxFloatSlab
		}
		if size < n {
			size = n
		}
		t.floats = make([]float64, 0, size)
	}
	start := len(t.floats)
	t.floats = t.floats[:start+n]
	return t.floats[start : start+n : start+n]
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// findChild locates the child with the given key: map index when the
// node has one, sibling-list scan otherwise.
func (n *Node) findChild(k Key) (*Node, bool) {
	if n.index != nil {
		c, ok := n.index[k]
		return c, ok
	}
	for s := n.firstChild; s != nil; s = s.nextSibling {
		if s.Key == k {
			return s, true
		}
	}
	return nil, false
}

// Child returns the child with the given key, creating it if needed.
func (n *Node) Child(k Key) *Node {
	if c, ok := n.findChild(k); ok {
		return c
	}
	c := n.tree.newNode(k, n)
	if n.lastChild == nil {
		n.firstChild = c
	} else {
		n.lastChild.nextSibling = c
	}
	n.lastChild = c
	n.nchildren++
	if n.index != nil {
		n.index[k] = c
	} else if n.nchildren > indexThreshold {
		n.index = make(map[Key]*Node, 2*n.nchildren)
		for s := n.firstChild; s != nil; s = s.nextSibling {
			n.index[s.Key] = s
		}
	}
	return c
}

// FindChild returns the child with the given key, if present.
func (n *Node) FindChild(k Key) (*Node, bool) {
	return n.findChild(k)
}

// sortNodesByKey orders nodes by Key.less. Fan-outs are small in
// practice, so an allocation-free insertion sort is the fast path; big
// (adversarial) fan-outs fall back to sort.Slice.
func sortNodesByKey(nodes []*Node) {
	if len(nodes) <= 32 {
		for i := 1; i < len(nodes); i++ {
			for j := i; j > 0 && nodes[j].Key.less(nodes[j-1].Key); j-- {
				nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
			}
		}
		return
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key.less(nodes[j].Key) })
}

// AppendChildren appends the node's children to dst in deterministic
// key order and returns the extended slice. Callers on hot paths reuse
// dst across calls to stay allocation-free.
func (n *Node) AppendChildren(dst []*Node) []*Node {
	start := len(dst)
	for s := n.firstChild; s != nil; s = s.nextSibling {
		dst = append(dst, s)
	}
	sortNodesByKey(dst[start:])
	return dst
}

// Children returns the node's children in deterministic key order.
func (n *Node) Children() []*Node {
	if n.nchildren == 0 {
		return nil
	}
	return n.AppendChildren(make([]*Node, 0, n.nchildren))
}

// NumChildren returns the number of children.
func (n *Node) NumChildren() int { return n.nchildren }

// InsertPath walks keys from n, creating nodes as needed, and returns
// the final node.
func (n *Node) InsertPath(keys []Key) *Node {
	cur := n
	for _, k := range keys {
		cur = cur.Child(k)
	}
	return cur
}

// AddMetric accumulates delta into the metric column. Negative ids
// are ignored (no metric lives there).
func (n *Node) AddMetric(id metrics.ID, delta float64) {
	i := int(id)
	if i < 0 {
		return
	}
	if i >= len(n.metrics) {
		// Grow to at least the core-column count in one shot so the
		// common Samples/Match/Latency adds on a fresh node carve the
		// arena once.
		size := i + 1
		if size < int(metrics.NodeBase) {
			size = int(metrics.NodeBase)
		}
		grown := n.tree.allocFloats(size)
		copy(grown, n.metrics)
		n.metrics = grown
	}
	n.metrics[i] += delta
}

// Metric returns the node's exclusive value for the metric column.
func (n *Node) Metric(id metrics.ID) float64 {
	if i := int(id); i >= 0 && i < len(n.metrics) {
		return n.metrics[i]
	}
	return 0
}

// MetricColumns returns the node's dense exclusive metric columns,
// indexed by metrics.ID. The slice is owned by the node: callers must
// treat it as read-only. This is the zero-copy accessor the columnar
// merge and the profile encoder use; Metrics remains the map-shaped
// reporting accessor.
func (n *Node) MetricColumns() []float64 { return n.metrics }

// Metrics returns the node's non-zero exclusive metric columns as a
// map. This is a reporting-path convenience; the hot accumulation path
// stays on the slice.
func (n *Node) Metrics() map[metrics.ID]float64 {
	var out map[metrics.ID]float64
	for i, v := range n.metrics {
		if v == 0 {
			continue
		}
		if out == nil {
			out = make(map[metrics.ID]float64, len(n.metrics)-i)
		}
		out[metrics.ID(i)] = v
	}
	if out == nil {
		out = map[metrics.ID]float64{}
	}
	return out
}

// InclusiveMetric returns the metric summed over the node's subtree —
// HPCToolkit's inclusive column.
func (n *Node) InclusiveMetric(id metrics.ID) float64 {
	total := n.Metric(id)
	for c := n.firstChild; c != nil; c = c.nextSibling {
		total += c.InclusiveMetric(id)
	}
	return total
}

// ExtendRange grows owner's address range on this node to cover addr.
func (n *Node) ExtendRange(owner int, addr uint64) {
	if !n.hasRange {
		n.hasRange = true
		n.range0 = ownerRange{owner: owner, r: Range{Min: addr, Max: addr}}
		return
	}
	if n.range0.owner == owner {
		n.range0.r = n.range0.r.Extend(addr)
		return
	}
	for i := range n.rangeRest {
		if n.rangeRest[i].owner == owner {
			n.rangeRest[i].r = n.rangeRest[i].r.Extend(addr)
			return
		}
	}
	n.rangeRest = appendOwnerRange(n.rangeRest, ownerRange{owner: owner, r: Range{Min: addr, Max: addr}})
}

// appendOwnerRange appends with a first-growth capacity of 4: once a
// node overflows its inline range slot it tends to collect a few more
// owners, and bare append would burn an allocation on each of them.
func appendOwnerRange(rest []ownerRange, or ownerRange) []ownerRange {
	if rest == nil {
		rest = make([]ownerRange, 0, 4)
	}
	return append(rest, or)
}

// unionRange folds a whole [min,max] range into owner's entry — the
// Section 7.2 reduction, used by Merge.
func (n *Node) unionRange(owner int, r Range) {
	if !n.hasRange {
		n.hasRange = true
		n.range0 = ownerRange{owner: owner, r: r}
		return
	}
	if n.range0.owner == owner {
		n.range0.r = n.range0.r.Union(r)
		return
	}
	for i := range n.rangeRest {
		if n.rangeRest[i].owner == owner {
			n.rangeRest[i].r = n.rangeRest[i].r.Union(r)
			return
		}
	}
	n.rangeRest = appendOwnerRange(n.rangeRest, ownerRange{owner: owner, r: r})
}

// Range returns owner's address range on this node.
func (n *Node) Range(owner int) (Range, bool) {
	if !n.hasRange {
		return Range{}, false
	}
	if n.range0.owner == owner {
		return n.range0.r, true
	}
	for i := range n.rangeRest {
		if n.rangeRest[i].owner == owner {
			return n.rangeRest[i].r, true
		}
	}
	return Range{}, false
}

// numRanges returns the number of owners with ranges on this node.
func (n *Node) numRanges() int {
	if !n.hasRange {
		return 0
	}
	return 1 + len(n.rangeRest)
}

// Ranges returns a copy of the per-owner address ranges.
func (n *Node) Ranges() map[int]Range {
	out := make(map[int]Range, n.numRanges())
	if n.hasRange {
		out[n.range0.owner] = n.range0.r
		for _, or := range n.rangeRest {
			out[or.owner] = or.r
		}
	}
	return out
}

// AppendRangeOwners appends the owners with ranges on this node to dst
// in numeric order and returns the extended slice. Callers on hot
// paths reuse dst to stay allocation-free.
func (n *Node) AppendRangeOwners(dst []int) []int {
	if !n.hasRange {
		return dst
	}
	start := len(dst)
	dst = append(dst, n.range0.owner)
	for _, or := range n.rangeRest {
		dst = append(dst, or.owner)
	}
	sub := dst[start:]
	sort.Ints(sub)
	return dst
}

// Visit walks the subtree rooted at n in deterministic preorder.
func (n *Node) Visit(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children() {
		c.Visit(fn)
	}
}

// Path returns the keys from the root (exclusive) down to n.
func (n *Node) Path() []Key {
	var rev []Key
	for cur := n; cur != nil && cur.Key.Kind != KindRoot; cur = cur.parent {
		rev = append(rev, cur.Key)
	}
	out := make([]Key, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Merge folds src's subtree into dst: metric columns add elementwise
// (the columnar merge over dense metrics.ID columns), address ranges
// union ([min,max] reduction), children merge recursively by key. src
// is left untouched; concurrent Merges reading the same src are safe.
// This is the hpcprof thread-profile merge of Section 7.2.
func Merge(dst, src *Node) {
	if len(src.metrics) > 0 {
		dm := dst.metrics
		if len(dm) < len(src.metrics) {
			grown := dst.tree.allocFloats(len(src.metrics))
			copy(grown, dm)
			dst.metrics, dm = grown, grown
		}
		for i, v := range src.metrics {
			dm[i] += v
		}
	}
	if src.hasRange {
		dst.unionRange(src.range0.owner, src.range0.r)
		for _, or := range src.rangeRest {
			dst.unionRange(or.owner, or.r)
		}
	}
	// Shards of the same program insert paths in the same order, so
	// dst's sibling list usually mirrors src's: a cursor walking dst in
	// lockstep hits the right child in O(1), falling back to the keyed
	// lookup only when the lists diverge. Child() keeps identical
	// find-or-create semantics on both paths, so the result is the same
	// tree either way.
	cursor := dst.firstChild
	for c := src.firstChild; c != nil; c = c.nextSibling {
		d := cursor
		if d == nil || d.Key != c.Key {
			d = dst.Child(c.Key)
		}
		cursor = d.nextSibling
		Merge(d, c)
	}
}

// MergeTrees merges src into dst at the roots.
func MergeTrees(dst, src *Tree) { Merge(dst.root, src.root) }

// mergeShardsMin is the shard count below which MergeShards stays
// serial regardless of the requested worker count: spawning goroutines
// for a handful of small per-thread trees costs more than it saves.
const mergeShardsMin = 8

// MergeShards folds a set of CCT shards (per-thread or per-worker
// trees) into dst with up to workers concurrent accumulators. Shards
// are dealt round-robin to fresh accumulator trees, each folded
// serially on its own goroutine, and the accumulators are then folded
// into dst in order — so the grouping is a pure function of the shard
// count and worker count, never of scheduling.
//
// The result is identical to a serial fold for the profiles this tool
// produces: every metric delta is integral and totals stay far below
// 2^53, so float addition is exact and the grouped fold is associative
// and commutative bit-for-bit (the determinism harness and the
// property tests in this package enforce it).
//
// The merge salvages what it can: nil shards (per-thread profiles lost
// or unreadable before the hpcprof merge) are skipped rather than
// aborting it. MergeShards returns how many shards merged and the
// indices of those skipped, so the caller can report thread coverage
// instead of pretending the merge was complete.
func MergeShards(dst *Tree, shards []*Tree, workers int) (merged int, skipped []int) {
	live := shards
	for _, tr := range shards {
		if tr == nil {
			// Slow path: filter the nil shards out, remembering them.
			live = live[:0:0]
			for i, tr := range shards {
				if tr == nil {
					skipped = append(skipped, i)
					continue
				}
				live = append(live, tr)
			}
			break
		}
		_ = tr
	}
	if workers > len(live)/2 {
		workers = len(live) / 2
	}
	// More accumulators than CPUs is pure overhead: each one is a whole
	// extra tree to build and fold. Clamping is safe because the merged
	// result is bit-identical at any worker count — only wall time
	// changes with the grouping.
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers <= 1 || len(live) < mergeShardsMin {
		for _, tr := range live {
			MergeTrees(dst, tr)
		}
		return len(live), skipped
	}
	accs := make([]*Tree, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := New()
			for i := w; i < len(live); i += workers {
				MergeTrees(acc, live[i])
			}
			accs[w] = acc
		}(w)
	}
	wg.Wait()
	for _, acc := range accs {
		MergeTrees(dst, acc)
	}
	return len(live), skipped
}

// Size returns the number of nodes in the subtree, including n.
func (n *Node) Size() int {
	total := 1
	for c := n.firstChild; c != nil; c = c.nextSibling {
		total += c.Size()
	}
	return total
}
