package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cct"
	"repro/internal/isa"
	"repro/internal/metrics"
)

// TestBenchWorkStableAcrossMergeWidths: cct.MergeShards must build the
// same tree serially and at core.finish's merge width of 4 workers, on
// the shard shape the root BenchmarkCCTMergeShards times (8 per-thread
// shards overlapping on every path, one range owner per leaf), folded
// repeatedly into one destination tree.
func TestBenchWorkStableAcrossMergeWidths(t *testing.T) {
	shards := func() []*cct.Tree {
		out := make([]*cct.Tree, 8)
		for w := range out {
			src := cct.New()
			for f := 0; f < 32; f++ {
				for s := 0; s < 16; s++ {
					n := src.Root().InsertPath([]cct.Key{
						cct.FrameKey(isa.FuncID(f), 0),
						cct.SiteKey(isa.SiteID(s)),
					})
					n.AddMetric(metrics.Samples, 1)
					n.ExtendRange(f%8, uint64(s+w)*64)
				}
			}
			out[w] = src
		}
		return out
	}
	merge := func(workers int) map[string]string {
		dst := cct.New()
		for i := 0; i < 8; i++ {
			cct.MergeShards(dst, shards(), workers)
		}
		nodes := map[string]string{}
		dst.Root().Visit(func(n *cct.Node) {
			nodes[fmt.Sprint(n.Path())] = fmt.Sprint(n.Metrics(), n.Ranges())
		})
		return nodes
	}
	serial, parallel := merge(1), merge(4)
	if want := 1 + 32 + 32*16; len(serial) != want {
		t.Fatalf("serial merge has %d nodes, want %d", len(serial), want)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("MergeShards at 4 workers built a different tree than at 1 worker")
	}
}
