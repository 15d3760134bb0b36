// Package view renders profiles for a terminal, standing in for the
// hpcviewer GUI of Section 7.2. It provides the three views the paper's
// figures show:
//
//   - the address-centric view (the top-right pane of Figure 3): one
//     row per thread, a bar spanning the normalised [min,max] address
//     range the thread touched within a variable;
//   - the metric table (the bottom-right pane): NUMA_MATCH,
//     NUMA_MISMATCH, NUMA_NODE<i>, latency, and lpi per variable;
//   - the calling-context view (the bottom-left pane): the augmented
//     CCT with metric annotations, ranked by a chosen metric.
package view

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Each text renderer is a thin wrapper over a writer that appends to a
// caller's buffer, so that a composed report (Report, Text) is built in
// one buffer instead of one string per part.

// bufs lends render its buffers. A pooled buffer has already grown to a
// report's size, and the result is copied out at its final length: a
// builder grown by append from empty allocates about five times the
// text it ends up holding.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// render runs write on a pooled buffer and returns what it wrote.
func render(write func(*bytes.Buffer)) string {
	b := bufs.Get().(*bytes.Buffer)
	b.Reset()
	write(b)
	s := b.String()
	bufs.Put(b)
	return s
}

// AddressCentric renders a pattern as the paper's address-centric
// plot: thread index vs normalised [min,max] accessed range. width is
// the bar width in characters (0 means 48).
func AddressCentric(p *addrcentric.Pattern, width int) string {
	return render(func(b *bytes.Buffer) { writeAddressCentric(b, p, width) })
}

func writeAddressCentric(b *bytes.Buffer, p *addrcentric.Pattern, width int) {
	if width <= 0 {
		width = 48
	}
	scope := p.Scope
	if scope == addrcentric.WholeProgram {
		scope = "<whole program>"
	}
	name := p.Var.Name
	if p.Bin != addrcentric.WholeVariable {
		name = p.Var.BinName(p.Bin)
	}
	fmt.Fprintf(b, "address-centric view: %s  scope=%s  (range normalised to [0,1])\n",
		name, scope)
	trs := p.Threads()
	if len(trs) == 0 {
		b.WriteString("  (no samples)\n")
		return
	}
	for _, tr := range trs {
		lo, hi, _ := p.Normalized(tr.Thread)
		start := int(lo * float64(width))
		end := int(hi*float64(width)) + 1
		if end > width {
			end = width
		}
		if start >= end {
			start = end - 1
		}
		if start < 0 {
			start = 0
		}
		fmt.Fprintf(b, "  T%02d |", tr.Thread)
		repeat(b, " ", start)
		repeat(b, "#", end-start)
		repeat(b, " ", width-end)
		fmt.Fprintf(b, "| [%.2f,%.2f] n=%d\n", lo, hi, tr.Count)
	}
}

// repeat appends n copies of s to b, as strings.Repeat would build them.
func repeat(b *bytes.Buffer, s string, n int) {
	for ; n > 0; n-- {
		b.WriteString(s)
	}
}

// fmtLPI renders an lpi value, showing "n/a" for mechanisms that
// cannot measure latency.
func fmtLPI(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// Totals renders the whole-program summary block.
func Totals(p *core.Profile) string {
	return render(func(b *bytes.Buffer) { writeTotals(b, p) })
}

func writeTotals(b *bytes.Buffer, p *core.Profile) {
	t := p.Totals
	fmt.Fprintf(b, "=== %s on %s via %s (period %d) ===\n",
		p.AppName, p.Machine.Name, p.Mechanism, p.Period)
	fmt.Fprintf(b, "samples %.0f  (I^s %.0f)  instructions %d  mem accesses %d\n",
		t.Samples, t.SampledInstructions, t.Instructions, t.MemAccesses)
	fmt.Fprintf(b, "NUMA_MATCH %.0f  NUMA_MISMATCH %.0f  remote fraction %.1f%%\n",
		t.Ml, t.Mr, 100*t.RemoteFraction)
	for d, n := range t.PerDomain {
		if n > 0 {
			fmt.Fprintf(b, "  NUMA_NODE%d %.0f\n", d, n)
		}
	}
	fmt.Fprintf(b, "request imbalance %.2fx (1.0 = balanced)\n", t.Imbalance)
	lpi := fmtLPI(t.LPI)
	if t.LPIInsufficient {
		// The estimator refused to divide by zero: the run delivered
		// too few usable samples for Eq.2/Eq.3 to mean anything.
		lpi = "0.000 [insufficient samples]"
	}
	fmt.Fprintf(b, "lpi_NUMA %s (exact %.3f)  threshold %.1f  => ",
		lpi, t.LPIExact, metrics.SignificanceThreshold)
	if t.Significant {
		b.WriteString("SIGNIFICANT: NUMA optimisation warranted\n")
	} else {
		b.WriteString("insignificant: NUMA optimisation would not pay off\n")
	}
	fmt.Fprintf(b, "simulated runtime %v (monitoring overhead %v)\n", t.SimTime, t.Overhead)
}

// VarTable renders the data-centric metric table for the top n
// variables by sampled remote latency (0 means all).
func VarTable(p *core.Profile, n int) string {
	return render(func(b *bytes.Buffer) { writeVarTable(b, p, n) })
}

func writeVarTable(b *bytes.Buffer, p *core.Profile, n int) {
	vars := p.Vars
	if n > 0 && n < len(vars) {
		vars = vars[:n]
	}
	fmt.Fprintf(b, "%-18s %6s %8s %8s %10s %8s %7s %6s %s\n",
		"VARIABLE", "KIND", "MATCH", "MISMATCH", "RLAT(cyc)", "RLAT%", "MR%", "LPI", "FIRST-TOUCH")
	for _, v := range vars {
		ft := "-"
		if len(v.FirstTouchThreads) > 0 {
			if len(v.FirstTouchThreads) == 1 {
				ft = fmt.Sprintf("serial (T%d)", v.FirstTouchThreads[0])
			} else {
				ft = fmt.Sprintf("parallel (%d threads)", len(v.FirstTouchThreads))
			}
		}
		fmt.Fprintf(b, "%-18s %6s %8.0f %8.0f %10d %7.1f%% %6.1f%% %6.1f %s\n",
			truncate(v.Var.Name, 18), v.Var.Kind, v.Ml, v.Mr,
			uint64(v.RemoteLat), 100*v.RemoteLatShare, 100*v.MrShare, v.LPI, ft)
	}
}

// BinTable renders the per-bin breakdown of one variable — the
// synthetic sub-variables of Section 5.2.
func BinTable(v *core.VarProfile) string {
	return render(func(b *bytes.Buffer) { writeBinTable(b, v) })
}

func writeBinTable(b *bytes.Buffer, v *core.VarProfile) {
	fmt.Fprintf(b, "%s: %d bins over [%#x, %#x)\n",
		v.Var.Name, len(v.Bins), v.Var.Region.Base, v.Var.Region.End())
	for _, bin := range v.Bins {
		share := 0.0
		if v.Samples > 0 {
			share = bin.Samples / v.Samples
		}
		fmt.Fprintf(b, "  bin %d [%#x,%#x): samples %.0f (%.0f%%)  match %.0f  mismatch %.0f  rlat %d\n",
			bin.Index, bin.Lo, bin.Hi, bin.Samples, 100*share, bin.Ml, bin.Mr, uint64(bin.RemoteLat))
	}
}

// CCT renders the merged calling-context tree annotated with the given
// metric, pruning subtrees below minShare of the root's inclusive
// value and deeper than maxDepth (0 means unlimited).
func CCT(p *core.Profile, metric metrics.ID, maxDepth int, minShare float64) string {
	return render(func(b *bytes.Buffer) { writeCCT(b, p, metric, maxDepth, minShare) })
}

func writeCCT(b *bytes.Buffer, p *core.Profile, metric metrics.ID, maxDepth int, minShare float64) {
	total := p.Tree.Root().InclusiveMetric(metric)
	fmt.Fprintf(b, "calling-context view (metric %s, total %.0f)\n", metrics.Name(metric), total)
	if total == 0 {
		return
	}
	var walk func(n *cct.Node, depth int)
	walk = func(n *cct.Node, depth int) {
		if maxDepth > 0 && depth > maxDepth {
			return
		}
		kids := n.Children()
		sort.SliceStable(kids, func(i, j int) bool {
			return kids[i].InclusiveMetric(metric) > kids[j].InclusiveMetric(metric)
		})
		for _, c := range kids {
			v := c.InclusiveMetric(metric)
			if v/total < minShare {
				continue
			}
			b.WriteString("  ")
			repeat(b, "| ", depth)
			fmt.Fprintf(b, "%-*s %8.0f (%4.1f%%)\n", 46-2*depth, nodeLabel(p, c), v, 100*v/total)
			walk(c, depth+1)
		}
	}
	walk(p.Tree.Root(), 0)
}

// FirstTouchReport renders the pinpointed first-touch location for one
// variable: the information a user needs to place the paper's
// block-wise or parallel-initialisation fix.
func FirstTouchReport(p *core.Profile, v *core.VarProfile) string {
	return render(func(b *bytes.Buffer) { writeFirstTouchReport(b, p, v) })
}

func writeFirstTouchReport(b *bytes.Buffer, p *core.Profile, v *core.VarProfile) {
	fmt.Fprintf(b, "first-touch report for %s (%d pages protected)\n",
		v.Var.Name, v.ProtectedPages)
	if len(v.FirstTouchThreads) == 0 {
		b.WriteString("  no first touches trapped\n")
		return
	}
	fmt.Fprintf(b, "  touched first by threads %v\n", v.FirstTouchThreads)
	if len(v.FirstTouchThreads) == 1 {
		b.WriteString("  => serial initialisation: all pages homed in one domain;\n")
		b.WriteString("     apply block-wise distribution or parallelise the initialiser here:\n")
	}
	for i, fr := range v.FirstTouchPath {
		fn, ok := p.Binary.Func(fr.Fn)
		name := "?"
		file := "?"
		if ok {
			name, file = fn.Name, fn.File
		}
		repeat(b, "  ", i+2)
		fmt.Fprintf(b, "%s (%s)\n", name, file)
	}
}

// nodeLabel formats a CCT node for display.
func nodeLabel(p *core.Profile, n *cct.Node) string {
	switch n.Key.Kind {
	case cct.KindFrame:
		fn, ok := p.Binary.Func(n.Key.Fn)
		if !ok {
			return "<unknown frame>"
		}
		return fn.Name
	case cct.KindSite:
		return p.Binary.SourceOf(n.Key.Site)
	case cct.KindDummy:
		return n.Key.Label
	case cct.KindVariable:
		return "var " + n.Key.Label
	case cct.KindBin:
		return fmt.Sprintf("%s[bin %d]", n.Key.Label, n.Key.Line)
	default:
		return n.Key.Kind.String()
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}

// HealthBlock renders the pipeline-health ledger: every sample lost,
// quarantined, or worked around during collection, plus thread coverage
// and measurement-file damage. Empty for a fully healthy run.
func HealthBlock(p *core.Profile) string {
	return p.Health.Summary()
}

// Report renders a full profile: totals, variable table, the hottest
// variable's bins, address-centric views for the top variables,
// first-touch reports, and — when anything degraded — the health block.
func Report(p *core.Profile, topVars int) string {
	return render(func(b *bytes.Buffer) { writeReport(b, p, topVars) })
}

// Text renders numad's text view, which is also what a numaprof run
// prints with its calling-context view on: Report, a blank line, the
// CCT ranked by NUMA_MISMATCH and that metric's hot path.
func Text(p *core.Profile, topVars int) string {
	return render(func(b *bytes.Buffer) {
		writeReport(b, p, topVars)
		b.WriteString("\n")
		writeCCT(b, p, metrics.Mismatch, 6, 0.01)
		writeHotPath(b, p, metrics.Mismatch)
	})
}

func writeReport(b *bytes.Buffer, p *core.Profile, topVars int) {
	writeTotals(b, p)
	if h := HealthBlock(p); h != "" {
		b.WriteString("\n")
		b.WriteString(h)
	}
	b.WriteString("\n")
	writeVarTable(b, p, topVars)
	vars := p.Vars
	if topVars > 0 && topVars < len(vars) {
		vars = vars[:topVars]
	}
	for _, v := range vars {
		b.WriteString("\n")
		if pat, ok := p.Patterns.Pattern(v.Var, addrcentric.WholeProgram); ok {
			writeAddressCentric(b, pat, 48)
		}
		if len(v.Bins) > 1 {
			writeBinTable(b, v)
			// Section 5.2: the hot bin's own pattern represents the
			// variable when accesses are non-uniform.
			if bin, hot, ok := p.Patterns.HotBin(v.Var, addrcentric.WholeProgram); ok {
				whole, _ := p.Patterns.Pattern(v.Var, addrcentric.WholeProgram)
				if whole == nil || hot.TotalCount()*2 < whole.TotalCount() {
					// Uniform traffic: the whole-extent view suffices.
				} else {
					fmt.Fprintf(b, "hot bin %d (%d%% of samples):\n",
						bin, int(100*float64(hot.TotalCount())/float64(whole.TotalCount())))
					writeAddressCentric(b, hot, 48)
				}
			}
		}
		if p.FirstTouch != nil || v.ProtectedPages > 0 || len(v.FirstTouchThreads) > 0 {
			writeFirstTouchReport(b, p, v)
		}
	}
}

// HotPath walks the merged CCT from the root, following the child with
// the largest inclusive value of the metric at every step — the
// "hot path" navigation of HPCToolkit's viewer. It returns the labels
// along the path and the leaf's share of the total.
func HotPath(p *core.Profile, metric metrics.ID) (path []string, share float64) {
	// Navigate the code-centric access subtree: the allocation and
	// first-touch subtrees mirror the same metrics data-centrically
	// and would shadow the call-path answer.
	n := p.Tree.Root()
	if access, ok := n.FindChild(cct.DummyKey(cct.DummyAccess)); ok {
		n = access
	}
	total := n.InclusiveMetric(metric)
	if total == 0 {
		return nil, 0
	}
	value := total
	for {
		var best *cct.Node
		var bestV float64
		for _, c := range n.Children() {
			if v := c.InclusiveMetric(metric); v > bestV {
				best, bestV = c, v
			}
		}
		// Stop when the trail cools below half of the current value:
		// the remaining weight lives on this node itself.
		if best == nil || bestV < value/2 {
			break
		}
		path = append(path, nodeLabel(p, best))
		n, value = best, bestV
	}
	return path, value / total
}

// RenderHotPath prints the hot path, one frame per line.
func RenderHotPath(p *core.Profile, metric metrics.ID) string {
	return render(func(b *bytes.Buffer) { writeHotPath(b, p, metric) })
}

func writeHotPath(b *bytes.Buffer, p *core.Profile, metric metrics.ID) {
	path, share := HotPath(p, metric)
	fmt.Fprintf(b, "hot path (%s, %.0f%% of total):\n", metrics.Name(metric), 100*share)
	if len(path) == 0 {
		b.WriteString("  (no samples)\n")
		return
	}
	for i, label := range path {
		repeat(b, "  ", i+1)
		b.WriteString(label)
		b.WriteString("\n")
	}
}
