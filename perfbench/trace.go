package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer: recorded by the benchmark around
// a library call (source "bench"), or collected from the program's own
// telemetry tracer (source "program"). Times are nanoseconds since the
// recorder's epoch, so both sources share one timeline.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Op     int64             `json:"op"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Source string            `json:"source"`
	Lane   int64             `json:"-"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 } // ms

// recorder keeps a traced run's spans in memory until the run ends.
// The nil *recorder is the untraced run: every method is a no-op.
type recorder struct {
	epoch time.Time
	tr    *telemetry.Tracer

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	// The program's tracer reads the same clock, in nanoseconds rather
	// than its default microseconds, so sub-millisecond spans (a store
	// hit) keep their resolution.
	r.tr = telemetry.NewTracer(telemetry.WithClock(r.now))
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// install turns the program's tracer on or off for the spans that
// follow; untraced phases of a traced run run with it off.
func (r *recorder) install(on bool) {
	if r == nil {
		return
	}
	if on {
		telemetry.SetTracer(r.tr)
	} else {
		telemetry.SetTracer(nil)
	}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// opSpan is one op in flight. The nil *opSpan (an untraced op) runs its
// layers without recording them.
type opSpan struct {
	r     *recorder
	op    int64
	id    int64
	start int64
	name  string
	// ctx carries the program-side marker span, so the program's spans
	// under this op share its lane.
	ctx    context.Context
	marker *telemetry.Span
}

// begin opens an op span; traced reports whether this op records.
func (r *recorder) begin(ctx context.Context, op int64, name string, traced bool) *opSpan {
	if r == nil || !traced {
		return nil
	}
	o := &opSpan{r: r, op: op, id: r.newID(), start: r.now(), name: name}
	o.ctx, o.marker = telemetry.Start(ctx, "perfbench.op", telemetry.String("op", strconv.FormatInt(op, 10)))
	return o
}

// context is the context the op's library calls run under.
func (o *opSpan) context(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	return o.ctx
}

// layer times fn as a child span of the op.
func (o *opSpan) layer(name string, fn func() error) error {
	if o == nil {
		return fn()
	}
	start := o.r.now()
	err := fn()
	o.r.add(span{ID: o.r.newID(), Parent: o.id, Op: o.op, Name: name, Start: start, End: o.r.now(), Source: "bench"})
	return err
}

// probe records a span tied to the op but outside its timed interval:
// a reference measurement such as the unmonitored run of the same spec.
func (o *opSpan) probe(name string, fn func() error) error {
	if o == nil {
		return fn()
	}
	start := o.r.now()
	err := fn()
	o.r.add(span{ID: o.r.newID(), Op: o.op, Name: name, Start: start, End: o.r.now(), Source: "bench"})
	return err
}

func (o *opSpan) end() {
	if o == nil {
		return
	}
	o.marker.End()
	o.r.add(span{ID: o.id, Op: o.op, Name: o.name, Start: o.start, End: o.r.now(), Source: "bench"})
}

// chromeEvent is the part of the program tracer's Chrome trace_event
// export the benchmark reads.
type chromeEvent struct {
	Name string            `json:"name"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// programSpans exports the program tracer's spans. Lane is the root
// span a span descends from; a perfbench.op marker's lane names its op.
func (r *recorder) programSpans() ([]span, error) {
	var buf bytes.Buffer
	if err := r.tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parse program trace: %w", err)
	}
	laneOp := map[int64]int64{}
	for _, e := range doc.TraceEvents {
		if e.Name == "perfbench.op" {
			op, _ := strconv.ParseInt(e.Args["op"], 10, 64)
			laneOp[e.Tid] = op
		}
	}
	out := make([]span, 0, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		if e.Name == "perfbench.op" || e.Args["unfinished"] == "true" {
			continue
		}
		out = append(out, span{Op: laneOp[e.Tid], Name: e.Name, Start: e.Ts, End: e.Ts + e.Dur,
			Source: "program", Lane: e.Tid, Attrs: e.Args})
	}
	return out, nil
}

// benchSpans snapshots the benchmark's own spans.
func (r *recorder) benchSpans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTrace writes every span of the run to path as JSON. Program
// spans get ids after the benchmark's, and as parent the innermost
// benchmark span of their op that holds them, so the file is one tree
// per op.
func writeTrace(path string, bench, prog []span) error {
	var next int64
	byOp := map[int64][]span{}
	for _, b := range bench {
		next = max(next, b.ID)
		byOp[b.Op] = append(byOp[b.Op], b)
	}
	all := append([]span(nil), bench...)
	for _, p := range prog {
		next++
		p.ID = next
		var parent *span
		for i, b := range byOp[p.Op] {
			if p.Op != 0 && b.Start <= p.Start && p.End <= b.End && (parent == nil || b.Start >= parent.Start) {
				parent = &byOp[p.Op][i]
			}
		}
		if parent != nil {
			p.Parent = parent.ID
		}
		all = append(all, p)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	b, err := json.Marshal(map[string]any{"spans": all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opsOf returns the op spans (the roots the benchmark recorded) by op.
func opsOf(spans []span, name string) map[int64]span {
	ops := map[int64]span{}
	for _, s := range spans {
		if s.Source == "bench" && s.Name == name && s.Parent == 0 {
			ops[s.Op] = s
		}
	}
	return ops
}

// perOp sums, per op, the durations (ms) of the spans named name.
func perOp(spans []span, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.Name == name && s.Op != 0 {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// medianOf is the median of a per-op map's values.
func medianOf(m map[int64]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs)
}

// coverage is, per op, the share of the op's interval covered by the
// union of the given child spans: 1 when the layers account for all of
// the op's time, whether they ran one after another or side by side.
func coverage(ops map[int64]span, children []span) float64 {
	byOp := map[int64][]span{}
	for _, c := range children {
		if _, ok := ops[c.Op]; ok {
			byOp[c.Op] = append(byOp[c.Op], c)
		}
	}
	var shares []float64
	for id, op := range ops {
		cs := byOp[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, op.Start
		for _, c := range cs {
			s, e := max(c.Start, reach), min(c.End, op.End)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		if op.End > op.Start {
			shares = append(shares, float64(covered)/float64(op.End-op.Start))
		}
	}
	return median(shares)
}
