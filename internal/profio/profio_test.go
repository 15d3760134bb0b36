package profio

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/omp"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/view"
	"repro/internal/vm"
)

// demoApp: serial-init array processed in parallel, with tracing and
// first-touch tracking, to populate every Document section.
type demoApp struct {
	prog           *isa.Program
	fnMain, fnWork isa.FuncID
	sAlloc, sInit  isa.SiteID
	sLoad          isa.SiteID
	staticIdx      int
}

func newDemoApp() *demoApp {
	a := &demoApp{}
	p := isa.NewProgram("profio-demo")
	a.fnMain = p.AddFunc("main", "demo.c", 1)
	a.fnWork = p.AddFunc("work._omp", "demo.c", 20)
	a.sAlloc = p.AddSite(a.fnMain, 3, isa.KindAlloc)
	a.sInit = p.AddSite(a.fnMain, 5, isa.KindStore)
	a.sLoad = p.AddSite(a.fnWork, 22, isa.KindLoad)
	a.staticIdx = p.AddStatic("lookup", 8*uint64(units.PageSize))
	a.prog = p
	return a
}

func (a *demoApp) Name() string         { return "profio-demo" }
func (a *demoApp) Binary() *isa.Program { return a.prog }

func (a *demoApp) Run(e *proc.Engine) {
	const n = 8192
	lookup := e.StaticRegion(a.staticIdx)
	var arr vm.Region
	omp.Serial(e, a.fnMain, "main", func(c *proc.Ctx) {
		arr = c.Alloc(a.sAlloc, "bigarray", n*64, nil)
		for i := 0; i < n; i++ {
			c.Store(a.sInit, arr.Base+uint64(i)*64)
		}
		for i := uint64(0); i < 8; i++ {
			c.Store(a.sInit, lookup.Base+i*uint64(units.PageSize))
		}
	})
	for it := 0; it < 2; it++ {
		omp.ParallelFor(e, a.fnWork, "work", n, omp.Static{}, func(c *proc.Ctx, i int) {
			c.Load(a.sLoad, arr.Base+uint64(i)*64)
			c.Load(a.sLoad, lookup.Base+(uint64(i)%8)*uint64(units.PageSize))
			c.Compute(3)
		})
	}
}

func liveProfile(t testing.TB) *core.Profile {
	t.Helper()
	m := topology.New(topology.Config{
		Name: "profio-m", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 18,
	})
	prof, err := core.Analyze(core.Config{
		Machine:         m,
		Mechanism:       "IBS",
		Period:          32,
		TrackFirstTouch: true,
		Trace:           true,
	}, newDemoApp())
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func roundTrip(t *testing.T, p *core.Profile) *core.Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestRoundTripTotals(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	// Totals contains a slice, so compare field-wise.
	if q.Totals.Samples != p.Totals.Samples ||
		q.Totals.Ml != p.Totals.Ml || q.Totals.Mr != p.Totals.Mr ||
		q.Totals.LPIExact != p.Totals.LPIExact ||
		q.Totals.SimTime != p.Totals.SimTime ||
		q.Totals.Significant != p.Totals.Significant {
		t.Fatalf("totals differ:\n%+v\n%+v", p.Totals, q.Totals)
	}
	if q.AppName != p.AppName || q.Mechanism != p.Mechanism || q.Period != p.Period {
		t.Fatal("header fields differ")
	}
}

func TestRoundTripMachine(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	if q.Machine.Name != p.Machine.Name ||
		q.Machine.NumDomains() != p.Machine.NumDomains() ||
		q.Machine.NumCPUs() != p.Machine.NumCPUs() ||
		q.Machine.Distance(0, 1) != p.Machine.Distance(0, 1) {
		t.Fatalf("machine differs: %v vs %v", q.Machine, p.Machine)
	}
}

func TestRoundTripVars(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	if len(q.Vars) != len(p.Vars) {
		t.Fatalf("vars: %d vs %d", len(q.Vars), len(p.Vars))
	}
	for i, pv := range p.Vars {
		qv := q.Vars[i]
		if qv.Var.Name != pv.Var.Name || qv.Var.Kind != pv.Var.Kind ||
			qv.Ml != pv.Ml || qv.Mr != pv.Mr || qv.RemoteLat != pv.RemoteLat ||
			len(qv.Bins) != len(pv.Bins) ||
			len(qv.FirstTouchThreads) != len(pv.FirstTouchThreads) {
			t.Fatalf("var %d differs: %+v vs %+v", i, qv, pv)
		}
	}
	// Static variable survives with its kind.
	lv, ok := q.VarByName("lookup")
	if !ok || lv.Var.Kind != datacentric.Static {
		t.Fatal("static lookup lost in round trip")
	}
}

func TestRoundTripTree(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	if q.Tree.Root().Size() != p.Tree.Root().Size() {
		t.Fatalf("tree size: %d vs %d", q.Tree.Root().Size(), p.Tree.Root().Size())
	}
	for _, id := range []metrics.ID{metrics.Samples, metrics.Match, metrics.Mismatch, metrics.RemoteLatency} {
		if q.Tree.Root().InclusiveMetric(id) != p.Tree.Root().InclusiveMetric(id) {
			t.Errorf("metric %s differs", metrics.Name(id))
		}
	}
	// A specific path survives with its ranges.
	access, ok := q.Tree.Root().FindChild(cct.DummyKey(cct.DummyAccess))
	if !ok {
		t.Fatal("access subtree lost")
	}
	if access.InclusiveMetric(metrics.Samples) == 0 {
		t.Fatal("access metrics lost")
	}
}

func TestRoundTripPatterns(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	pv, _ := p.Registry.Lookup("bigarray")
	qv, ok := q.Registry.Lookup("bigarray")
	if !ok {
		t.Fatal("bigarray missing from loaded registry")
	}
	pPat, _ := p.Patterns.Pattern(pv, "work")
	qPat, ok := q.Patterns.Pattern(qv, "work")
	if !ok {
		t.Fatal("work pattern lost")
	}
	pT, qT := pPat.Threads(), qPat.Threads()
	if len(pT) != len(qT) {
		t.Fatalf("thread count: %d vs %d", len(qT), len(pT))
	}
	for i := range pT {
		if pT[i] != qT[i] {
			t.Fatalf("thread range %d differs: %+v vs %+v", i, qT[i], pT[i])
		}
	}
	if pPat.IsStaircase(0.15) != qPat.IsStaircase(0.15) {
		t.Fatal("staircase verdict changed")
	}
}

func TestRoundTripTimeline(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)
	if q.Timeline == nil {
		t.Fatal("timeline lost")
	}
	if q.Timeline.Len() != p.Timeline.Len() || q.Timeline.Span() != p.Timeline.Span() {
		t.Fatalf("timeline: %d/%v vs %d/%v",
			q.Timeline.Len(), q.Timeline.Span(), p.Timeline.Len(), p.Timeline.Span())
	}
}

// The acid test: every view renders the loaded profile byte-identically
// to the live one (hpcviewer consuming hpcrun's files).
func TestViewsRenderIdentically(t *testing.T) {
	p := liveProfile(t)
	q := roundTrip(t, p)

	if a, b := view.Totals(p), view.Totals(q); a != b {
		t.Errorf("Totals differ:\n--- live\n%s--- loaded\n%s", a, b)
	}
	if a, b := view.VarTable(p, 0), view.VarTable(q, 0); a != b {
		t.Errorf("VarTable differs:\n--- live\n%s--- loaded\n%s", a, b)
	}
	if a, b := view.CCT(p, metrics.Mismatch, 6, 0.01), view.CCT(q, metrics.Mismatch, 6, 0.01); a != b {
		t.Errorf("CCT differs:\n--- live\n%s--- loaded\n%s", a, b)
	}
	pv, _ := p.Registry.Lookup("bigarray")
	qv, _ := q.Registry.Lookup("bigarray")
	pPat, _ := p.Patterns.Pattern(pv, addrcentric.WholeProgram)
	qPat, _ := q.Patterns.Pattern(qv, addrcentric.WholeProgram)
	if a, b := view.AddressCentric(pPat, 48), view.AddressCentric(qPat, 48); a != b {
		t.Errorf("AddressCentric differs:\n--- live\n%s--- loaded\n%s", a, b)
	}
	ah, err := view.HTML(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := view.HTML(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ah != bh {
		t.Error("HTML reports differ")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	data := savedBytes(t)
	meta := sectionBody(t, data, SectionMeta)
	bad := bytes.Replace(meta, []byte(`"version":2`), []byte(`"version":99`), 1)
	if bytes.Equal(bad, meta) {
		t.Fatal("meta body has no version 2")
	}
	_, err := Load(bytes.NewReader(withSection(t, data, SectionMeta, bad)))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should not load")
	}
}

func TestEncodeNilProfile(t *testing.T) {
	if err := Save(io.Discard, nil); err == nil {
		t.Fatal("nil profile should error")
	}
}
