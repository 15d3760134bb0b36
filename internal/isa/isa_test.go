package isa

import "testing"

func TestProgramRegistration(t *testing.T) {
	p := NewProgram("demo")
	f1 := p.AddFunc("main", "main.c", 1)
	f2 := p.AddFunc("kernel", "kernel.c", 10)
	if f1 != 0 || f2 != 1 {
		t.Fatalf("func ids = %d, %d", f1, f2)
	}
	s1 := p.AddSite(f1, 5, KindAlloc)
	s2 := p.AddSite(f2, 12, KindLoad)
	s3 := p.AddSite(f2, 13, KindStore)
	if s1 != 0 || s2 != 1 || s3 != 2 {
		t.Fatalf("site ids = %d, %d, %d", s1, s2, s3)
	}
	if p.NumSites() != 3 {
		t.Fatalf("NumSites = %d", p.NumSites())
	}

	fn, ok := p.Func(f2)
	if !ok || fn.Name != "kernel" || fn.File != "kernel.c" {
		t.Fatalf("Func = %+v, %v", fn, ok)
	}
	site, ok := p.Site(s2)
	if !ok || site.Fn != f2 || site.Line != 12 || site.Kind != KindLoad {
		t.Fatalf("Site = %+v, %v", site, ok)
	}
}

func TestLookupOutOfRange(t *testing.T) {
	p := NewProgram("demo")
	if _, ok := p.Func(NoFunc); ok {
		t.Error("NoFunc lookup should fail")
	}
	if _, ok := p.Site(NoSite); ok {
		t.Error("NoSite lookup should fail")
	}
	if _, ok := p.Site(0); ok {
		t.Error("empty program site lookup should fail")
	}
}

func TestPrevNextSite(t *testing.T) {
	p := NewProgram("demo")
	f := p.AddFunc("f", "f.c", 1)
	a := p.AddSite(f, 2, KindLoad)
	b := p.AddSite(f, 3, KindStore)

	prev, ok := p.PrevSite(b)
	if !ok || prev.ID != a {
		t.Fatalf("PrevSite(%d) = %+v, %v", b, prev, ok)
	}
	if _, ok := p.PrevSite(a); ok {
		t.Error("PrevSite of first site should fail")
	}
}

func TestStatics(t *testing.T) {
	p := NewProgram("demo")
	i := p.AddStatic("nodelist", 8192)
	if i != 0 {
		t.Fatalf("static index = %d", i)
	}
	st := p.Statics()
	if len(st) != 1 || st[0].Name != "nodelist" || st[0].Size != 8192 {
		t.Fatalf("Statics = %+v", st)
	}
}

func TestSourceOf(t *testing.T) {
	p := NewProgram("demo")
	f := p.AddFunc("kern", "k.c", 1)
	s := p.AddSite(f, 42, KindLoad)
	if got := p.SourceOf(s); got != "k.c:42 (kern)" {
		t.Errorf("SourceOf = %q", got)
	}
	if got := p.SourceOf(NoSite); got != "<unknown>" {
		t.Errorf("SourceOf(NoSite) = %q", got)
	}
}

func TestSiteKindString(t *testing.T) {
	kinds := map[SiteKind]string{
		KindLoad: "load", KindStore: "store", KindAlloc: "alloc", KindCall: "call",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
