package profio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/view"
	"repro/internal/workloads"
)

// The one-pass decoder must build the same profile as the reference
// decoder (reference_test.go) from every file Save writes, agree with
// it on every kind of damage, read non-canonical but valid JSON, and be
// stricter only where stated: a type error discards its whole section,
// a repeated field is an error, and metric ids are bounded.

// sectionBody returns the body of the named section of a file Save
// wrote.
func sectionBody(t testing.TB, file []byte, name string) []byte {
	t.Helper()
	prefix := []byte(`{"section":"` + name + `",`)
	for _, ln := range bytes.Split(file, []byte("\n")) {
		if bytes.HasPrefix(ln, prefix) {
			var r reader
			_, _, body, ok := r.record(ln)
			if !ok {
				t.Fatalf("section %s: unparseable record", name)
			}
			return body
		}
	}
	t.Fatalf("no %s section", name)
	return nil
}

// withSection returns file with the named section's record replaced by
// one that carries body and its checksum, or with such a record
// appended when the file has none.
func withSection(t testing.TB, file []byte, name string, body []byte) []byte {
	t.Helper()
	rec := fmt.Appendf(nil, `{"section":%q,"crc":%d,"body":%s}`, name, crc32.ChecksumIEEE(body), body)
	prefix := []byte(`{"section":"` + name + `",`)
	lines := bytes.Split(bytes.TrimSuffix(file, []byte("\n")), []byte("\n"))
	found := false
	for i, ln := range lines {
		if bytes.HasPrefix(ln, prefix) {
			lines[i], found = rec, true
		}
	}
	if !found {
		lines = append(lines, rec)
	}
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

func saveBytes(t testing.TB, p *core.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type fileShape struct {
	name string
	data []byte
}

// decoderShapes returns a file of every profile shape the encoder
// identity tests build, plus a v1 document.
func decoderShapes(t *testing.T) []fileShape {
	t.Helper()
	var shapes []fileShape
	add := func(name string, p *core.Profile) {
		shapes = append(shapes, fileShape{name, saveBytes(t, p)})
	}
	live := liveProfile(t)
	add("traced", live)
	for _, mech := range []string{"IBS", "PEBS", "PEBS-LL", "MRK", "DEAR", "Soft-IBS"} {
		p, err := core.Analyze(core.Config{
			Machine:         topology.MagnyCours48(),
			Mechanism:       mech,
			TrackFirstTouch: true,
			Bins:            4,
		}, workloads.NewLULESH(workloads.Params{Iters: 2}))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		add(mech, p)
	}
	chaos, err := core.Analyze(core.Config{
		Machine:   topology.MagnyCours48(),
		Mechanism: "IBS",
		Faults:    &faults.Plan{Seed: 42, DropRate: 0.2, CorruptRate: 0.02},
	}, workloads.NewLULESH(workloads.Params{Iters: 2}))
	if err != nil {
		t.Fatal(err)
	}
	add("chaos", chaos)
	full := shapes[0].data
	salvaged, _, err := LoadLenient(bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatal(err)
	}
	add("lenient-salvaged", salvaged)
	m := topology.New(topology.Config{
		Name: "profio-m", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 18,
	})
	noFT, err := core.Analyze(core.Config{Machine: m, Mechanism: "PEBS", Period: 64}, newDemoApp())
	if err != nil {
		t.Fatal(err)
	}
	add("first-touch-off", noFT)
	empty, _, err := LoadLenient(strings.NewReader(magicV2 + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	add("empty", empty)
	if b := sectionBody(t, shapes[len(shapes)-1].data, SectionVars); string(b) != "null" {
		t.Fatalf("empty profile's vars body = %s, want null", b)
	}
	if b := sectionBody(t, shapes[len(shapes)-1].data, SectionPatterns); string(b) != "null" {
		t.Fatalf("empty profile's patterns body = %s, want null", b)
	}
	doc, err := Encode(live)
	if err != nil {
		t.Fatal(err)
	}
	doc.Version = 1
	v1, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, fileShape{"v1", v1})
	return shapes
}

// sameProfile requires a and b to re-encode to the same bytes and to
// render the same report, CCT and HTML.
func sameProfile(t *testing.T, label string, a, b *core.Profile) {
	t.Helper()
	diffBytes(t, label, saveBytes(t, a), saveBytes(t, b))
	if x, y := view.Report(a, 10), view.Report(b, 10); x != y {
		t.Errorf("%s: reports differ:\n--- a\n%s--- b\n%s", label, x, y)
	}
	if x, y := view.CCT(a, metrics.Samples, 8, 0), view.CCT(b, metrics.Samples, 8, 0); x != y {
		t.Errorf("%s: CCT views differ:\n--- a\n%s--- b\n%s", label, x, y)
	}
	x, err := view.HTML(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	y, err := view.HTML(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Errorf("%s: HTML reports differ", label)
	}
}

func TestDecoderMatchesReference(t *testing.T) {
	for _, s := range decoderShapes(t) {
		got, err := Load(bytes.NewReader(s.data))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want, err := refLoad(s.data)
		if err != nil {
			t.Fatalf("%s: reference: %v", s.name, err)
		}
		sameProfile(t, s.name, got, want)

		lgot, lrep, err := LoadLenient(bytes.NewReader(s.data))
		if err != nil {
			t.Fatalf("%s: lenient: %v", s.name, err)
		}
		lwant, lwantRep, err := refLoadLenient(s.data)
		if err != nil {
			t.Fatalf("%s: reference lenient: %v", s.name, err)
		}
		if !reflect.DeepEqual(lrep, lwantRep) {
			t.Errorf("%s: lenient reports differ:\n%+v\n%+v", s.name, lrep, lwantRep)
		}
		sameProfile(t, s.name+" (lenient)", lgot, lwant)
	}
}

// LoadFile reads into a pooled buffer that the next load reuses, which
// is safe only because no decoded profile keeps a reference into the
// bytes it was decoded from. For every decoder shape, overwriting the
// input after load must leave the profile's encoding as it was, and so
// must loading the other shapes through LoadFile's buffer.
func TestLoadedProfilesDoNotAliasInput(t *testing.T) {
	shapes := decoderShapes(t)
	dir := t.TempDir()
	paths := make([]string, len(shapes))
	want := make([][]byte, len(shapes))
	for i, s := range shapes {
		data := bytes.Clone(s.data)
		p, err := load(data)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want[i] = saveBytes(t, p)
		for j := range data {
			data[j] = 0xFF
		}
		diffBytes(t, s.name+" after overwriting its input", saveBytes(t, p), want[i])
		paths[i] = filepath.Join(dir, fmt.Sprintf("%02d.numaprof", i))
		if err := os.WriteFile(paths[i], s.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	profs := make([]*core.Profile, len(shapes))
	for i, path := range paths {
		p, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", shapes[i].name, err)
		}
		profs[i] = p
	}
	for i, p := range profs {
		diffBytes(t, shapes[i].name+" after the later LoadFiles", saveBytes(t, p), want[i])
	}
}

// damagedFiles returns every cut TestLenientSalvagesEveryTruncationPoint
// makes and, for each record line, the bit flips
// TestLenientConfinesBitFlips makes in the tree record plus a few more
// seeds and a higher rate, so that short records get flipped too. It
// also appends a NUL byte and junk to each record line and, behind a
// valid checksum, to the tree and patterns bodies: a NUL is data, not
// the end of the input.
func damagedFiles(t *testing.T, data []byte) [][]byte {
	nul := []byte("\x00junk")
	out := [][]byte{
		withSection(t, data, SectionTree, slices.Concat(sectionBody(t, data, SectionTree), nul)),
		withSection(t, data, SectionPatterns, slices.Concat(sectionBody(t, data, SectionPatterns), nul)),
	}
	cuts := []int{0, 1, len(magicV2) / 2}
	for i, b := range data {
		if b == '\n' {
			cuts = append(cuts, i+1)
			if i+20 < len(data) {
				cuts = append(cuts, i+20)
			}
		}
	}
	for _, c := range cuts {
		out = append(out, data[:c])
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	for k := 1; k < len(lines); k++ {
		target := bytes.TrimSuffix(lines[k], []byte("\n"))
		if len(target) == 0 {
			continue
		}
		out = append(out, bytes.Replace(data, target, slices.Concat(target, nul), 1))
		for _, flip := range []struct {
			rate float64
			seed uint64
		}{{0.001, 99}, {0.001, 7}, {0.01, 1234}, {0.01, 5}} {
			flipped := faults.FlipBits(target, flip.rate, flip.seed)
			if bytes.Equal(flipped, target) {
				continue
			}
			var damaged []byte
			for i, ln := range lines {
				if i == k {
					damaged = append(damaged, flipped...)
					damaged = append(damaged, '\n')
				} else {
					damaged = append(damaged, ln...)
				}
			}
			out = append(out, damaged)
		}
	}
	return out
}

func TestDecoderAgreesWithReferenceOnDamage(t *testing.T) {
	data := savedBytes(t)
	for i, in := range damagedFiles(t, data) {
		_, err := Load(bytes.NewReader(in))
		_, refErr := refLoad(in)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("input %d: strict Load err %v, reference %v", i, err, refErr)
		}
		prof, rep, err := LoadLenient(bytes.NewReader(in))
		refProf, refRep, refErr := refLoadLenient(in)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("input %d: LoadLenient err %v, reference %v", i, err, refErr)
		}
		if err != nil {
			continue
		}
		if rep.Version != refRep.Version ||
			!reflect.DeepEqual(rep.Intact, refRep.Intact) ||
			!reflect.DeepEqual(rep.Missing, refRep.Missing) ||
			!reflect.DeepEqual(rep.Synthesized, refRep.Synthesized) ||
			(len(rep.Corrupt) == 0) != (len(refRep.Corrupt) == 0) {
			t.Fatalf("input %d: reports differ:\n%+v\n%+v", i, rep, refRep)
		}
		if reflect.DeepEqual(rep, refRep) {
			diffBytes(t, fmt.Sprintf("input %d", i), saveBytes(t, prof), saveBytes(t, refProf))
		}
	}
}

// rewriteJSON decodes body, applies edit to the value tree (numbers kept
// as their text), and encodes it again, keys in sorted order.
func rewriteJSON(t *testing.T, body []byte, edit func(any) any) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(edit(v))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// walk applies fn to every object in v, depth first.
func walk(v any, fn func(map[string]any)) any {
	switch x := v.(type) {
	case map[string]any:
		for _, c := range x {
			walk(c, fn)
		}
		fn(x)
	case []any:
		for _, c := range x {
			walk(c, fn)
		}
	}
	return v
}

// indent spreads body over one line with spaces, tabs and carriage
// returns around every token (a record must stay on one line).
func indent(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	return bytes.ReplaceAll(buf.Bytes(), []byte("\n"), []byte("\r "))
}

func TestDecoderReadsNonCanonicalBodies(t *testing.T) {
	data := savedBytes(t)
	want, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tree, pats := sectionBody(t, data, SectionTree), sectionBody(t, data, SectionPatterns)
	for _, name := range []string{`"bigarray"`, `"work"`} {
		if !bytes.Contains(tree, []byte(name)) && !bytes.Contains(pats, []byte(name)) {
			t.Fatalf("canonical bodies lack %s", name)
		}
	}
	// Struct-shaped objects only: a metric or range map has int keys.
	unknown := func(o map[string]any) {
		for _, k := range []string{"k", "Min", "region_id", "Thread"} {
			if _, ok := o[k]; ok {
				o["zz_unknown"] = map[string]any{"a": []any{1, "xé\\", nil, true, false, -2.5e-3}}
			}
		}
	}
	exponent := func(o map[string]any) {
		if m, ok := o["m"].(map[string]any); ok {
			for k, v := range m {
				f, err := v.(json.Number).Float64()
				if err != nil {
					t.Fatal(err)
				}
				m[k] = json.Number(strconv.FormatFloat(f, 'e', -1, 64))
			}
		}
	}
	escape := func(b []byte) []byte {
		b = bytes.ReplaceAll(b, []byte(`"bigarray"`), []byte(`"\u0062igarr\u0061y"`))
		return bytes.ReplaceAll(b, []byte(`"work"`), []byte(`"wor\u006B"`))
	}
	same := func(v any) any { return v }
	cases := []struct {
		name        string
		tree, pats  []byte
		recordTwist bool
	}{
		{name: "indented", tree: indent(t, tree), pats: indent(t, pats)},
		{name: "sorted keys", tree: rewriteJSON(t, tree, same), pats: rewriteJSON(t, pats, same)},
		{name: "unknown keys", tree: rewriteJSON(t, tree, func(v any) any { return walk(v, unknown) }),
			pats: rewriteJSON(t, pats, func(v any) any { return walk(v, unknown) })},
		{name: "unicode escapes", tree: escape(tree), pats: escape(pats)},
		{name: "exponent metrics", tree: rewriteJSON(t, tree, func(v any) any { return walk(v, exponent) }), pats: pats},
		{name: "reordered record", tree: tree, pats: pats, recordTwist: true},
	}
	for _, c := range cases {
		file := withSection(t, withSection(t, data, SectionTree, c.tree), SectionPatterns, c.pats)
		if c.recordTwist {
			rec := fmt.Sprintf(` { "body" : %s , "x" : [ {} ] , "CRC" : %d , "section" : "tree" } `, tree, crc32.ChecksumIEEE(tree))
			file = bytes.Replace(file, []byte(`{"section":"tree","crc":`+strconv.FormatUint(uint64(crc32.ChecksumIEEE(tree)), 10)+`,"body":`+string(tree)+`}`), []byte(rec), 1)
			if bytes.Equal(file, data) {
				t.Fatal("record not rewritten")
			}
		}
		if !c.recordTwist && bytes.Equal(file, data) {
			t.Fatalf("%s: bodies unchanged", c.name)
		}
		got, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := refLoad(file)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		sameProfile(t, c.name, got, want)
		sameProfile(t, c.name+" vs reference", got, ref)
	}
}

// A type error discards the whole section: strict Load fails, and the
// lenient load restores no pattern. The reference decoder kept what
// encoding/json decoded around the error.
func TestTypeErrorDiscardsPatternsSection(t *testing.T) {
	data := savedBytes(t)
	pats := sectionBody(t, data, SectionPatterns)
	bad := bytes.Replace(pats, []byte(`"bin":-1`), []byte(`"bin":"-1"`), 1)
	if bytes.Equal(bad, pats) {
		t.Fatal("patterns body has no whole-variable pattern")
	}
	file := withSection(t, data, SectionPatterns, bad)
	if _, err := Load(bytes.NewReader(file)); err == nil {
		t.Fatal("strict Load accepted a patterns body with a type error")
	}
	prof, rep, err := LoadLenient(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || !strings.HasPrefix(rep.Corrupt[0], "section patterns:") {
		t.Fatalf("corrupt = %q, want one patterns entry", rep.Corrupt)
	}
	for _, s := range rep.Intact {
		if s == SectionPatterns {
			t.Fatalf("patterns reported intact: %+v", rep)
		}
	}
	for _, v := range prof.Registry.Variables() {
		if sc := prof.Patterns.Scopes(v); len(sc) > 0 {
			t.Fatalf("variable %s kept patterns %q from a discarded section", v.Name, sc)
		}
	}
	ref, _, err := refLoadLenient(file)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, v := range ref.Registry.Variables() {
		kept += len(ref.Patterns.Scopes(v))
	}
	if kept == 0 {
		t.Fatal("the reference decoder no longer keeps patterns around a type error; update this test's comment")
	}
}

// A metric id sizes its node's metric columns, so the tree decoder
// bounds it: a 26-byte tree body must not allocate 80 MB.
func TestTreeRejectsOutOfRangeMetricIDs(t *testing.T) {
	data := savedBytes(t)
	for _, c := range []struct {
		id string
		ok bool
	}{
		{"10000000", false},
		{"2147483647", false},
		{"-1", false},
		{strconv.Itoa(int(maxMetricID)), false},
		{strconv.Itoa(int(maxMetricID) - 1), true},
		{"0", true},
	} {
		file := withSection(t, data, SectionTree, []byte(`{"k":0,"m":{"`+c.id+`":1}}`))
		_, err := Load(bytes.NewReader(file))
		if (err == nil) != c.ok {
			t.Errorf("id %s: strict Load err = %v, want ok %v", c.id, err, c.ok)
		}
		_, rep, err := LoadLenient(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("id %s: %v", c.id, err)
		}
		treeIntact := false
		for _, s := range rep.Intact {
			treeIntact = treeIntact || s == SectionTree
		}
		if treeIntact != c.ok || rep.Clean() != c.ok {
			t.Errorf("id %s: lenient report %+v, want tree intact %v", c.id, rep, c.ok)
		}
	}
}

// A repeated field is an error rather than encoding/json's merge; a
// repeated map key keeps its last value, as a Go map does.
func TestRepeatedKeys(t *testing.T) {
	data := savedBytes(t)
	file := withSection(t, data, SectionTree, []byte(`{"k":0,"k":0}`))
	if _, err := Load(bytes.NewReader(file)); err == nil {
		t.Error("strict Load accepted a repeated field")
	}
	file = withSection(t, data, SectionTree, []byte(`{"k":0,"c":[{"k":1,"f":3,"m":{"4":1,"04":2,"+4":5,"1":7},"r":{"2":{"Min":9,"Max":9},"02":{"Min":5,"Max":6}}}]}`))
	got, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refLoad(file)
	if err != nil {
		t.Fatal(err)
	}
	diffBytes(t, "repeated map keys", saveBytes(t, got), saveBytes(t, want))
	n := got.Tree.Root().Children()[0]
	if n.Metric(4) != 5 || n.Metric(1) != 7 {
		t.Errorf("metrics %v, want 4:5 1:7", n.Metrics())
	}
	if r, _ := n.Range(2); r.Min != 5 || r.Max != 6 {
		t.Errorf("range of owner 2 = %+v, want [5,6]", r)
	}
}

// Save and the views loop over every bin of a variable, so the vars
// decoder bounds bin_count as NUMAPROF_BINS is bounded: a few bytes of
// vars body must not cost minutes in Save.
func TestVarsRejectsOutOfRangeBinCount(t *testing.T) {
	data := savedBytes(t)
	vars := sectionBody(t, data, SectionVars)
	for _, c := range []struct {
		count string
		ok    bool
	}{
		{"20000000", false},
		{"2147483647", false},
		{"-1", false},
		{strconv.Itoa(datacentric.MaxBins + 1), false},
		{strconv.Itoa(datacentric.MaxBins), true},
		{"0", true},
	} {
		body := rewriteJSON(t, vars, func(v any) any {
			vs := v.([]any)
			vs[0].(map[string]any)["bin_count"] = json.Number(c.count)
			return vs
		})
		file := withSection(t, data, SectionVars, body)
		_, err := Load(bytes.NewReader(file))
		if (err == nil) != c.ok {
			t.Errorf("bin_count %s: strict Load err = %v, want ok %v", c.count, err, c.ok)
		}
		_, rep, err := LoadLenient(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("bin_count %s: %v", c.count, err)
		}
		varsIntact := slices.Contains(rep.Intact, SectionVars)
		if varsIntact != c.ok || rep.Clean() != c.ok {
			t.Errorf("bin_count %s: lenient report %+v, want vars intact %v", c.count, rep, c.ok)
		}
	}
}
