package profio

// Measurement decoding. Both loaders run one path: the file is split
// into section bodies, each body is decoded once, and the profile is
// built from what decoded. A v2 record's envelope is split by the JSON
// reader in jsonread.go, which checks the body's syntax on the way, and
// its checksum is computed over the body in place. The tree and patterns
// sections, nearly all of a file's bytes, are read by the same reader
// into flat scratch (pooled across loads) and built
// into cct nodes and address-centric patterns only once the whole body
// has decoded, so a damaged section contributes nothing. The small
// sections (meta, binary, vars, timeline) go through encoding/json.
//
// A version-1 file is one JSON object. It goes through the same section
// decoders: the object itself is the meta body, and its binary, vars,
// tree, patterns and timeline values are the other bodies.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
)

// Section indices in file order. All but the timeline are core
// sections, which a strict load requires.
const (
	secMeta = iota
	secBinary
	secVars
	secTree
	secPatterns
	secTimeline
	numSections
)

var sectionNames = [numSections]string{SectionMeta, SectionBinary, SectionVars, SectionTree, SectionPatterns, SectionTimeline}

// maxMetricID bounds the metric ids a tree section may carry: a node's
// metric columns are sized by its largest id, so an unbounded id would
// let a few bytes of file demand gigabytes.
const maxMetricID = metrics.NodeBase + maxSaneDomains

// Load reads a measurement document strictly and reconstructs a
// core.Profile suitable for every view. Any damage — a checksum
// mismatch, an unparseable section line, a missing core section, an
// undecodable body, an invalid machine description — rejects the whole
// file. The profile is read-only in spirit: it has no live engine,
// sampler, or first-touch recorder behind it.
func Load(r io.Reader) (*core.Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("profio: read: %w", err)
	}
	return LoadBytes(data)
}

// LoadBytes is Load over a file's bytes already in memory. The profile
// keeps no reference into data (TestLoadedProfilesDoNotAliasInput), so
// the caller may reuse the buffer as soon as LoadBytes returns.
func LoadBytes(data []byte) (*core.Profile, error) {
	p, err := decodeFile(data, nil)
	if err != nil {
		telemetry.Default.Counter("profio_load_errors_total").Inc()
		return nil, err
	}
	telemetry.Default.Counter("profio_loads_total").Inc()
	return p, nil
}

// LoadLenient reads a measurement document salvaging everything it can:
// intact sections load normally, damaged or missing ones are replaced
// with placeholders, and the returned Report itemises the damage (also
// folded into the profile's Health.FileDamage). It returns an error
// only when nothing recognisable as a measurement file survives — in
// the spirit of the paper's offline analyzer, a partial profile with an
// honest damage report beats no profile.
func LoadLenient(r io.Reader) (*core.Profile, *Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("profio: read: %w", err)
	}
	rep := &Report{}
	prof, err := decodeFile(data, rep)
	if err != nil {
		return nil, nil, err
	}
	if d := rep.Damage(); len(d) > 0 {
		prof.Health.FileDamage = append(prof.Health.FileDamage, d...)
		telemetry.Default.Counter("profio_lenient_salvages_total").Inc()
		telemetry.Logger("profio").Warn("salvaged damaged measurement file",
			"damage", strings.Join(d, "; "))
	}
	telemetry.Default.Counter("profio_loads_total").Inc()
	return prof, rep, nil
}

// looksV1 reports whether data is a version-1 single-object document.
func looksV1(data []byte) bool {
	t := bytes.TrimLeft(data, " \t\r\n")
	return len(t) > 0 && t[0] == '{'
}

// decoder holds one load's decoded sections and the scratch the tree
// and patterns are read into, reused across loads via decPool.
type decoder struct {
	meta     metaDoc
	binary   BinaryDoc
	vars     []VarDoc
	timeline []trace.Event

	nodes   []treeNode
	metrics []metricEntry
	ranges  []rangeEntry
	built   []*cct.Node

	patterns []patternEntry
	threads  []addrcentric.ThreadRange

	strs map[string]string // labels and scopes, one string per distinct value
	rd   reader
}

// treeNode is one CCT node as read: its key, its parent's index (-1 for
// the root) and its spans of d.metrics and d.ranges. Nodes are in
// preorder, so a parent precedes its children.
type treeNode struct {
	key      cct.Key
	parent   int32
	mLo, mHi int32
	rLo, rHi int32
}

type metricEntry struct {
	id metrics.ID
	v  float64
}

type rangeEntry struct {
	owner int
	r     cct.Range
}

// patternEntry is one pattern as read; its threads are d.threads[lo:hi].
type patternEntry struct {
	region, bin int
	scope       string
	lo, hi      int
}

var decPool = sync.Pool{New: func() any { return &decoder{strs: make(map[string]string)} }}

// release drops every reference into the file and the built profile,
// then returns d to the pool.
func (d *decoder) release() {
	d.meta, d.binary, d.vars, d.timeline = metaDoc{}, BinaryDoc{}, nil, nil
	clear(d.nodes)
	clear(d.built)
	clear(d.patterns)
	clear(d.strs)
	d.nodes, d.metrics, d.ranges, d.built = d.nodes[:0], d.metrics[:0], d.ranges[:0], d.built[:0]
	d.patterns, d.threads = d.patterns[:0], d.threads[:0]
	d.rd.data = nil
	decPool.Put(d)
}

// decodeFile reads a measurement file into a profile. With a nil report
// it is strict and the first damage found is the error; with a report
// it salvages and records the damage there.
func decodeFile(data []byte, rep *Report) (*core.Profile, error) {
	d := decPool.Get().(*decoder)
	defer d.release()
	if looksV1(data) {
		if err := d.readV1(data); err != nil {
			if rep == nil {
				return nil, fmt.Errorf("profio: decode v1 document: %w", err)
			}
			// A v1 file is one JSON object: there are no section
			// boundaries to salvage at.
			return nil, fmt.Errorf("profio: v1 document unrecoverable: %w", err)
		}
		if rep != nil {
			rep.Version = d.meta.Version
			rep.Intact = append(rep.Intact, "v1 document")
		}
	} else if err := d.readV2(data, rep); err != nil {
		return nil, err
	}
	return d.build(rep)
}

// readV1 decodes a version-1 document.
func (d *decoder) readV1(data []byte) error {
	var bodies [numSections][]byte
	r := &d.rd
	r.reset(data, 0)
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		f := r.member(v1Fields, &seen)
		r.ws()
		start := r.pos
		r.skip()
		if f >= 0 {
			bodies[secBinary+f] = data[start:r.pos]
		}
	}
	r.end()
	if r.err != nil {
		return r.err
	}
	bodies[secMeta] = data
	for i, body := range bodies {
		if body != nil {
			if err := d.decodeSection(i, body); err != nil {
				return fmt.Errorf("%s: %w", sectionNames[i], err)
			}
		}
	}
	return nil
}

// v1Fields are the keys of a v1 document that hold a section body.
var v1Fields = newFields(SectionBinary, SectionVars, SectionTree, SectionPatterns, SectionTimeline)

// readV2 splits a v2 file into its checksummed sections and decodes each
// one. Strict (rep == nil), it returns the first damage as an error;
// lenient, it records damage in rep and fails only when the magic line
// is absent.
func (d *decoder) readV2(data []byte, rep *Report) error {
	line, rest, _ := bytes.Cut(data, []byte{'\n'})
	if string(bytes.TrimRight(line, "\r")) != magicV2 {
		if rep == nil {
			return errors.New("profio: missing magic line (not a v2 measurement file)")
		}
		return errors.New("profio: not a measurement file")
	}
	var (
		bodies           [numSections][]byte
		present, damaged [numSections]bool
		others           map[string]bool // other section names seen
	)
	// corrupt records one piece of damage; strict, it is the error.
	corrupt := func(sec int, msg string) error {
		if sec >= 0 {
			damaged[sec] = true
		}
		if rep == nil {
			return errors.New("profio: " + msg)
		}
		rep.Corrupt = append(rep.Corrupt, msg)
		return nil
	}
	for n := 2; len(rest) > 0; n++ {
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		name, stored, body, ok := d.rd.record(line)
		sum := crc32.ChecksumIEEE(body)
		sec := slices.Index(sectionNames[:], name)
		var err error
		switch {
		case !ok:
			err = corrupt(-1, fmt.Sprintf("line %d: unparseable section record (truncated or garbled)", n))
		case name == "":
			err = corrupt(-1, fmt.Sprintf("line %d: section record without a name", n))
		case sum != stored:
			err = corrupt(sec, fmt.Sprintf("section %s: checksum mismatch (stored %08x, computed %08x)", name, stored, sum))
		case sec >= 0 && present[sec], sec < 0 && others[name]:
			err = corrupt(sec, fmt.Sprintf("section %s: duplicate record ignored", name))
		case sec >= 0:
			bodies[sec], present[sec] = body, true
		default:
			if others == nil {
				others = make(map[string]bool)
			}
			others[name] = true
		}
		if err != nil {
			return err
		}
	}
	for i := secMeta; i < secTimeline; i++ {
		if !present[i] && rep == nil {
			return fmt.Errorf("profio: missing section %q (truncated file?)", sectionNames[i])
		}
	}
	for i, body := range bodies {
		if !present[i] {
			continue
		}
		if err := d.decodeSection(i, body); err != nil {
			if err := corrupt(i, fmt.Sprintf("section %s: undecodable body: %v", sectionNames[i], err)); err != nil {
				return err
			}
		}
	}
	if rep != nil {
		rep.Version = d.meta.Version
		for i := secMeta; i < secTimeline; i++ {
			if !present[i] {
				rep.Missing = append(rep.Missing, sectionNames[i])
			}
		}
		for i, name := range sectionNames {
			if present[i] && !damaged[i] {
				rep.Intact = append(rep.Intact, name)
			}
		}
	}
	return nil
}

var recordFields = newFields("section", "crc", "body")

// record splits one v2 record line into its section name, stored
// checksum and body, as decoding it into a struct with a string
// "section", a uint32 "crc" and a json.RawMessage "body" would. The body
// is a sub-slice of line. ok is false when the line is not such a
// record.
func (r *reader) record(line []byte) (name string, crc uint32, body []byte, ok bool) {
	r.reset(line, 0)
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		switch f := r.member(recordFields, &seen); {
		case f == 2:
			r.ws()
			start := r.pos
			r.skip()
			body = line[start:r.pos]
		case f < 0:
			r.skip()
		case r.null():
		case f == 0:
			name = string(r.str())
		default:
			crc = uint32(r.uint(32))
		}
	}
	r.end()
	return name, crc, body, r.err == nil
}

// decodeSection decodes one section body into d. A body that fails to
// decode leaves its section as if absent.
func (d *decoder) decodeSection(i int, body []byte) error {
	var err error
	switch i {
	case secMeta:
		var meta metaDoc
		if err = json.Unmarshal(body, &meta); err == nil {
			d.meta = meta
		}
	case secBinary:
		if err = json.Unmarshal(body, &d.binary); err != nil {
			d.binary = BinaryDoc{}
		}
	case secVars:
		if err = json.Unmarshal(body, &d.vars); err == nil {
			err = checkBins(d.vars)
		}
		if err != nil {
			d.vars = nil
		}
	case secTree:
		err = d.readTree(body)
	case secPatterns:
		err = d.readPatterns(body)
	case secTimeline:
		if err = json.Unmarshal(body, &d.timeline); err != nil {
			d.timeline = nil
		}
	}
	return err
}

// checkBins caps each variable's bin count at datacentric.MaxBins, the
// cap NUMAPROF_BINS has: Save and the views loop over every bin of a
// variable, so an unbounded count would let a few bytes of file demand
// minutes of work.
func checkBins(vars []VarDoc) error {
	for _, v := range vars {
		if v.BinCount < 0 || v.BinCount > datacentric.MaxBins {
			return fmt.Errorf("variable %q: bin_count %d outside [0, %d]", v.Name, v.BinCount, datacentric.MaxBins)
		}
	}
	return nil
}

// intern returns b as a string, sharing one copy per distinct value
// within a load.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

var (
	nodeFields  = newFields("k", "f", "l", "s", "n", "m", "r", "c")
	rangeFields = newFields("Min", "Max")
)

// readTree reads the tree section into d.nodes, d.metrics and d.ranges.
// On error they are left empty.
func (d *decoder) readTree(body []byte) error {
	r := &d.rd
	r.reset(body, 1)
	if !r.null() {
		d.readNode(-1)
	}
	r.end()
	if r.err != nil {
		d.nodes, d.metrics, d.ranges = d.nodes[:0], d.metrics[:0], d.ranges[:0]
	}
	return r.err
}

// readNode reads one node object and, recursively, its children.
func (d *decoder) readNode(parent int32) {
	r := &d.rd
	i := len(d.nodes)
	d.nodes = append(d.nodes, treeNode{parent: parent})
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		f := r.member(nodeFields, &seen)
		if f < 0 {
			r.skip()
			continue
		}
		if r.null() {
			continue
		}
		switch f {
		case 0:
			d.nodes[i].key.Kind = cct.NodeKind(r.uint(8))
		case 1:
			d.nodes[i].key.Fn = isa.FuncID(r.int(32))
		case 2:
			d.nodes[i].key.Line = int(r.int(strconv.IntSize))
		case 3:
			d.nodes[i].key.Site = isa.SiteID(r.int(32))
		case 4:
			d.nodes[i].key.Label = d.intern(r.str())
		case 5:
			d.nodes[i].mLo, d.nodes[i].mHi = d.readMetrics()
		case 6:
			d.nodes[i].rLo, d.nodes[i].rHi = d.readRanges()
		case 7:
			for more := r.open('[', ']'); more; more = r.next(']') {
				if !r.null() {
					d.readNode(int32(i))
				}
			}
		}
	}
}

// readMetrics reads a node's metric map into d.metrics and returns its
// span. As in a Go map, a repeated id keeps its last value.
func (d *decoder) readMetrics() (lo, hi int32) {
	r := &d.rd
	start := len(d.metrics)
	for more := r.open('{', '}'); more; more = r.next('}') {
		id := r.intKey(r.key(), strconv.IntSize)
		if id < 0 || id >= int64(maxMetricID) {
			r.fail("metric id %d outside [0, %d)", id, maxMetricID)
			return 0, 0
		}
		var v float64
		if !r.null() {
			v = r.float()
		}
		d.metrics = append(d.metrics, metricEntry{metrics.ID(id), v})
	}
	d.metrics = lastByKey(d.metrics, start, func(m metricEntry) int { return int(m.id) })
	return int32(start), int32(len(d.metrics))
}

// readRanges reads a node's per-owner range map into d.ranges and
// returns its span. A repeated owner keeps its last range.
func (d *decoder) readRanges() (lo, hi int32) {
	r := &d.rd
	start := len(d.ranges)
	for more := r.open('{', '}'); more; more = r.next('}') {
		owner := int(r.intKey(r.key(), strconv.IntSize))
		var rg cct.Range
		if !r.null() {
			r.cctRange(&rg)
		}
		d.ranges = append(d.ranges, rangeEntry{owner, rg})
	}
	d.ranges = lastByKey(d.ranges, start, func(e rangeEntry) int { return e.owner })
	return int32(start), int32(len(d.ranges))
}

// cctRange reads a {"Min":…,"Max":…} object into rg.
func (r *reader) cctRange(rg *cct.Range) {
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		f := r.member(rangeFields, &seen)
		switch {
		case f < 0:
			r.skip()
		case r.null():
		case f == 0:
			rg.Min = r.uint(64)
		default:
			rg.Max = r.uint(64)
		}
	}
}

// lastByKey keeps, of the entries s[start:] sharing a key, only the
// last one, which is what decoding a JSON object into a Go map keeps.
// The survivors come out ordered by key.
func lastByKey[E any](s []E, start int, key func(E) int) []E {
	tail := s[start:]
	if len(tail) < 2 {
		return s
	}
	slices.SortStableFunc(tail, func(a, b E) int { return cmp.Compare(key(a), key(b)) })
	w := 0
	for i := range tail {
		if i+1 < len(tail) && key(tail[i+1]) == key(tail[i]) {
			continue
		}
		tail[w] = tail[i]
		w++
	}
	return s[:start+w]
}

var (
	patternFields = newFields("region_id", "bin", "scope", "threads")
	threadFields  = newFields("Thread", "Range", "Count", "Latency")
)

// readPatterns reads the patterns section into d.patterns and
// d.threads. On error they are left empty.
func (d *decoder) readPatterns(body []byte) error {
	r := &d.rd
	r.reset(body, 1)
	if !r.null() {
		for more := r.open('[', ']'); more; more = r.next(']') {
			p := patternEntry{lo: len(d.threads)}
			if !r.null() {
				d.readPattern(&p)
			}
			p.hi = len(d.threads)
			d.patterns = append(d.patterns, p)
		}
	}
	r.end()
	if r.err != nil {
		d.patterns, d.threads = d.patterns[:0], d.threads[:0]
	}
	return r.err
}

func (d *decoder) readPattern(p *patternEntry) {
	r := &d.rd
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		f := r.member(patternFields, &seen)
		switch {
		case f < 0:
			r.skip()
		case r.null():
		case f == 0:
			p.region = int(r.int(strconv.IntSize))
		case f == 1:
			p.bin = int(r.int(strconv.IntSize))
		case f == 2:
			p.scope = d.intern(r.str())
		default:
			p.lo = len(d.threads)
			for more := r.open('[', ']'); more; more = r.next(']') {
				var tr addrcentric.ThreadRange
				if !r.null() {
					d.readThread(&tr)
				}
				d.threads = append(d.threads, tr)
			}
		}
	}
}

func (d *decoder) readThread(tr *addrcentric.ThreadRange) {
	r := &d.rd
	var seen uint32
	for more := r.open('{', '}'); more; more = r.next('}') {
		f := r.member(threadFields, &seen)
		switch {
		case f < 0:
			r.skip()
		case r.null():
		case f == 0:
			tr.Thread = int(r.int(strconv.IntSize))
		case f == 1:
			r.cctRange(&tr.Range)
		case f == 2:
			tr.Count = r.uint(64)
		default:
			tr.Latency = units.Cycles(r.uint(64))
		}
	}
}

// build makes the profile from the decoded sections in the order the
// document decoder always has: machine, program, registry, tree,
// patterns (one RestoreBin each), timeline. Strict (rep == nil), an
// unsupported version or an invalid machine is an error; lenient, each
// is replaced and reported.
func (d *decoder) build(rep *Report) (*core.Profile, error) {
	m := &d.meta
	if m.Version < 1 || m.Version > FormatVersion {
		if rep == nil {
			return nil, fmt.Errorf("profio: unsupported format version %d (support 1..%d)", m.Version, FormatVersion)
		}
		rep.Synthesized = append(rep.Synthesized, fmt.Sprintf("format version (file said %d, treating as %d)", m.Version, FormatVersion))
	}
	if err := validateMachine(m.Machine); err != nil {
		if rep == nil {
			return nil, fmt.Errorf("profio: invalid machine description: %w", err)
		}
		rep.Synthesized = append(rep.Synthesized, fmt.Sprintf("machine topology (1-domain placeholder; file's was invalid: %v)", err))
		m.Machine = salvageMachine()
	}
	machine := topology.New(m.Machine)

	prog := isa.NewProgram(d.binary.Name)
	for _, f := range d.binary.Funcs {
		prog.AddFunc(f.Name, f.File, f.StartLine)
	}
	for _, s := range d.binary.Sites {
		prog.AddSite(s.Fn, s.Line, s.Kind)
	}
	for _, sv := range d.binary.Statics {
		prog.AddStatic(sv.Name, sv.Size)
	}

	registry := datacentric.NewRegistry(datacentric.DefaultBins)
	varsByRegion := make(map[int]*datacentric.Variable)
	var vars []*core.VarProfile
	for _, vd := range d.vars {
		dv := &datacentric.Variable{
			Name:        vd.Name,
			Kind:        vd.Kind,
			Region:      vd.Region,
			AllocPath:   decodeFrames(vd.AllocPath),
			AllocSite:   vd.AllocSite,
			AllocThread: vd.AllocThread,
			Bins:        vd.BinCount,
		}
		registry.Restore(dv)
		varsByRegion[dv.Region.ID] = dv
		vars = append(vars, &core.VarProfile{
			Var:               dv,
			Samples:           vd.Samples,
			Ml:                vd.Ml,
			Mr:                vd.Mr,
			PerDomain:         vd.PerDomain,
			Latency:           vd.Latency,
			RemoteLat:         vd.RemoteLat,
			LPI:               vd.LPI,
			RemoteLatShare:    vd.RLatShare,
			MrShare:           vd.MrShare,
			Bins:              vd.Bins,
			FirstTouchThreads: vd.FirstTouchThreads,
			FirstTouchPath:    decodeFrames(vd.FirstTouchPath),
			ProtectedPages:    vd.ProtectedPages,
		})
	}

	tree := cct.New()
	d.buildTree(tree)

	patterns := addrcentric.NewTracker()
	for _, pe := range d.patterns {
		v, ok := varsByRegion[pe.region]
		if !ok {
			// The pattern's variable never accumulated samples; rebuild
			// a minimal variable so the pattern still renders.
			v = &datacentric.Variable{Name: fmt.Sprintf("<region %d>", pe.region), Region: vm.Region{ID: pe.region}, Bins: 1}
		}
		patterns.RestoreBin(v, pe.bin, pe.scope, d.threads[pe.lo:pe.hi])
	}

	var timeline *trace.Timeline
	if len(d.timeline) > 0 {
		timeline = trace.New()
		for _, ev := range d.timeline {
			timeline.Record(ev)
		}
	}

	caps, err := capsFor(m.Mechanism)
	if err != nil {
		return nil, err
	}
	return &core.Profile{
		AppName:   m.App,
		Machine:   machine,
		Mechanism: m.Mechanism,
		Caps:      caps,
		Period:    m.Period,
		Tree:      tree,
		Vars:      vars,
		Patterns:  patterns,
		Registry:  registry,
		Timeline:  timeline,
		Binary:    prog,
		Totals:    m.Totals,
		Health:    m.Health,
	}, nil
}

// buildTree grows the nodes read by readTree under t's root, each node's
// metrics and ranges before its children, as the document decoder did.
func (d *decoder) buildTree(t *cct.Tree) {
	for _, tn := range d.nodes {
		n := t.Root()
		if tn.parent >= 0 {
			n = d.built[tn.parent].Child(tn.key)
		}
		for _, e := range d.metrics[tn.mLo:tn.mHi] {
			n.AddMetric(e.id, e.v)
		}
		for _, e := range d.ranges[tn.rLo:tn.rHi] {
			n.ExtendRange(e.owner, e.r.Min)
			n.ExtendRange(e.owner, e.r.Max)
		}
		d.built = append(d.built, n)
	}
}
