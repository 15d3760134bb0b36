package profio

// The reference codec: the Document-shaped encoder and decoder that
// Save and the one-pass decoder replaced, kept here as the
// differential oracle. Encode + writeDocument render a profile through
// encoding/json; parseStrict/parseLenient + Decode/decode read a file
// back through a Document, one NodeDoc per CCT node and one PatternDoc
// per pattern. The encoder identity tests require Save to match the
// reference encoder byte for byte, and the decoder tests and
// FuzzSectionBody require the production loaders to agree with the
// reference loaders (refLoad, refLoadLenient).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/vm"
)

// refLoad is the reference strict loader.
func refLoad(data []byte) (*core.Profile, error) {
	doc, err := parseStrict(data)
	if err != nil {
		return nil, err
	}
	return Decode(doc)
}

// refLoadLenient is the reference lenient loader.
func refLoadLenient(data []byte) (*core.Profile, *Report, error) {
	doc, rep, err := parseLenient(data)
	if err != nil {
		return nil, nil, err
	}
	prof, err := decode(doc, rep)
	if err != nil {
		return nil, nil, err
	}
	prof.Health.FileDamage = append(prof.Health.FileDamage, rep.Damage()...)
	return prof, rep, nil
}

// coreSections lists the sections a strict Load requires.
var coreSections = []string{SectionMeta, SectionBinary, SectionVars, SectionTree, SectionPatterns}

// Document is the in-memory assembly of a measurement file: the union
// of all sections. Version-1 files are exactly one Document as a single
// JSON object; version-2 files shard it into checksummed sections.
type Document struct {
	Version   int             `json:"version"`
	App       string          `json:"app"`
	Machine   topology.Config `json:"machine"`
	Mechanism string          `json:"mechanism"`
	Period    uint64          `json:"period"`

	Binary   BinaryDoc     `json:"binary"`
	Totals   core.Totals   `json:"totals"`
	Health   core.Health   `json:"health,omitempty"`
	Vars     []VarDoc      `json:"vars"`
	Tree     *NodeDoc      `json:"tree"`
	Patterns []PatternDoc  `json:"patterns"`
	Timeline []trace.Event `json:"timeline,omitempty"`
	HasFT    bool          `json:"has_first_touch"`
}

// sectionRec is one line of a v2 file after the magic.
type sectionRec struct {
	Name string          `json:"section"`
	CRC  uint32          `json:"crc"`
	Body json.RawMessage `json:"body"`
}

// NodeDoc is one serialised CCT node.
type NodeDoc struct {
	Kind  uint8  `json:"k"`
	Fn    int32  `json:"f,omitempty"`
	Line  int    `json:"l,omitempty"`
	Site  int32  `json:"s,omitempty"`
	Label string `json:"n,omitempty"`

	Metrics  map[metrics.ID]float64 `json:"m,omitempty"`
	Ranges   map[int]cct.Range      `json:"r,omitempty"`
	Children []*NodeDoc             `json:"c,omitempty"`
}

// PatternDoc is one (variable, bin, scope) address-centric pattern.
// Bin is addrcentric.WholeVariable for the whole-extent pattern.
type PatternDoc struct {
	RegionID int                       `json:"region_id"`
	Bin      int                       `json:"bin"`
	Scope    string                    `json:"scope"`
	Threads  []addrcentric.ThreadRange `json:"threads"`
}

// writeDocument shards doc into checksummed sections.
func writeDocument(w io.Writer, doc *Document) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, magicV2); err != nil {
		return err
	}
	writeSection := func(name string, v any) error {
		body, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("profio: encode section %s: %w", name, err)
		}
		rec := sectionRec{Name: name, CRC: crc32.ChecksumIEEE(body), Body: body}
		line, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("profio: encode section %s: %w", name, err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	meta := metaDoc{
		Version:   doc.Version,
		App:       doc.App,
		Machine:   doc.Machine,
		Mechanism: doc.Mechanism,
		Period:    doc.Period,
		HasFT:     doc.HasFT,
		Totals:    doc.Totals,
		Health:    doc.Health,
	}
	if err := writeSection(SectionMeta, &meta); err != nil {
		return err
	}
	if err := writeSection(SectionBinary, &doc.Binary); err != nil {
		return err
	}
	if err := writeSection(SectionVars, doc.Vars); err != nil {
		return err
	}
	if err := writeSection(SectionTree, doc.Tree); err != nil {
		return err
	}
	if err := writeSection(SectionPatterns, doc.Patterns); err != nil {
		return err
	}
	if len(doc.Timeline) > 0 {
		if err := writeSection(SectionTimeline, doc.Timeline); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Encode converts a live profile into its document form.
func Encode(p *core.Profile) (*Document, error) {
	if p == nil {
		return nil, fmt.Errorf("profio: nil profile")
	}
	doc := &Document{
		Version:   FormatVersion,
		App:       p.AppName,
		Machine:   p.Machine.Config(),
		Mechanism: p.Mechanism,
		Period:    p.Period,
		Totals:    p.Totals,
		Health:    p.Health,
		HasFT:     p.FirstTouch != nil,
	}
	doc.Binary = BinaryDoc{
		Name:    p.Binary.Name,
		Funcs:   p.Binary.Funcs(),
		Sites:   p.Binary.Sites(),
		Statics: p.Binary.Statics(),
	}
	for _, v := range p.Vars {
		doc.Vars = append(doc.Vars, encodeVar(v))
	}
	doc.Tree = encodeNode(p.Tree.Root())
	for _, v := range p.Registry.Variables() {
		for _, scope := range p.Patterns.Scopes(v) {
			if pat, ok := p.Patterns.Pattern(v, scope); ok {
				doc.Patterns = append(doc.Patterns, PatternDoc{
					RegionID: v.Region.ID,
					Bin:      addrcentric.WholeVariable,
					Scope:    scope,
					Threads:  pat.Threads(),
				})
			}
			for b := 0; b < v.Bins; b++ {
				if bp, ok := p.Patterns.BinPattern(v, b, scope); ok {
					doc.Patterns = append(doc.Patterns, PatternDoc{
						RegionID: v.Region.ID,
						Bin:      b,
						Scope:    scope,
						Threads:  bp.Threads(),
					})
				}
			}
		}
	}
	if p.Timeline != nil {
		doc.Timeline = p.Timeline.Events()
	}
	return doc, nil
}

func encodeNode(n *cct.Node) *NodeDoc {
	d := &NodeDoc{
		Kind:  uint8(n.Key.Kind),
		Fn:    int32(n.Key.Fn),
		Line:  n.Key.Line,
		Site:  int32(n.Key.Site),
		Label: n.Key.Label,
	}
	if m := n.Metrics(); len(m) > 0 {
		d.Metrics = m
	}
	if r := n.Ranges(); len(r) > 0 {
		d.Ranges = r
	}
	for _, c := range n.Children() {
		d.Children = append(d.Children, encodeNode(c))
	}
	return d
}

// parseStrict assembles a Document from file bytes, rejecting any
// damage.
func parseStrict(data []byte) (*Document, error) {
	if looksV1(data) {
		var doc Document
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("profio: decode v1 document: %w", err)
		}
		return &doc, nil
	}
	bodies, anomalies := scanSections(data)
	if len(anomalies) > 0 {
		return nil, fmt.Errorf("profio: %s", anomalies[0])
	}
	for _, name := range coreSections {
		if _, ok := bodies[name]; !ok {
			return nil, fmt.Errorf("profio: missing section %q (truncated file?)", name)
		}
	}
	doc, decodeErrs := assemble(bodies)
	if len(decodeErrs) > 0 {
		return nil, fmt.Errorf("profio: %s", decodeErrs[0])
	}
	return doc, nil
}

// parseLenient assembles what it can, itemising damage in the report.
// It fails only when the bytes are not recognisable as any version of
// the format.
func parseLenient(data []byte) (*Document, *Report, error) {
	rep := &Report{}
	if looksV1(data) {
		var doc Document
		if err := json.Unmarshal(data, &doc); err != nil {
			// A v1 file is one JSON object: there are no section
			// boundaries to salvage at.
			return nil, nil, fmt.Errorf("profio: v1 document unrecoverable: %w", err)
		}
		rep.Version = doc.Version
		rep.Intact = append(rep.Intact, "v1 document")
		return &doc, rep, nil
	}
	bodies, anomalies := scanSections(data)
	if bodies == nil {
		return nil, nil, fmt.Errorf("profio: not a measurement file")
	}
	rep.Corrupt = append(rep.Corrupt, anomalies...)
	doc, decodeErrs := assemble(bodies)
	rep.Corrupt = append(rep.Corrupt, decodeErrs...)
	rep.Version = doc.Version
	for _, name := range coreSections {
		if _, ok := bodies[name]; !ok {
			rep.Missing = append(rep.Missing, name)
		}
	}
	for _, name := range []string{SectionMeta, SectionBinary, SectionVars, SectionTree, SectionPatterns, SectionTimeline} {
		if _, ok := bodies[name]; ok && !damaged(rep, name) {
			rep.Intact = append(rep.Intact, name)
		}
	}
	return doc, rep, nil
}

// damaged reports whether a recovered section later failed to decode.
func damaged(rep *Report, name string) bool {
	for _, c := range rep.Corrupt {
		if strings.HasPrefix(c, "section "+name+":") {
			return true
		}
	}
	return false
}

// scanSections splits v2 file bytes into verified section bodies. It
// returns nil bodies when the magic line is absent (not our format);
// otherwise it returns every section whose line parses and whose
// checksum matches, plus a list of anomalies for everything else.
func scanSections(data []byte) (map[string]json.RawMessage, []string) {
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 || strings.TrimRight(string(lines[0]), "\r") != magicV2 {
		return nil, []string{"missing magic line (not a v2 measurement file)"}
	}
	bodies := make(map[string]json.RawMessage)
	var anomalies []string
	for i, line := range lines[1:] {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec sectionRec
		if err := json.Unmarshal(line, &rec); err != nil {
			anomalies = append(anomalies, fmt.Sprintf("line %d: unparseable section record (truncated or garbled)", i+2))
			continue
		}
		if rec.Name == "" {
			anomalies = append(anomalies, fmt.Sprintf("line %d: section record without a name", i+2))
			continue
		}
		if got := crc32.ChecksumIEEE(rec.Body); got != rec.CRC {
			anomalies = append(anomalies, fmt.Sprintf("section %s: checksum mismatch (stored %08x, computed %08x)", rec.Name, rec.CRC, got))
			continue
		}
		if _, dup := bodies[rec.Name]; dup {
			anomalies = append(anomalies, fmt.Sprintf("section %s: duplicate record ignored", rec.Name))
			continue
		}
		bodies[rec.Name] = rec.Body
	}
	return bodies, anomalies
}

// assemble unmarshals verified section bodies into a Document. Bodies
// that fail to unmarshal (possible under fuzzing: a record whose CRC
// happens to match a garbled body) are reported, not fatal — the
// caller decides strict vs lenient.
func assemble(bodies map[string]json.RawMessage) (*Document, []string) {
	doc := &Document{}
	var errs []string
	report := func(name string, err error) {
		errs = append(errs, fmt.Sprintf("section %s: undecodable body: %v", name, err))
	}
	if b, ok := bodies[SectionMeta]; ok {
		var meta metaDoc
		if err := json.Unmarshal(b, &meta); err != nil {
			report(SectionMeta, err)
		} else {
			doc.Version = meta.Version
			doc.App = meta.App
			doc.Machine = meta.Machine
			doc.Mechanism = meta.Mechanism
			doc.Period = meta.Period
			doc.HasFT = meta.HasFT
			doc.Totals = meta.Totals
			doc.Health = meta.Health
		}
	}
	if b, ok := bodies[SectionBinary]; ok {
		if err := json.Unmarshal(b, &doc.Binary); err != nil {
			report(SectionBinary, err)
		}
	}
	if b, ok := bodies[SectionVars]; ok {
		if err := json.Unmarshal(b, &doc.Vars); err != nil {
			report(SectionVars, err)
		}
	}
	if b, ok := bodies[SectionTree]; ok {
		if err := json.Unmarshal(b, &doc.Tree); err != nil {
			report(SectionTree, err)
		}
	}
	if b, ok := bodies[SectionPatterns]; ok {
		if err := json.Unmarshal(b, &doc.Patterns); err != nil {
			report(SectionPatterns, err)
		}
	}
	if b, ok := bodies[SectionTimeline]; ok {
		if err := json.Unmarshal(b, &doc.Timeline); err != nil {
			report(SectionTimeline, err)
		}
	}
	return doc, errs
}

// Decode reconstructs a core.Profile from its document form, strictly:
// unsupported versions and invalid machine descriptions are errors.
func Decode(doc *Document) (*core.Profile, error) {
	if doc.Version < 1 || doc.Version > FormatVersion {
		return nil, fmt.Errorf("profio: unsupported format version %d (support 1..%d)", doc.Version, FormatVersion)
	}
	if err := validateMachine(doc.Machine); err != nil {
		return nil, fmt.Errorf("profio: invalid machine description: %w", err)
	}
	return decode(doc, nil)
}

// decode builds the profile. With a non-nil report it runs leniently:
// a bad machine description or version is replaced and reported instead
// of failing.
func decode(doc *Document, rep *Report) (*core.Profile, error) {
	if rep != nil {
		if doc.Version < 1 || doc.Version > FormatVersion {
			rep.Synthesized = append(rep.Synthesized, fmt.Sprintf("format version (file said %d, treating as %d)", doc.Version, FormatVersion))
			doc.Version = FormatVersion
		}
		if err := validateMachine(doc.Machine); err != nil {
			rep.Synthesized = append(rep.Synthesized, fmt.Sprintf("machine topology (1-domain placeholder; file's was invalid: %v)", err))
			doc.Machine = salvageMachine()
		}
	}
	machine := topology.New(doc.Machine)

	prog := isa.NewProgram(doc.Binary.Name)
	for _, f := range doc.Binary.Funcs {
		prog.AddFunc(f.Name, f.File, f.StartLine)
	}
	for _, s := range doc.Binary.Sites {
		prog.AddSite(s.Fn, s.Line, s.Kind)
	}
	for _, sv := range doc.Binary.Statics {
		prog.AddStatic(sv.Name, sv.Size)
	}

	registry := datacentric.NewRegistry(datacentric.DefaultBins)
	varsByRegion := make(map[int]*datacentric.Variable)
	var vars []*core.VarProfile
	for _, vd := range doc.Vars {
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
	if doc.Tree != nil {
		decodeNodeInto(tree.Root(), doc.Tree)
	}

	patterns := addrcentric.NewTracker()
	for _, pd := range doc.Patterns {
		v, ok := varsByRegion[pd.RegionID]
		if !ok {
			// The pattern's variable never accumulated samples; rebuild
			// a minimal variable so the pattern still renders.
			v = &datacentric.Variable{Name: fmt.Sprintf("<region %d>", pd.RegionID), Region: vm.Region{ID: pd.RegionID}, Bins: 1}
		}
		patterns.RestoreBin(v, pd.Bin, pd.Scope, pd.Threads)
	}

	var timeline *trace.Timeline
	if len(doc.Timeline) > 0 {
		timeline = trace.New()
		for _, ev := range doc.Timeline {
			timeline.Record(ev)
		}
	}

	caps, err := capsFor(doc.Mechanism)
	if err != nil {
		return nil, err
	}
	return &core.Profile{
		AppName:   doc.App,
		Machine:   machine,
		Mechanism: doc.Mechanism,
		Caps:      caps,
		Period:    doc.Period,
		Tree:      tree,
		Vars:      vars,
		Patterns:  patterns,
		Registry:  registry,
		Timeline:  timeline,
		Binary:    prog,
		Totals:    doc.Totals,
		Health:    doc.Health,
	}, nil
}

func decodeNodeInto(n *cct.Node, d *NodeDoc) {
	for id, v := range d.Metrics {
		n.AddMetric(id, v)
	}
	for owner, rg := range d.Ranges {
		n.ExtendRange(owner, rg.Min)
		n.ExtendRange(owner, rg.Max)
	}
	for _, cd := range d.Children {
		if cd == nil {
			continue
		}
		key := cct.Key{
			Kind:  cct.NodeKind(cd.Kind),
			Fn:    isa.FuncID(cd.Fn),
			Line:  cd.Line,
			Site:  isa.SiteID(cd.Site),
			Label: cd.Label,
		}
		decodeNodeInto(n.Child(key), cd)
	}
}
