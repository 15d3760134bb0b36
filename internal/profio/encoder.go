package profio

// Buffered measurement encoding. Save streams a profile through
// buffers reused across saves (pooled, so concurrent jobs in numad each
// get their own). The small sections (meta, binary, vars, timeline) go
// through encoding/json against a reused buffer. The tree and patterns
// sections, nearly all of every measurement file, are written by hand
// straight from cct.Node and addrcentric.Pattern storage, with no
// intermediate document.
//
// The output is byte-for-byte what the Document-shaped reference
// encoder writes (Encode + writeDocument, kept in the package's tests
// as the oracle of the byte-identity tests). That means replicating
// encoding/json exactly where the hand-written sections touch it:
// struct field order and omitempty semantics, integer map keys sorted
// as *strings* ("10" before "2"), HTML-escaped string encoding, and the
// shortest-form float grammar.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/addrcentric"
	"repro/internal/cct"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// encoder holds every buffer a save needs, reused across saves via
// encPool.
type encoder struct {
	out  []byte // the assembled file
	body []byte // current hand-written section body (tree, patterns)
	jbuf writerBuf
	jenc *json.Encoder

	vars []VarDoc

	kids   []*cct.Node // sorted-children stack for the tree walk
	owners []int       // range-owner scratch
}

// writerBuf is a minimal bytes.Buffer stand-in that keeps its backing
// slice accessible for reslicing without copies.
type writerBuf struct {
	b []byte
}

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var encPool = sync.Pool{
	New: func() any {
		e := &encoder{}
		e.jenc = json.NewEncoder(&e.jbuf)
		return e
	},
}

// Save writes a profile as a v2 sectioned measurement document.
func Save(w io.Writer, p *core.Profile) error {
	if p == nil {
		return fmt.Errorf("profio: nil profile")
	}
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	if err := e.encodeProfile(p); err != nil {
		return err
	}
	if _, err := w.Write(e.out); err != nil {
		return err
	}
	telemetry.Default.Counter("profio_saves_total").Inc()
	return nil
}

// jsonBody encodes v with the reused encoder and returns the compact
// body (the trailing newline json.Encoder appends is stripped).
func (e *encoder) jsonBody(name string, v any) ([]byte, error) {
	e.jbuf.b = e.jbuf.b[:0]
	if err := e.jenc.Encode(v); err != nil {
		return nil, fmt.Errorf("profio: encode section %s: %w", name, err)
	}
	return e.jbuf.b[:len(e.jbuf.b)-1], nil
}

// section appends one checksummed section line to the output. The
// record layout matches json.Marshal(&sectionRec{...}) byte-for-byte:
// the section names are plain ASCII and the body is already compact,
// HTML-escaped JSON, so hand-assembly introduces no divergence.
func (e *encoder) section(name string, body []byte) {
	e.out = append(e.out, `{"section":"`...)
	e.out = append(e.out, name...)
	e.out = append(e.out, `","crc":`...)
	e.out = strconv.AppendUint(e.out, uint64(crc32.ChecksumIEEE(body)), 10)
	e.out = append(e.out, `,"body":`...)
	e.out = append(e.out, body...)
	e.out = append(e.out, '}', '\n')
}

func (e *encoder) jsonSection(name string, v any) error {
	body, err := e.jsonBody(name, v)
	if err != nil {
		return err
	}
	e.section(name, body)
	return nil
}

// nullBody is the body json.Marshal produces for a nil slice; the vars
// and patterns sections of an empty profile must keep emitting it.
var nullBody = []byte("null")

func (e *encoder) encodeProfile(p *core.Profile) error {
	e.out = append(e.out[:0], magicV2...)
	e.out = append(e.out, '\n')

	meta := metaDoc{
		Version:   FormatVersion,
		App:       p.AppName,
		Machine:   p.Machine.Config(),
		Mechanism: p.Mechanism,
		Period:    p.Period,
		HasFT:     p.FirstTouch != nil,
		Totals:    p.Totals,
		Health:    p.Health,
	}
	if err := e.jsonSection(SectionMeta, &meta); err != nil {
		return err
	}

	bin := BinaryDoc{
		Name:    p.Binary.Name,
		Funcs:   p.Binary.Funcs(),
		Sites:   p.Binary.Sites(),
		Statics: p.Binary.Statics(),
	}
	if err := e.jsonSection(SectionBinary, &bin); err != nil {
		return err
	}

	e.vars = e.vars[:0]
	for _, v := range p.Vars {
		e.vars = append(e.vars, encodeVar(v))
	}
	if len(e.vars) == 0 {
		e.section(SectionVars, nullBody)
	} else if err := e.jsonSection(SectionVars, e.vars); err != nil {
		return err
	}

	e.body = e.body[:0]
	e.encodeTreeNode(p.Tree.Root())
	e.section(SectionTree, e.body)

	e.body = e.body[:0]
	for _, v := range p.Registry.Variables() {
		for _, scope := range p.Patterns.Scopes(v) {
			if pat, ok := p.Patterns.Pattern(v, scope); ok {
				e.encodePattern(v.Region.ID, addrcentric.WholeVariable, scope, pat.Threads())
			}
			for b := 0; b < v.Bins; b++ {
				if bp, ok := p.Patterns.BinPattern(v, b, scope); ok {
					e.encodePattern(v.Region.ID, b, scope, bp.Threads())
				}
			}
		}
	}
	if len(e.body) == 0 {
		e.section(SectionPatterns, nullBody)
	} else {
		e.body = append(e.body, ']')
		e.section(SectionPatterns, e.body)
	}

	if p.Timeline != nil {
		if events := p.Timeline.Events(); len(events) > 0 {
			if err := e.jsonSection(SectionTimeline, events); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodePattern appends one pattern to the patterns array in e.body,
// opening the array before the first, replicating json.Marshal of
// struct{RegionID int `json:"region_id"`; Bin int `json:"bin"`;
// Scope string `json:"scope"`; Threads []addrcentric.ThreadRange
// `json:"threads"`}.
func (e *encoder) encodePattern(region, bin int, scope string, threads []addrcentric.ThreadRange) {
	b := e.body
	if len(b) == 0 {
		b = append(b, '[')
	} else {
		b = append(b, ',')
	}
	b = append(b, `{"region_id":`...)
	b = strconv.AppendInt(b, int64(region), 10)
	b = append(b, `,"bin":`...)
	b = strconv.AppendInt(b, int64(bin), 10)
	b = append(b, `,"scope":`...)
	b = appendJSONString(b, scope)
	b = append(b, `,"threads":`...)
	if threads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, tr := range threads {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Thread":`...)
			b = strconv.AppendInt(b, int64(tr.Thread), 10)
			b = append(b, `,"Range":{"Min":`...)
			b = strconv.AppendUint(b, tr.Range.Min, 10)
			b = append(b, `,"Max":`...)
			b = strconv.AppendUint(b, tr.Range.Max, 10)
			b = append(b, `},"Count":`...)
			b = strconv.AppendUint(b, tr.Count, 10)
			b = append(b, `,"Latency":`...)
			b = strconv.AppendUint(b, uint64(tr.Latency), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	e.body = append(b, '}')
}

// metricKeyOrder lists column ids in the order encoding/json emits
// integer map keys: sorted by their decimal string ("10" < "2"). It
// comfortably covers the dense id space (a handful of core counters
// plus one per domain, max 64 domains); wider columns take the dynamic
// fallback.
var metricKeyOrder = func() []metrics.ID {
	ids := make([]metrics.ID, 256)
	for i := range ids {
		ids[i] = metrics.ID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		return strconv.Itoa(int(ids[i])) < strconv.Itoa(int(ids[j]))
	})
	return ids
}()

// encodeTreeNode appends one CCT node (and, recursively, its subtree)
// to e.body, replicating json.Marshal of the reference encoder's NodeDoc.
func (e *encoder) encodeTreeNode(n *cct.Node) {
	b := e.body
	b = append(b, `{"k":`...)
	b = strconv.AppendUint(b, uint64(uint8(n.Key.Kind)), 10)
	if n.Key.Fn != 0 {
		b = append(b, `,"f":`...)
		b = strconv.AppendInt(b, int64(int32(n.Key.Fn)), 10)
	}
	if n.Key.Line != 0 {
		b = append(b, `,"l":`...)
		b = strconv.AppendInt(b, int64(n.Key.Line), 10)
	}
	if n.Key.Site != 0 {
		b = append(b, `,"s":`...)
		b = strconv.AppendInt(b, int64(int32(n.Key.Site)), 10)
	}
	if n.Key.Label != "" {
		b = append(b, `,"n":`...)
		b = appendJSONString(b, n.Key.Label)
	}

	cols := n.MetricColumns()
	nonZero := 0
	for _, v := range cols {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero > 0 {
		b = append(b, `,"m":{`...)
		first := true
		if len(cols) <= len(metricKeyOrder) {
			for _, id := range metricKeyOrder {
				if int(id) >= len(cols) || cols[id] == 0 {
					continue
				}
				if !first {
					b = append(b, ',')
				}
				first = false
				b = append(b, '"')
				b = strconv.AppendInt(b, int64(id), 10)
				b = append(b, '"', ':')
				b = appendJSONFloat(b, cols[id])
			}
		} else {
			// Dynamic fallback for columns wider than the table.
			ids := make([]metrics.ID, 0, nonZero)
			for i, v := range cols {
				if v != 0 {
					ids = append(ids, metrics.ID(i))
				}
			}
			sort.Slice(ids, func(i, j int) bool {
				return strconv.Itoa(int(ids[i])) < strconv.Itoa(int(ids[j]))
			})
			for i, id := range ids {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, '"')
				b = strconv.AppendInt(b, int64(id), 10)
				b = append(b, '"', ':')
				b = appendJSONFloat(b, cols[id])
			}
		}
		b = append(b, '}')
	}

	ownerBase := len(e.owners)
	e.owners = n.AppendRangeOwners(e.owners)
	if owners := e.owners[ownerBase:]; len(owners) > 0 {
		sortOwnersByString(owners)
		b = append(b, `,"r":{`...)
		for i, o := range owners {
			if i > 0 {
				b = append(b, ',')
			}
			r, _ := n.Range(o)
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(o), 10)
			b = append(b, `":{"Min":`...)
			b = strconv.AppendUint(b, r.Min, 10)
			b = append(b, `,"Max":`...)
			b = strconv.AppendUint(b, r.Max, 10)
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	e.owners = e.owners[:ownerBase]

	if n.NumChildren() > 0 {
		b = append(b, `,"c":[`...)
		e.body = b
		kidBase := len(e.kids)
		e.kids = n.AppendChildren(e.kids)
		// The recursion below may grow e.kids and move its backing
		// array; this local header still reads the children pointers
		// correctly either way.
		kids := e.kids[kidBase:]
		for i, c := range kids {
			if i > 0 {
				e.body = append(e.body, ',')
			}
			e.encodeTreeNode(c)
		}
		e.kids = e.kids[:kidBase]
		b = append(e.body, ']')
	}
	e.body = append(b, '}')
}

// sortOwnersByString reorders owners (already numerically sorted and
// tiny) into decimal-string order, matching encoding/json's map key
// ordering.
func sortOwnersByString(owners []int) {
	for i := 1; i < len(owners); i++ {
		for j := i; j > 0 && decimalLess(owners[j], owners[j-1]); j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
}

// decimalLess reports whether the decimal rendering of a sorts before
// that of b as a string, without rendering either.
func decimalLess(a, b int) bool {
	if a == b {
		return false
	}
	// '-' (0x2d) sorts before every digit (0x30+).
	if (a < 0) != (b < 0) {
		return a < 0
	}
	var ab, bb [20]byte
	return string(appendAbsDecimal(ab[:0], a)) < string(appendAbsDecimal(bb[:0], b))
}

// appendAbsDecimal writes |v|'s digits; the shared '-' prefix of two
// negative numbers never affects their order.
func appendAbsDecimal(dst []byte, v int) []byte {
	u := uint64(v)
	if v < 0 {
		u = uint64(-int64(v))
	}
	return strconv.AppendUint(dst, u, 10)
}

// appendJSONFloat replicates encoding/json's float64 grammar: shortest
// form, 'f' format except for very small/large magnitudes, with the
// exponent's leading zero stripped.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString replicates encoding/json's string encoding with
// HTML escaping on (the Marshal default): control characters, quotes,
// backslashes, <, >, &, invalid UTF-8, and U+2028/U+2029 are escaped
// exactly as the standard library does.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
