package profio

// A small JSON reader for the hot sections of a measurement file. It
// reads one JSON text in place and accepts exactly what encoding/json
// accepts for the shapes profio decodes: any whitespace and key order,
// unknown keys (skipped, but still checked for syntax), escaped
// strings, null for "leave this field zero", and struct keys matched
// the way encoding/json matches them (exactly, else case-insensitively
// under Unicode simple folding). Integers are range-checked against
// their Go field types as encoding/json checks them. The one departure
// is that a repeated struct field is an error rather than a merge.
//
// The first error sticks: once err is set every read returns a zero
// value and every loop ends, so decoders check err once at the end.

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNesting is encoding/json's nesting limit, counted the same way:
// every object and array, including the record a body sits in.
const maxNesting = 10000

type reader struct {
	data  []byte
	pos   int
	depth int
	err   error
	buf   []byte // unescaped-string scratch
}

// reset points the reader at data, nested depth levels deep.
func (r *reader) reset(data []byte, depth int) {
	r.data, r.pos, r.depth, r.err = data, 0, depth, nil
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

// ws skips JSON whitespace.
func (r *reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte, or 0 at the end of the input
// or after an error.
func (r *reader) peek() byte {
	r.ws()
	if r.err != nil || r.pos >= len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

// end requires that nothing but whitespace follows the value read. It
// checks the position rather than peek, which reads a NUL byte as the
// end of the input.
func (r *reader) end() {
	r.ws()
	if r.err == nil && r.pos < len(r.data) {
		r.fail("data after the value")
	}
}

func (r *reader) literal(lit string) {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.fail("invalid literal")
		return
	}
	r.pos += len(lit)
}

// null consumes a null literal if one is next.
func (r *reader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

// open consumes the opening bracket of an object or array and reports
// whether an element follows; an empty container is consumed whole.
// The idiom is
//
//	for more := r.open('{', '}'); more; more = r.next('}') { ... }
func (r *reader) open(opening, closing byte) bool {
	if r.peek() != opening {
		r.fail("expected %q", opening)
		return false
	}
	r.pos++
	if r.depth++; r.depth > maxNesting {
		r.fail("exceeded max depth")
		return false
	}
	if r.peek() == closing {
		r.pos++
		r.depth--
		return false
	}
	return r.err == nil
}

// next consumes the comma before another element and reports true, or
// the closing bracket and reports false.
func (r *reader) next(closing byte) bool {
	switch r.peek() {
	case ',':
		r.pos++
		return true
	case closing:
		r.pos++
		r.depth--
		return false
	}
	r.fail("expected ',' or %q", closing)
	return false
}

// key reads an object member's name and the colon after it. The bytes
// are valid until the next string is read.
func (r *reader) key() []byte {
	k := r.str()
	if r.peek() != ':' {
		r.fail("expected ':'")
		return nil
	}
	r.pos++
	return k
}

// str reads a string and returns it unescaped. A string with no escapes
// and no non-ASCII bytes is returned in place; others are unescaped into
// r.buf, valid until the next call.
func (r *reader) str() []byte {
	if r.peek() != '"' {
		r.fail("expected string")
		return nil
	}
	start := r.pos + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return r.data[start:i]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return r.strSlow(start)
		}
	}
	r.fail("unterminated string")
	return nil
}

// strSlow unescapes the string starting at data[start] as encoding/json
// does: standard escapes, surrogate pairs joined, and a lone surrogate
// or invalid UTF-8 replaced by U+FFFD.
func (r *reader) strSlow(start int) []byte {
	b := r.buf[:0]
	d := r.data
	for i := start; i < len(d); {
		c := d[i]
		switch {
		case c == '"':
			r.pos = i + 1
			r.buf = b
			return b
		case c < 0x20:
			r.pos = i
			r.fail("control character in string")
			return nil
		case c == '\\' && i+1 == len(d):
			i++
		case c == '\\':
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i+2:])
				if rr < 0 {
					r.pos = i
					r.fail("invalid \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						rr1 = hex4(d[i+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						i += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.pos = i
				r.fail("invalid escape")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.buf = b
	r.fail("unterminated string")
	return nil
}

// hex4 decodes the four hex digits at the front of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// number reads a number and returns its text, checked against the JSON
// grammar.
func (r *reader) number() []byte {
	if r.peek() == 0 {
		r.fail("expected number")
		return nil
	}
	d, start := r.data, r.pos
	i := start
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		r.fail("invalid number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			r.pos = i
			r.fail("invalid number")
			return nil
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			r.pos = i
			r.fail("invalid number")
			return nil
		}
		i = skipDigits(d, i)
	}
	r.pos = i
	return d[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// magnitude parses a run of decimal digits, reporting false on any other
// byte, on no digits, or on overflow of uint64.
func magnitude(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if !isDigit(c) {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseInt parses b as strconv.ParseInt(b, 10, 64) does (an optional
// sign, then decimal digits) and reports whether the value fits an int
// of the given bit size.
func parseInt(b []byte, bits int) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		b = b[1:]
	}
	mag, ok := magnitude(b)
	limit := uint64(1) << (bits - 1)
	if neg {
		return -int64(mag), ok && mag <= limit
	}
	return int64(mag), ok && mag < limit
}

// uint reads an unsigned integer of the given bit size. Like
// strconv.ParseUint under encoding/json it refuses a sign, a fraction
// or an exponent.
func (r *reader) uint(bits int) uint64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	v, ok := magnitude(tok)
	if !ok || (bits < 64 && v >= 1<<bits) {
		r.fail("number %s does not fit a uint%d", tok, bits)
		return 0
	}
	return v
}

// int reads a signed integer of the given bit size, refusing a fraction
// or an exponent as strconv.ParseInt does.
func (r *reader) int(bits int) int64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	v, ok := parseInt(tok, bits)
	if !ok {
		r.fail("number %s does not fit an int%d", tok, bits)
		return 0
	}
	return v
}

// float reads a number as a float64 by strconv.ParseFloat, which is
// what encoding/json uses; a short unsigned integer takes an exact
// shortcut.
func (r *reader) float() float64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	if len(tok) <= 15 {
		if v, ok := magnitude(tok); ok {
			return float64(v)
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("number %s does not fit a float64", tok)
		return 0
	}
	return f
}

// intKey parses a map key as encoding/json parses the key of a map
// whose key type is an int of the given bit size.
func (r *reader) intKey(key []byte, bits int) int64 {
	v, ok := parseInt(key, bits)
	if !ok {
		r.fail("map key %q is not an int%d", key, bits)
		return 0
	}
	return v
}

// skip reads and discards one value of any kind.
func (r *reader) skip() {
	switch r.peek() {
	case '{':
		for more := r.open('{', '}'); more; more = r.next('}') {
			r.key()
			r.skip()
		}
	case '[':
		for more := r.open('[', ']'); more; more = r.next(']') {
			r.skip()
		}
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// fields is the key set of one struct shape.
type fields struct {
	names  []string
	folded []string
}

func newFields(names ...string) fields {
	f := fields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(appendFolded(nil, []byte(n))))
	}
	return f
}

// index returns the position of key in the set, or -1. Like
// encoding/json it prefers an exact match and then tries the
// case-folded one.
func (f fields) index(key []byte) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	k := appendFolded(arr[:0], key)
	for i, n := range f.folded {
		if string(k) == n {
			return i
		}
	}
	return -1
}

// member reads the next key of an object of shape f and returns its
// field index, or -1 for an unknown key. seen tracks the fields already
// read, and a repeated field is an error.
func (r *reader) member(f fields, seen *uint32) int {
	i := f.index(r.key())
	if i >= 0 {
		if *seen&(1<<i) != 0 {
			r.fail("repeated field %q", f.names[i])
			return -1
		}
		*seen |= 1 << i
	}
	return i
}

// appendFolded is encoding/json's field-name folding: ASCII letters to
// upper case, other runes to the smallest rune of their fold orbit.
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
