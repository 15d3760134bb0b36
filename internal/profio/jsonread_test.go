package profio

import (
	"encoding/json"
	"fmt"
	"testing"
)

// The reader's typed reads must accept exactly the numbers encoding/json
// accepts for the same Go type, with the same value.
func TestReaderNumbersMatchEncodingJSON(t *testing.T) {
	tokens := []string{
		"0", "-0", "1", "255", "256", "-1", "1.0", "1e2", "01", "+1", "-", "1.", "1e", ".5",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "123456789012345", "1234567890123456789",
		"0.1", "-2.5e-3", "1E+2", "1e308", "1e309", "-1e309", "1e-400", "true", `"5"`, "[]",
		"0\x00", "1 \x00junk",
	}
	type read func(r *reader) any
	targets := []struct {
		name string
		read read
		zero func() any
	}{
		{"uint8", func(r *reader) any { return uint8(r.uint(8)) }, func() any { return new(uint8) }},
		{"uint64", func(r *reader) any { return r.uint(64) }, func() any { return new(uint64) }},
		{"int32", func(r *reader) any { return int32(r.int(32)) }, func() any { return new(int32) }},
		{"int64", func(r *reader) any { return r.int(64) }, func() any { return new(int64) }},
		{"float64", func(r *reader) any { return r.float() }, func() any { return new(float64) }},
	}
	for _, tok := range tokens {
		for _, tg := range targets {
			want := tg.zero()
			jerr := json.Unmarshal([]byte(tok), want)
			var r reader
			r.reset([]byte(tok), 0)
			got := tg.read(&r)
			r.end()
			if (r.err == nil) != (jerr == nil) {
				t.Errorf("%s as %s: reader err %v, encoding/json err %v", tok, tg.name, r.err, jerr)
				continue
			}
			if jerr == nil {
				if w := fmt.Sprint(deref(want)); fmt.Sprint(got) != w {
					t.Errorf("%s as %s: reader %v, encoding/json %s", tok, tg.name, got, w)
				}
			}
		}
	}
}

func deref(p any) any {
	switch v := p.(type) {
	case *uint8:
		return *v
	case *uint64:
		return *v
	case *int32:
		return *v
	case *int64:
		return *v
	case *float64:
		return *v
	}
	panic("unexpected type")
}

// Strings unescape as encoding/json unescapes them, including lone
// surrogates and invalid UTF-8, and the same inputs are refused.
func TestReaderStringsMatchEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`"plain"`, `"aéb"`, `"😀"`, `"\ud83d"`, `"\ud83dx"`, `"\udc00"`,
		`"\ud83dA"`, `"\ud83d😀"`, "\"\xff\xfe\"", "\"\xed\xa0\x80\"", `"\/\b\f\n\r\t\"\\"`,
		"\"a\x01\"", `"\x"`, `"\u12"`, `"\u12g4"`, `"unterminated`, `"<<>"`, "\"é\"", "\"s\"\x00",
	} {
		var want string
		jerr := json.Unmarshal([]byte(in), &want)
		var r reader
		r.reset([]byte(in), 0)
		got := string(r.str())
		r.end()
		if (r.err == nil) != (jerr == nil) {
			t.Errorf("%q: reader err %v, encoding/json err %v", in, r.err, jerr)
			continue
		}
		if jerr == nil && got != want {
			t.Errorf("%q: reader %q, encoding/json %q", in, got, want)
		}
	}
}

// Keys match struct fields as encoding/json matches them: exactly, else
// under Unicode case folding, where the Kelvin sign folds to k and the
// long s to s.
func TestFieldsFoldLikeEncodingJSON(t *testing.T) {
	for key, want := range map[string]int{
		"k": 0, "K": 0, "K": 0, "s": 3, "S": 3, "ſ": 3, "c": 7, "x": -1, "kk": -1,
	} {
		if got := nodeFields.index([]byte(key)); got != want {
			t.Errorf("nodeFields.index(%q) = %d, want %d", key, got, want)
		}
		var v struct {
			K int `json:"k"`
			S int `json:"s"`
		}
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{%q:1}`, key)), &v); err != nil {
			t.Fatal(err)
		}
		if matched := v.K == 1 || v.S == 1; matched != (want == 0 || want == 3) {
			t.Errorf("%q: encoding/json matched %v, the reader %d", key, matched, want)
		}
	}
}
