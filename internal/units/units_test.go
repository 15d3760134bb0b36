package units

import (
	"testing"
	"testing/quick"
)

func TestCyclesScale(t *testing.T) {
	cases := []struct {
		c      Cycles
		factor float64
		want   Cycles
	}{
		{100, 1.0, 100},
		{100, 1.5, 150},
		{100, 0, 0},
		{100, -2, 0},
		{3, 1.5, 5}, // 4.5 rounds to 5
		{0, 10, 0},
	}
	for _, tc := range cases {
		if got := tc.c.Scale(tc.factor); got != tc.want {
			t.Errorf("%v.Scale(%v) = %v, want %v", tc.c, tc.factor, got, tc.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{512, "512B"},
		{KiB, "1KiB"},
		{4 * KiB, "4KiB"},
		{MiB, "1MiB"},
		{16 * GiB, "16GiB"},
		{KiB + 1, "1025B"},
	}
	for _, tc := range cases {
		if got := tc.b.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", uint64(tc.b), got, tc.want)
		}
	}
}

func TestPageGeometry(t *testing.T) {
	if PageOf(0) != 0 || PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Fatal("PageOf boundaries wrong")
	}
	if PageBase(4097) != 4096 {
		t.Fatalf("PageBase(4097) = %d", PageBase(4097))
	}
	if PagesSpanned(0, 0) != 0 {
		t.Error("zero-size range should span 0 pages")
	}
	if PagesSpanned(0, 1) != 1 {
		t.Error("1-byte range should span 1 page")
	}
	if PagesSpanned(4095, 2) != 2 {
		t.Error("range crossing a boundary should span 2 pages")
	}
	if PagesSpanned(0, 4096) != 1 {
		t.Error("exactly one page should span 1 page")
	}
}

// Property: PagesSpanned is consistent with PageOf on the endpoints.
func TestQuickPagesSpanned(t *testing.T) {
	f := func(base uint32, size uint16) bool {
		b, s := uint64(base), uint64(size)
		got := PagesSpanned(b, s)
		if s == 0 {
			return got == 0
		}
		want := PageOf(b+s-1) - PageOf(b) + 1
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale(1) is the identity, and Scale is monotone in the factor.
func TestQuickScale(t *testing.T) {
	f := func(c uint32, f1, f2 uint8) bool {
		cy := Cycles(c)
		if cy.Scale(1) != cy {
			return false
		}
		a, b := float64(f1), float64(f2)
		if a > b {
			a, b = b, a
		}
		return cy.Scale(a) <= cy.Scale(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
