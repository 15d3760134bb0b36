package faults

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/pmu"
)

func TestParsePlanRoundTrip(t *testing.T) {
	in := "drop=0.2,corrupt=0.01,skid=0.05,garble=0.01,stall=500,fail=2000,threadloss=0.25,seed=42"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0.2 || p.CorruptRate != 0.01 || p.SkidRate != 0.05 ||
		p.GarbleRate != 0.01 || p.StallAfter != 500 || p.FailAfter != 2000 ||
		p.ThreadLossRate != 0.25 || p.Seed != 42 {
		t.Fatalf("parsed plan %+v", p)
	}
	// String renders back to a parseable, equal plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if *p2 != *p {
		t.Fatalf("round trip: %+v != %+v", p2, p)
	}
}

func TestParsePlanEmptyAndSpaces(t *testing.T) {
	for _, in := range []string{"", "  ", "drop=0.1, seed=3 ", ",drop=0.1,"} {
		if _, err := ParsePlan(in); err != nil {
			t.Errorf("ParsePlan(%q): %v", in, err)
		}
	}
}

func TestParsePlanRejectsMalformed(t *testing.T) {
	cases := []string{
		"drop",                      // no value
		"drop=1.5",                  // rate out of range
		"drop=-0.1",                 // negative rate
		"drop=abc",                  // non-numeric
		"stall=-5",                  // negative count
		"stall=2.5",                 // fractional count
		"fail=abc",                  // non-numeric count
		"bogus=1",                   // unknown key
		"seed=18446744073709551616", // uint64 overflow
	}
	for _, in := range cases {
		if _, err := ParsePlan(in); err == nil {
			t.Errorf("ParsePlan(%q) should fail", in)
		}
	}
}

func TestZero(t *testing.T) {
	var p *Plan
	if !p.Zero() {
		t.Error("nil plan must be zero")
	}
	if !(&Plan{Seed: 99}).Zero() {
		t.Error("seed-only plan injects nothing")
	}
	if (&Plan{DropRate: 0.1}).Zero() {
		t.Error("drop plan is not zero")
	}
}

// sample returns a fully populated sample for transformer tests.
func sample() pmu.Sample {
	return pmu.Sample{
		ThreadID:   0,
		IP:         7,
		PreciseIP:  true,
		HasEA:      true,
		EA:         0x7f00_0000_1000,
		HasLatency: true,
		Latency:    300,
	}
}

func TestTransformDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, DropRate: 0.3, CorruptRate: 0.2, SkidRate: 0.2, GarbleRate: 0.2}
	run := func() ([]pmu.Sample, Counters) {
		f := Wrap(pmu.NewSoftIBS(0), plan)
		var out []pmu.Sample
		for i := 0; i < 1000; i++ {
			s := sample()
			if f.TransformSample(&s) {
				out = append(out, s)
			}
		}
		return out, f.Counters()
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Fatalf("counters differ across identical runs: %+v vs %+v", ca, cb)
	}
	if len(a) != len(b) {
		t.Fatalf("delivered %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if ca.Dropped == 0 || ca.CorruptedEA == 0 || ca.SkiddedIP == 0 || ca.GarbledLatency == 0 {
		t.Fatalf("expected every fault class to fire: %+v", ca)
	}
	// Different seed, different faults.
	other := *plan
	other.Seed = 43
	f := Wrap(pmu.NewSoftIBS(0), &other)
	for i := 0; i < 1000; i++ {
		s := sample()
		f.TransformSample(&s)
	}
	if f.Counters().Dropped == ca.Dropped && f.Counters().CorruptedEA == ca.CorruptedEA {
		t.Error("different seeds should draw different faults")
	}
}

func TestTransformDropRateApproximate(t *testing.T) {
	f := Wrap(pmu.NewSoftIBS(0), &Plan{Seed: 1, DropRate: 0.2})
	const n = 20000
	for i := 0; i < n; i++ {
		s := sample()
		f.TransformSample(&s)
	}
	got := float64(f.Counters().Dropped) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("drop rate %.3f, want ~0.20", got)
	}
	c := f.Counters()
	if c.Delivered+c.Dropped != n {
		t.Fatalf("transformer accounting: %d + %d != %d", c.Delivered, c.Dropped, n)
	}
}

func TestTransformMutations(t *testing.T) {
	// Force every mutation with rate 1.
	f := Wrap(pmu.NewSoftIBS(0), &Plan{Seed: 5, CorruptRate: 1, SkidRate: 1, GarbleRate: 1})
	s := sample()
	orig := sample()
	if !f.TransformSample(&s) {
		t.Fatal("no drop configured, sample must deliver")
	}
	if s.EA == orig.EA {
		t.Error("EA should have a flipped bit")
	}
	if ones := popcount(s.EA ^ orig.EA); ones != 1 {
		t.Errorf("exactly one EA bit should flip, got %d", ones)
	}
	if s.IP == orig.IP || s.PreciseIP {
		t.Errorf("IP should skid and lose precision: %d -> %d precise=%v", orig.IP, s.IP, s.PreciseIP)
	}
	if s.IP < orig.IP+1 || s.IP > orig.IP+3 {
		t.Errorf("skid out of 1-3 range: %d -> %d", orig.IP, s.IP)
	}
	if s.Latency == orig.Latency {
		t.Error("latency should be garbled")
	}
	// A sample without EA/latency is not corrupted in those fields.
	bare := pmu.Sample{IP: 3, PreciseIP: true}
	f.TransformSample(&bare)
	if bare.HasEA || bare.HasLatency {
		t.Error("transformer must not invent EA or latency")
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestGateStallAndRestart(t *testing.T) {
	f := Wrap(pmu.NewSoftIBS(0), &Plan{Seed: 1, StallAfter: 10})
	pass := 0
	for i := 0; i < 25; i++ {
		if f.gate() {
			pass++
		}
	}
	if pass != 10 {
		t.Fatalf("delivered %d before stall, want 10", pass)
	}
	if !f.Stalled() || f.Failed() {
		t.Fatal("sampler should be stalled, not failed")
	}
	c := f.Counters()
	if c.LostToStall != 15 || c.Stalls != 1 {
		t.Fatalf("stall accounting %+v", c)
	}
	if !f.Restart() {
		t.Fatal("restart must succeed for a stalled (not failed) sampler")
	}
	// The stall re-arms: another StallAfter samples pass, then stall.
	pass = 0
	for i := 0; i < 25; i++ {
		if f.gate() {
			pass++
		}
	}
	if pass != 10 || f.Counters().Stalls != 2 {
		t.Fatalf("after restart: pass %d, stalls %d", pass, f.Counters().Stalls)
	}
}

func TestGateHardFailure(t *testing.T) {
	f := Wrap(pmu.NewSoftIBS(0), &Plan{Seed: 1, FailAfter: 5})
	pass := 0
	for i := 0; i < 12; i++ {
		if f.gate() {
			pass++
		}
	}
	if pass != 5 {
		t.Fatalf("delivered %d before failure, want 5", pass)
	}
	if !f.Failed() {
		t.Fatal("sampler should have hard-failed")
	}
	if f.Restart() {
		t.Fatal("restart cannot revive a hard failure")
	}
	c := f.Counters()
	if c.Fired != 12 || c.LostToFailure != 7 {
		t.Fatalf("failure accounting %+v", c)
	}
}

func TestCountersIdentity(t *testing.T) {
	// Fired == Delivered + Dropped + LostToStall + LostToFailure under
	// a plan mixing every loss class.
	f := Wrap(pmu.NewSoftIBS(0), &Plan{Seed: 9, DropRate: 0.25, StallAfter: 40, FailAfter: 300})
	for i := 0; i < 500; i++ {
		if !f.gate() {
			if f.Stalled() && i%97 == 0 {
				f.Restart()
			}
			continue
		}
		s := sample()
		f.TransformSample(&s)
	}
	c := f.Counters()
	if c.Fired != c.Delivered+c.Dropped+c.LostToStall+c.LostToFailure {
		t.Fatalf("identity violated: %+v", c)
	}
	if c.Fired != 500 {
		t.Fatalf("fired %d, want 500", c.Fired)
	}
}

func TestLoseThreads(t *testing.T) {
	p := &Plan{Seed: 42, ThreadLossRate: 0.5}
	lost := p.LoseThreads(16)
	if len(lost) == 0 || len(lost) == 16 {
		t.Fatalf("at rate 0.5, expect partial loss, got %d/16", len(lost))
	}
	for i := 1; i < len(lost); i++ {
		if lost[i] <= lost[i-1] {
			t.Fatal("lost list must be strictly sorted")
		}
	}
	// Deterministic.
	again := p.LoseThreads(16)
	if len(again) != len(lost) {
		t.Fatal("LoseThreads must be deterministic")
	}
	for i := range lost {
		if lost[i] != again[i] {
			t.Fatal("LoseThreads must be deterministic")
		}
	}
	// Certain loss still spares one survivor.
	all := &Plan{Seed: 7, ThreadLossRate: 1}
	if got := all.LoseThreads(8); len(got) != 7 {
		t.Fatalf("rate 1 must spare exactly one survivor, lost %d/8", len(got))
	}
	// No plan, no loss.
	if (&Plan{}).LoseThreads(8) != nil || p.LoseThreads(0) != nil {
		t.Fatal("zero plan or zero threads lose nothing")
	}
}

func TestTruncate(t *testing.T) {
	data := []byte("0123456789")
	if got := Truncate(data, 0.5); string(got) != "01234" {
		t.Fatalf("Truncate(0.5) = %q", got)
	}
	if got := Truncate(data, 0); len(got) != 0 {
		t.Fatalf("Truncate(0) = %q", got)
	}
	if got := Truncate(data, 1); !bytes.Equal(got, data) {
		t.Fatalf("Truncate(1) = %q", got)
	}
	// Out-of-range fractions clamp.
	if got := Truncate(data, 1.5); !bytes.Equal(got, data) {
		t.Fatalf("Truncate(1.5) = %q", got)
	}
	if got := Truncate(data, -1); len(got) != 0 {
		t.Fatalf("Truncate(-1) = %q", got)
	}
	// The result is a copy, not an alias.
	cut := Truncate(data, 0.5)
	cut[0] = 'X'
	if data[0] != '0' {
		t.Fatal("Truncate must copy")
	}
}

func TestFlipBits(t *testing.T) {
	data := bytes.Repeat([]byte{0x00}, 4096)
	out := FlipBits(data, 0.01, 42)
	flipped := 0
	for i := range out {
		flipped += popcount(uint64(out[i]))
	}
	total := len(data) * 8
	rate := float64(flipped) / float64(total)
	if math.Abs(rate-0.01) > 0.005 {
		t.Fatalf("flip rate %.4f, want ~0.01", rate)
	}
	// Deterministic per seed, different across seeds.
	if !bytes.Equal(out, FlipBits(data, 0.01, 42)) {
		t.Fatal("FlipBits must be deterministic")
	}
	if bytes.Equal(out, FlipBits(data, 0.01, 43)) {
		t.Fatal("different seeds should flip different bits")
	}
	// Source untouched.
	for _, b := range data {
		if b != 0 {
			t.Fatal("FlipBits must copy")
		}
	}
	if !bytes.Equal(FlipBits(data, 0, 1), data) {
		t.Fatal("rate 0 flips nothing")
	}
}

func TestWrapPassThrough(t *testing.T) {
	inner := pmu.NewSoftIBS(0)
	f := Wrap(inner, nil)
	if f.Name() != inner.Name() {
		t.Errorf("Name: %q vs %q", f.Name(), inner.Name())
	}
	if f.Caps() != inner.Caps() {
		t.Error("Caps must pass through")
	}
	if f.Period() != inner.Period() {
		t.Error("Period must pass through")
	}
	if f.Inner() != inner {
		t.Error("Inner must return the wrapped mechanism")
	}
	p := f.plan
	if !p.Zero() {
		t.Error("nil plan wraps to a zero plan")
	}
	// A counting-only wrapper still accounts deliveries.
	s := sample()
	if !f.TransformSample(&s) || s != sample() {
		t.Error("zero plan must deliver samples unmodified")
	}
	if c := f.Counters(); c.Delivered != 1 || c.Fired != 0 {
		t.Errorf("counting-only wrapper counters %+v", c)
	}
}
