// Package faults is a deterministic, seeded fault-injection engine for
// the profiling pipeline. Real address-sampling back ends are lossy and
// imprecise — the paper leans on that reality throughout: Section 4.1's
// "cached but remote" attribution bias, the DEAR/PEBS off-by-one
// instruction pointers of Section 8, and the Equation 2/3 *estimators*
// that must survive sparse samples. A production profiler additionally
// loses samples to buffer overflows, sees PMU interrupts stall or the
// sampling driver die mid-run, and reads back measurement files that
// were truncated or bit-flipped on flaky storage.
//
// A Plan describes which of those faults to inject and at what rate.
// Wrap applies a plan to any of the six pmu mechanisms, producing a
// decorated sampler that drops, corrupts, skids, stalls, or hard-fails
// exactly as the plan dictates — deterministically, from the plan's
// seed, so every chaos run is reproducible. The consumers in
// internal/core and internal/profio are hardened to degrade gracefully
// under these faults and to account for every lost sample in the
// profile's Health block.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Plan is one fault-injection configuration. The zero value injects
// nothing. Plans parse from and render to the compact comma-separated
// form used by numaprof -chaos, e.g. "drop=0.2,fail=2000,seed=42".
type Plan struct {
	// Seed drives every random decision; the same plan on the same
	// workload replays the same faults. 0 means seed 1.
	Seed uint64
	// DropRate is the probability a taken sample is lost before
	// delivery (ring-buffer overflow, lost interrupt).
	DropRate float64
	// CorruptRate is the probability a delivered sample's effective
	// address has one random bit flipped.
	CorruptRate float64
	// SkidRate is the probability a delivered sample's instruction
	// pointer skids forward 1-3 sites (the DEAR/IBS off-by-one class
	// of imprecision, exaggerated).
	SkidRate float64
	// GarbleRate is the probability a delivered sample's measured
	// latency is replaced with garbage (a counter-read glitch).
	GarbleRate float64
	// StallAfter stalls the sampler after this many taken samples
	// since the last (re)start: further samples are lost until the
	// profiler restarts it. 0 disables. The stall re-arms after every
	// restart, so long runs stall repeatedly.
	StallAfter uint64
	// FailAfter kills the sampler permanently after this many taken
	// samples; restarts do not help and the profiler must fall back
	// to another mechanism. 0 disables.
	FailAfter uint64
	// ThreadLossRate is the probability each per-thread profile is
	// lost before the merge (hpcprof finds the thread's measurement
	// file missing or unreadable). The analyzer always keeps at least
	// one surviving thread.
	ThreadLossRate float64
	// Flaky makes the first N run attempts fail with a transient
	// error before the pipeline starts (a sampling driver that needs
	// a retry to come up). It is run-level, not sampler-level: the
	// job runner consults RunError before each attempt, and once an
	// attempt survives, the run itself is untouched — so a flaky spec
	// still produces bytes identical to its non-flaky twin. 0 disables.
	Flaky uint64
}

// Zero reports whether the plan injects nothing into the sampling
// pipeline. Flaky deliberately does not count: it fails whole run
// attempts before the pipeline starts, so a flaky-only plan must not
// wrap the sampler (the successful attempt's profile stays
// byte-identical to an unplanned run).
func (p *Plan) Zero() bool {
	return p == nil || (p.DropRate == 0 && p.CorruptRate == 0 && p.SkidRate == 0 &&
		p.GarbleRate == 0 && p.StallAfter == 0 && p.FailAfter == 0 && p.ThreadLossRate == 0)
}

// String renders the plan in ParsePlan's format, omitting zero fields.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("drop", p.DropRate)
	add("corrupt", p.CorruptRate)
	add("skid", p.SkidRate)
	add("garble", p.GarbleRate)
	if p.StallAfter != 0 {
		parts = append(parts, fmt.Sprintf("stall=%d", p.StallAfter))
	}
	if p.FailAfter != 0 {
		parts = append(parts, fmt.Sprintf("fail=%d", p.FailAfter))
	}
	add("threadloss", p.ThreadLossRate)
	if p.Flaky != 0 {
		parts = append(parts, fmt.Sprintf("flaky=%d", p.Flaky))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the comma-separated key=value plan syntax:
//
//	drop=0.2,corrupt=0.01,skid=0.05,garble=0.01,stall=500,fail=2000,threadloss=0.25,seed=42
//
// Rates must lie in [0,1]; counts must be non-negative integers.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad plan field %q (want key=value)", field)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		rate := func(dst *float64) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("faults: %s=%q: want a rate in [0,1]", k, v)
			}
			*dst = f
			return nil
		}
		count := func(dst *uint64) error {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: %s=%q: want a non-negative count", k, v)
			}
			*dst = n
			return nil
		}
		var err error
		switch k {
		case "drop":
			err = rate(&p.DropRate)
		case "corrupt":
			err = rate(&p.CorruptRate)
		case "skid":
			err = rate(&p.SkidRate)
		case "garble":
			err = rate(&p.GarbleRate)
		case "threadloss":
			err = rate(&p.ThreadLossRate)
		case "stall":
			err = count(&p.StallAfter)
		case "fail":
			err = count(&p.FailAfter)
		case "flaky":
			err = count(&p.Flaky)
		case "seed":
			err = count(&p.Seed)
		default:
			err = fmt.Errorf("faults: unknown plan key %q (drop|corrupt|skid|garble|stall|fail|threadloss|flaky|seed)", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Counters accounts for every fault the injector applied. The delivery
// identity Fired == Delivered + Dropped + LostToStall + LostToFailure
// always holds, so a consumer can prove no sample went missing
// silently.
type Counters struct {
	// Fired counts samples the wrapped mechanism decided to take.
	Fired uint64 `json:"fired"`
	// Delivered counts samples that survived injection and reached
	// the profiler.
	Delivered uint64 `json:"delivered"`
	// Dropped counts samples lost to the drop rate.
	Dropped uint64 `json:"dropped"`
	// LostToStall counts samples that fired while the sampler was
	// stalled.
	LostToStall uint64 `json:"lost_to_stall"`
	// LostToFailure counts samples that fired after the hard failure.
	LostToFailure uint64 `json:"lost_to_failure"`
	// CorruptedEA counts delivered samples whose effective address
	// was bit-flipped.
	CorruptedEA uint64 `json:"corrupted_ea"`
	// SkiddedIP counts delivered samples whose IP skidded.
	SkiddedIP uint64 `json:"skidded_ip"`
	// GarbledLatency counts delivered samples whose latency was
	// replaced with garbage.
	GarbledLatency uint64 `json:"garbled_latency"`
	// Stalls counts stall episodes.
	Stalls uint64 `json:"stalls"`
}

// RecordCounters folds one run's fault counters into the process-wide
// faults_* instrument family on telemetry.Default. Called once per run
// (when a fault plan was active), so the registry accumulates across a
// sweep while each run's own Counters stay per-run.
func RecordCounters(c Counters) {
	add := func(name string, v uint64) {
		if v > 0 {
			telemetry.Default.Counter(name).Add(v)
		}
	}
	add("faults_fired_total", c.Fired)
	add("faults_delivered_total", c.Delivered)
	add("faults_dropped_total", c.Dropped)
	add("faults_lost_to_stall_total", c.LostToStall)
	add("faults_lost_to_failure_total", c.LostToFailure)
	add("faults_corrupted_ea_total", c.CorruptedEA)
	add("faults_skidded_ip_total", c.SkiddedIP)
	add("faults_garbled_latency_total", c.GarbledLatency)
	add("faults_stalls_total", c.Stalls)
}

// splitmix64 advances the state and returns a well-mixed 64-bit draw.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws a uniform [0,1) variate and compares it to rate.
func chance(state *uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(splitmix64(state)>>11)/(1<<53) < rate
}

// Faulty decorates a pmu.Mechanism with a fault plan. It implements
// pmu.Mechanism (pass-through identity, so overhead costs and profile
// labels still resolve to the inner sampler) and pmu.SampleTransformer
// (post-capture sample mutation). The profiler supervises the Stalled
// and Failed states and calls Restart with backoff.
type Faulty struct {
	inner pmu.Mechanism
	plan  Plan
	rng   uint64

	sinceRestart uint64
	stalled      bool
	failed       bool

	c Counters
}

// Wrap decorates mech with plan. A nil or zero plan returns a wrapper
// that injects nothing but still keeps delivery counters.
func Wrap(mech pmu.Mechanism, plan *Plan) *Faulty {
	f := &Faulty{inner: mech}
	if plan != nil {
		f.plan = *plan
	}
	f.rng = f.plan.Seed
	if f.rng == 0 {
		f.rng = 1
	}
	return f
}

// Inner returns the wrapped mechanism.
func (f *Faulty) Inner() pmu.Mechanism { return f.inner }

// Counters returns a snapshot of the fault accounting.
func (f *Faulty) Counters() Counters { return f.c }

// Stalled reports whether the sampler is currently stalled.
func (f *Faulty) Stalled() bool { return f.stalled }

// Failed reports whether the sampler has hard-failed.
func (f *Faulty) Failed() bool { return f.failed }

// Restart clears a stall, as a driver-level sampler restart would. It
// cannot revive a hard-failed sampler; it reports whether the sampler
// is usable afterwards.
func (f *Faulty) Restart() bool {
	if f.failed {
		return false
	}
	f.stalled = false
	f.sinceRestart = 0
	return true
}

// gate passes one fired sample through the stall/failure state machine,
// returning whether it may be delivered.
func (f *Faulty) gate() bool {
	f.c.Fired++
	if f.plan.FailAfter > 0 && f.c.Fired > f.plan.FailAfter {
		f.failed = true
	}
	if f.failed {
		f.c.LostToFailure++
		return false
	}
	if !f.stalled {
		f.sinceRestart++
		if f.plan.StallAfter > 0 && f.sinceRestart > f.plan.StallAfter {
			f.stalled = true
			f.c.Stalls++
		}
	}
	if f.stalled {
		f.c.LostToStall++
		return false
	}
	return true
}

// Name implements pmu.Mechanism.
func (f *Faulty) Name() string { return f.inner.Name() }

// Caps implements pmu.Mechanism.
func (f *Faulty) Caps() pmu.Capability { return f.inner.Caps() }

// PaperConfig implements pmu.Mechanism.
func (f *Faulty) PaperConfig() pmu.Config { return f.inner.PaperConfig() }

// Period implements pmu.Mechanism.
func (f *Faulty) Period() uint64 { return f.inner.Period() }

// ObserveAccess implements pmu.Mechanism: the inner sampler decides,
// then the fault state machine may eat the sample.
func (f *Faulty) ObserveAccess(ev *proc.AccessEvent) pmu.AccessOutcome {
	out := f.inner.ObserveAccess(ev)
	if out.Sampled && !f.gate() {
		out.Sampled = false
	}
	return out
}

// ObserveCompute implements pmu.Mechanism.
func (f *Faulty) ObserveCompute(t *proc.Thread, n uint64) (int, units.Cycles) {
	samples, overhead := f.inner.ObserveCompute(t, n)
	kept := 0
	for i := 0; i < samples; i++ {
		if f.gate() {
			kept++
		}
	}
	return kept, overhead
}

// TransformSample implements pmu.SampleTransformer: post-capture
// mutation of a sample on its way to the profiler. Returning false
// drops the sample (accounted in Counters.Dropped).
func (f *Faulty) TransformSample(s *pmu.Sample) bool {
	if chance(&f.rng, f.plan.DropRate) {
		f.c.Dropped++
		return false
	}
	if s.HasEA && chance(&f.rng, f.plan.CorruptRate) {
		// Flip one bit in [12,48): page-offset-and-above corruption
		// that lands the address far outside its allocation.
		bit := 12 + splitmix64(&f.rng)%36
		s.EA ^= 1 << bit
		f.c.CorruptedEA++
	}
	if s.IP != isa.NoSite && chance(&f.rng, f.plan.SkidRate) {
		s.IP += isa.SiteID(1 + splitmix64(&f.rng)%3)
		s.PreciseIP = false
		f.c.SkiddedIP++
	}
	if s.HasLatency && chance(&f.rng, f.plan.GarbleRate) {
		s.Latency = units.Cycles(splitmix64(&f.rng))
		f.c.GarbledLatency++
	}
	f.c.Delivered++
	return true
}

// LoseThreads decides, deterministically from the plan seed, which of n
// per-thread profiles are lost before the merge. At least one thread
// always survives (a run with zero measurement files has nothing to
// salvage and fails upstream of the merge). The result is sorted.
func (p *Plan) LoseThreads(n int) []int {
	if p == nil || p.ThreadLossRate <= 0 || n <= 0 {
		return nil
	}
	// Derived stream, so sampler faults and thread loss do not
	// interleave their draws.
	state := p.Seed*0x9e3779b97f4a7c15 + 0xdeadbeef
	if state == 0 {
		state = 1
	}
	var lost []int
	for i := 0; i < n; i++ {
		if chance(&state, p.ThreadLossRate) {
			lost = append(lost, i)
		}
	}
	if len(lost) == n {
		// Spare one survivor, chosen by the same stream.
		keep := int(splitmix64(&state) % uint64(n))
		lost = append(lost[:keep], lost[keep+1:]...)
	}
	sort.Ints(lost)
	return lost
}

// Truncate returns data cut to the given fraction of its length — a
// measurement file interrupted mid-write.
func Truncate(data []byte, frac float64) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(data)) * frac)
	return append([]byte(nil), data[:n]...)
}

// FlipBits returns a copy of data with each bit flipped independently
// at the given rate, seeded — storage rot for measurement files.
func FlipBits(data []byte, rate float64, seed uint64) []byte {
	out := append([]byte(nil), data...)
	state := seed
	if state == 0 {
		state = 1
	}
	for i := range out {
		for b := 0; b < 8; b++ {
			if chance(&state, rate) {
				out[i] ^= 1 << b
			}
		}
	}
	return out
}
