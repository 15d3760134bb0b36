// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload from a seed through the library entry points the
// CLIs and numad call, checks every output, and prints its metrics as
// the last line of standard output:
//
//	perfbench -workload profile|table2|service -seed N -seconds S -trace 0|1
//
// With -trace 0 the line carries the end-to-end metrics (set-up time,
// throughput, op latency median and tail, peak RSS). With -trace 1 the
// run alternates untraced and traced ops and reports the per-layer
// breakdown instead: spans the benchmark records around each layer
// call, plus the program's own pipeline.*, sched.cell and
// store.get_or_compute spans. README.md in this directory says why each
// workload exists and records the baseline.
//
// -fingerprints PATH regenerates the committed output fingerprints
// (profile bytes of every profile spec and of their decoded-then-
// re-encoded form, Table 2 cycles per cell).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// processStart stands in for the process's start: package variables
// initialise before main runs, after the runtime and imported packages.
var processStart = time.Now()

// workers is the benchmark's fixed parallelism: sched workers, numad
// workers, service clients and GOMAXPROCS. It is a constant, not read
// from the host, so runs on different hosts load the program alike.
const workers = 2

// setupReps is how many times each workload sets up in a run; setup_s
// is their median, so one slow set-up does not move the metric.
const setupReps = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// -trace 0 run (BENCHMARK.json lists the same names and units).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, printed by every -trace 1 run. A
// layer that does no work on a workload reads 0 there.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"core.analyze_ms", "ms"},
	{"core.engine_setup_ms", "ms"},
	{"core.sampling_run_ms", "ms"},
	{"core.cct_merge_ms", "ms"},
	{"core.derive_ms", "ms"},
	{"proc.run_ms", "ms"},
	{"pmu.monitor_ms", "ms"},
	{"view.render_ms", "ms"},
	{"profio.save_ms", "ms"},
	{"profio.load_ms", "ms"},
	{"proc.mem_accesses", "count"},
	{"pmu.samples", "count"},
	{"cct.nodes", "count"},
	{"profio.bytes", "bytes"},
	{"profio.reencode_mismatch_ratio", "ratio"},
	{"sched.cell_ms_p50", "ms"},
	{"sched.cell_ms_max", "ms"},
	{"sched.busy_ratio", "ratio"},
	{"proc.base_ms", "ms"},
	{"core.monitored_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"store.get_or_compute_ms", "ms"},
	{"server.view_profile_ms", "ms"},
	{"server.view_text_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"store.mem_hits", "1/op"},
	{"store.disk_hits", "1/op"},
	{"store.dedup_waits", "1/op"},
	{"store.evictions", "1/op"},
	{"store.mem_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.failed", "count"},
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's working files (saved profiles, the service
	// store); it is removed when the run ends.
	dir string
	// traceOut is where a traced run writes its spans.
	traceOut string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: op accounting, op latencies
// and set-up times for the end-to-end metrics, the per-layer values of
// a traced run, and every failed check.
type report struct {
	attempted, failed int
	setups            []time.Duration
	timed             time.Duration // the timed phase, for ops_per_s
	untimed           time.Duration // checks and probes inside the timed phase
	samples           []opSample    // completed ops that passed their checks
	layers            map[string]float64
	failures          []string
	// rssMB is peak RSS as the workload read it at a fixed point of the
	// timed phase; 0 means it is read when the run ends.
	rssMB float64
	// reencoded and mismatched count decoded profiles checked for
	// re-encoding to their original bytes, and those that did not.
	reencoded, mismatched int
}

// reencode checks that a decoded profile encodes to its pinned bytes
// and counts whether those equal the bytes it was decoded from. profio's
// decoder drops has_first_touch and reorders the patterns section, so
// today no profile round-trips; pinning the re-encoded bytes as they are
// still fails any further change to the decoder. Once the decoder
// round-trips, regenerate the pins: profio.reencode_mismatch_ratio then
// reads 0.
func (r *report) reencode(fp *fingerprints, label string, p *core.Profile, orig []byte) error {
	got, err := encode(p)
	if err != nil {
		return fmt.Errorf("%s: re-encode: %w", label, err)
	}
	if s, want := sha(got), fp.Reencoded[label]; s != want {
		return fmt.Errorf("%s: re-encoded profile sha256 %s, want %s", label, s, want)
	}
	r.reencoded++
	if !bytes.Equal(got, orig) {
		r.mismatched++
	}
	return nil
}

// opSample is one completed op's latency, whether it was traced, and
// the input it ran: traced and untraced ops of one input are compared
// for trace.overhead.
type opSample struct {
	traced bool
	ms     float64
	input  int
}

// untracedMs returns the latencies of the untraced ops.
func (r *report) untracedMs() []float64 {
	var out []float64
	for _, s := range r.samples {
		if !s.traced {
			out = append(out, s.ms)
		}
	}
	return out
}

// fail records one failed check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(context.Context, options, *report) error{
	"profile": runProfile,
	"table2":  runTable2,
	"service": runService,
}

func main() {
	var (
		o       options
		trace   int
		fpPath  string
		seconds int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: profile, table2 or service")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the run's working files and written-out trace")
	flag.StringVar(&fpPath, "fingerprints", "", "regenerate the output fingerprints into this file and exit")
	flag.Parse()
	o.seconds = float64(seconds)
	o.trace = trace == 1

	pin()
	if fpPath != "" {
		if err := writeFingerprints(fpPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 || seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// pin fixes every setting the program would otherwise read from the
// host or the environment, so two hosts run the same work.
func pin() {
	runtime.GOMAXPROCS(workers)
	os.Setenv(datacentric.BinsEnvVar, strconv.Itoa(datacentric.DefaultBins))
	os.Setenv(sched.EnvWorkers, strconv.Itoa(workers))
	os.Setenv(telemetry.LogEnvVar, "warn")
	sched.SetWorkers(workers)
	// The daemon's per-job info logs stay out of stdout, which carries
	// only the summary and the result line.
	if err := telemetry.SetLogSpec("warn"); err != nil {
		panic(err) // a constant spec
	}
	telemetry.SetLogOutput(os.Stderr)
}

// run executes one workload and assembles its result. A workload error
// (an op that could not run at all) fails the run; failed checks only
// mark it incorrect.
func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	fn, ok := workloadFuncs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (profile, table2, service)", o.workload)
	}
	base, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	o.traceOut = filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	o.dir = filepath.Join(base, fmt.Sprintf("run-%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.dir)

	rep := &report{layers: map[string]float64{}}
	if err := fn(ctx, o, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in %gs", o.workload, o.seconds)
	}
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if rep.mismatched > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: known profio defect: %d of %d decoded profiles re-encode to different bytes\n",
			rep.mismatched, rep.reencoded)
		rep.layers["profio.reencode_mismatch_ratio"] = float64(rep.mismatched) / float64(rep.reencoded)
	}
	res := &result{
		Correct:   len(rep.failures) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	opMs := rep.untracedMs()
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rep.layers["trace.overhead"] = rep.traceOverhead()
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{rep.layers[d.name], d.unit}
		}
	} else {
		setups := make([]float64, len(rep.setups))
		for i, d := range rep.setups {
			setups[i] = d.Seconds()
		}
		if rep.rssMB == 0 {
			rep.rssMB = peakRSSMB()
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{float64(len(opMs)) / (rep.timed - rep.untimed).Seconds(), "1/s"}
		res.Metrics["op_ms_p50"] = metric{quantile(opMs, 0.5), "ms"}
		res.Metrics["op_ms_p90"] = metric{quantile(opMs, 0.9), "ms"}
		res.Metrics["peak_rss_mb"] = metric{rep.rssMB, "MB"}
	}
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d ops attempted, %d failed, %d checks failed\n",
		o.workload, o.seed, o.trace, rep.attempted, rep.failed, len(rep.failures))
	if !o.trace {
		fmt.Fprintf(w, "  set-ups: %s\n", fmtSeconds(rep.setups))
		fmt.Fprintf(w, "  op latency over %d ops: %s\n", len(opMs), quartiles(opMs, "ms"))
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-31s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}

// setUp runs a workload's set-up setupReps times and records each
// duration. The first is timed from process start; before each later
// one the heap is collected, untimed, so every repetition starts as the
// first did, on an empty heap.
func setUp(rep *report, once func() error) error {
	for i := 0; i < setupReps; i++ {
		start := processStart
		if i > 0 {
			runtime.GC()
			start = time.Now()
		}
		if err := once(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	return nil
}

// traceOverhead is the median over inputs of the traced ops' median
// latency divided by the untraced ops' median latency on that input.
func (r *report) traceOverhead() float64 {
	byInput := map[int]*[2][]float64{}
	for _, s := range r.samples {
		g := byInput[s.input]
		if g == nil {
			g = new([2][]float64)
			byInput[s.input] = g
		}
		if s.traced {
			g[1] = append(g[1], s.ms)
		} else {
			g[0] = append(g[0], s.ms)
		}
	}
	var ratios []float64
	for _, g := range byInput {
		if len(g[0]) > 0 && len(g[1]) > 0 {
			ratios = append(ratios, median(g[1])/median(g[0]))
		}
	}
	return median(ratios)
}

// timedLoop runs op on successive inputs until the timed phase ends. An
// untraced run makes one op per input; a traced run makes two, one
// traced and one not, alternating which goes first, so trace.overhead
// compares the same inputs. It returns the last op id.
func timedLoop(o options, rep *report, op func(id int64, input int, traced bool) error) (int64, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	per := 1
	if o.trace {
		per = 2
	}
	var id int64
	for i := 0; time.Now().Before(deadline); i++ {
		for k := 0; k < per; k++ {
			id++
			if err := op(id, i, o.trace && (i+k)%2 == 1); err != nil {
				return id, err
			}
		}
	}
	rep.timed = time.Since(start)
	return id, nil
}

// settle collects garbage before an op of a workload whose op stands
// for one CLI invocation: such a process starts on an empty heap, so no
// op pays for its predecessor's garbage. The collection is not timed.
func settle(rep *report) {
	start := time.Now()
	runtime.GC()
	rep.untimed += time.Since(start)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fmtSeconds lists durations in seconds for the human-readable lines.
func fmtSeconds(ds []time.Duration) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%.4f ", d.Seconds())
	}
	return b.String() + "s"
}

// quartiles summarises a sample for the human-readable lines.
func quartiles(xs []float64, unit string) string {
	return fmt.Sprintf("q1 %.3f  median %.3f  q3 %.3f  p90 %.3f %s",
		quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), unit)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
