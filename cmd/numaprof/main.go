// Command numaprof is the hpcrun → hpcprof → hpcviewer pipeline of the
// paper in one binary: it runs a simulated workload under a chosen
// address-sampling mechanism on a chosen machine, profiles it, and
// prints the code-centric, data-centric, and address-centric views.
//
// Examples:
//
//	numaprof -workload lulesh -mechanism IBS -machine amd-magny-cours-48
//	numaprof -workload amg2006 -strategy guided
//	numaprof -workload umt2013 -machine ibm-power7-128 -threads 32 -binding scatter -mechanism MRK
//	numaprof -workload blackscholes -first-touch=false -top 2
//	numaprof -workload lulesh -chaos drop=0.2,fail=2000,seed=42
//	numaprof -workload lulesh,amg2006,blackscholes -parallel 3
//
// Several comma-separated workloads profile as independent cells on
// worker goroutines (-parallel; the reports print in the order given
// and are identical at any worker count).
//
// The -chaos flag injects deterministic faults (sample drops, EA
// corruption, IP skid, sampler stalls and hard failures) into the
// sampling pipeline; the run completes by degrading gracefully and the
// report carries a pipeline-health block accounting for every loss.
//
// With -submit http://host:port the job runs on a numad daemon instead
// of locally: the CLI posts the spec, follows the job's event stream to
// completion, and prints the daemon's report. Identical specs are
// served from the daemon's profile store, and -profile fetches
// measurement bytes identical to a local run's.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/profio"
	"repro/internal/progress"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/view"
)

func main() {
	var (
		workload  = flag.String("workload", "lulesh", "workload: lulesh, amg2006, blackscholes, umt2013 (comma-separate to profile several)")
		mechanism = flag.String("mechanism", "IBS", "sampling mechanism: "+strings.Join(pmu.Names(), ", "))
		machine   = flag.String("machine", "", "machine preset (default: the mechanism's Table 1 testbed)")
		threads   = flag.Int("threads", 0, "team size (0: all CPUs)")
		binding   = flag.String("binding", "compact", "thread binding: compact or scatter")
		strategy  = flag.String("strategy", "baseline", "placement: baseline, blockwise, interleave, parallel-init, guided")
		period    = flag.Uint64("period", 0, "sampling period override (0: mechanism default)")
		bins      = flag.Int("bins", 0, "per-variable bin count (0: default/"+`$NUMAPROF_BINS`+")")
		iters     = flag.Int("iters", 0, "workload iterations (0: default)")
		top       = flag.Int("top", 5, "variables to detail")
		firstT    = flag.Bool("first-touch", true, "pinpoint first touches via page protection")
		showCCT   = flag.Bool("cct", true, "print the calling-context view")
		doTrace   = flag.Bool("trace", false, "record time-stamped samples and print the time-varying profile")
		htmlOut   = flag.String("html", "", "also write a self-contained HTML report to this path")
		profOut   = flag.String("profile", "", "write the measurement file (for numaview) to this path")
		chaos     = flag.String("chaos", "", "fault-injection plan, e.g. drop=0.2,corrupt=0.01,fail=2000,seed=42 (see internal/faults)")
		optimize  = flag.Bool("optimize", false,
			"closed-loop optimizer: profile the workload, diagnose its NUMA problems, re-run every candidate remedy, and report predicted vs measured speedup (with -submit, runs as a daemon advise job)")
		parallel = flag.Int("parallel", sched.Workers(),
			"worker goroutines when profiling several workloads (1: serial; reports are identical either way)")
		submit = flag.String("submit", "",
			"submit the job(s) to a numad daemon at this base URL (e.g. http://localhost:7077) instead of profiling locally")
		follow = flag.Bool("follow", false,
			"with -submit: print a progress line per live snapshot (SSE) while waiting instead of waiting silently")
		convergeEarly = flag.Bool("converge-early", false,
			"local only: stop sampling once the profile's metric estimates converge; the report's health block records the early stop")
		telemetryDir = flag.String("telemetry", "",
			"self-profile the run: write "+telemetry.TraceFile+" (chrome://tracing), "+
				telemetry.SpanFile+" and "+telemetry.MetricsFile+" to this directory and print a per-phase summary")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	var names []string
	for _, n := range strings.Split(*workload, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "numaprof: no workload given")
		os.Exit(1)
	}
	// The spec-to-config path is shared with the numad daemon
	// (internal/server), which is what makes a daemon-served profile
	// byte-identical to this CLI's -profile output for the same flags.
	// Workload is set per job.
	spec := server.Spec{
		Mechanism:  *mechanism,
		Machine:    *machine,
		Threads:    *threads,
		Binding:    *binding,
		Strategy:   *strategy,
		Period:     *period,
		Bins:       *bins,
		Iters:      *iters,
		FirstTouch: firstT,
		Trace:      *doTrace,
		Chaos:      *chaos,
	}
	o := options{
		workloads:     names,
		top:           *top,
		cct:           *showCCT,
		convergeEarly: *convergeEarly,
		html:          *htmlOut,
		profile:       *profOut,
		optimize:      *optimize,
		submit:        *submit,
		follow:        *follow,
		set:           map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })

	// exit finalizes telemetry (when -telemetry armed it) before leaving:
	// every path below must go through it rather than os.Exit directly.
	ctx := context.Background()
	exit := func(code int) { os.Exit(code) }
	if *telemetryDir != "" {
		tr := telemetry.NewTracer(telemetry.WithAllocTracking())
		telemetry.SetTracer(tr)
		var root *telemetry.Span
		ctx, root = telemetry.Start(ctx, "numaprof.run",
			telemetry.String("workloads", strings.Join(names, ",")),
			telemetry.String("mechanism", *mechanism))
		dir := *telemetryDir
		exit = func(code int) {
			root.End()
			telemetry.SetTracer(nil)
			if err := telemetry.Dump(dir, tr, telemetry.Default); err != nil {
				fmt.Fprintln(os.Stderr, "numaprof:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Printf("\ntelemetry written to %s (%s, %s, %s)\n",
					dir, telemetry.TraceFile, telemetry.SpanFile, telemetry.MetricsFile)
				fmt.Print(tr.Summary())
			}
			os.Exit(code)
		}
	}

	if err := o.check(spec.Trace); err != nil {
		fmt.Fprintln(os.Stderr, "numaprof:", err)
		exit(1)
	}

	if o.submit != "" || o.optimize || len(names) == 1 {
		// One workload, or -submit, whose jobs the daemon runs (one per
		// workload; submitJobs sets each Workload). The daemon serves
		// identical specs from its store, and the fetched measurement
		// bytes equal a local -profile write.
		spec.Workload = names[0]
		var err error
		switch {
		case o.optimize && o.submit != "":
			err = optimizeRemote(os.Stdout, o.submit, spec)
		case o.optimize:
			err = optimizeLocal(ctx, os.Stdout, spec)
		case o.submit != "":
			err = submitJobs(os.Stdout, spec, o)
		default:
			err = run(ctx, os.Stdout, spec, o)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "numaprof:", err)
			exit(1)
		}
		exit(0)
		return
	}

	// Several workloads: each is an independent cell; reports buffer in
	// the cells and print in the order given, so the output does not
	// depend on the worker count.
	outs, err := sched.MapCtx(ctx, len(names), func(ctx context.Context, i int) (string, error) {
		var buf bytes.Buffer
		cell := spec
		cell.Workload = names[i]
		if err := run(ctx, &buf, cell, o); err != nil {
			return "", fmt.Errorf("%s: %w", names[i], err)
		}
		return buf.String(), nil
	})
	failed := map[int]bool{}
	if err != nil {
		if sweep, ok := sched.AsSweep(err); ok {
			for _, ce := range sweep.Cells {
				fmt.Fprintln(os.Stderr, "numaprof:", ce.Err)
				failed[ce.Index] = true
			}
		} else {
			fmt.Fprintln(os.Stderr, "numaprof:", err)
		}
	}
	for i, name := range names {
		if failed[i] {
			continue
		}
		fmt.Printf("=== %s ===\n", name)
		fmt.Print(outs[i])
		fmt.Println()
	}
	if err != nil {
		exit(1)
	}
	exit(0)
}

// options are the flags that are not part of the job spec: the
// workloads to run, where they run, and what a run prints and writes.
type options struct {
	workloads     []string
	top           int
	cct           bool
	convergeEarly bool
	html, profile string
	optimize      bool
	submit        string
	follow        bool
	// set names the flags given on the command line, which tells an
	// explicit -top or -cct from its non-zero default.
	set map[string]bool
}

// check refuses the flag combinations numaprof cannot honour, naming
// the offending flag; trace is -trace, which lives in the spec.
func (o options) check(trace bool) error {
	if o.optimize {
		if len(o.workloads) > 1 {
			return errors.New("-optimize needs a single workload")
		}
		// The optimizer prints only its own report.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-profile", o.profile != ""},
			{"-html", o.html != ""},
			{"-trace", trace},
			{"-converge-early", o.convergeEarly},
			{"-follow", o.follow},
			{"-top", o.set["top"]},
			{"-cct", o.set["cct"]},
		} {
			if f.set {
				return fmt.Errorf("-optimize does not take %s", f.name)
			}
		}
	}
	if o.follow && o.submit == "" {
		return errors.New("-follow needs -submit")
	}
	if o.convergeEarly && o.submit != "" {
		// Daemon profiles are content-addressed by spec; an early-stopped
		// run would not be byte-identical, so the flag is local-only.
		return errors.New("-converge-early is local-only (daemon profiles are cached by spec)")
	}
	if len(o.workloads) > 1 && (o.html != "" || o.profile != "") {
		// Every workload would write the same file.
		return errors.New("-html/-profile need a single workload")
	}
	return nil
}

// run profiles spec locally and prints its report to w, writing the
// -html and -profile files o names.
func run(ctx context.Context, w io.Writer, spec server.Spec, o options) error {
	_, buildDone := telemetry.Timed(ctx, "pipeline.build_config",
		telemetry.String("workload", spec.Workload), telemetry.String("mechanism", spec.Mechanism))
	cfg, app, err := spec.Build()
	buildDone()
	if err != nil {
		return err
	}
	if o.convergeEarly {
		// Config-level (never Spec-level) so the early-stopped profile is
		// clearly a different artifact from the spec's cached one.
		cfg.ConvergeEarly = true
		if cfg.SnapshotEvery <= 0 {
			cfg.SnapshotEvery = 1
		}
	}
	prof, err := core.AnalyzeCtx(ctx, cfg, app)
	if err != nil {
		return err
	}
	_, renderDone := telemetry.Timed(ctx, "pipeline.render_view",
		telemetry.String("kind", "text"), telemetry.String("workload", spec.Workload))
	if o.cct {
		fmt.Fprint(w, view.Text(prof, o.top))
	} else {
		fmt.Fprint(w, view.Report(prof, o.top))
	}
	if spec.Trace && prof.Timeline != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Render(prof.Timeline, 16, 40))
	}
	renderDone()
	if o.html != "" {
		_, htmlDone := telemetry.Timed(ctx, "pipeline.render_view",
			telemetry.String("kind", "html"), telemetry.String("workload", spec.Workload))
		page, err := view.HTML(prof, o.top)
		htmlDone()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.html, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nHTML report written to %s\n", o.html)
	}
	if o.profile != "" {
		// Atomic temp+rename write: an interrupted run leaves the old
		// measurement file (or none), never a torn one.
		if err := profio.SaveFile(o.profile, prof); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nmeasurement file written to %s (view with numaview)\n", o.profile)
	}
	return nil
}

// optimizeLocal is `-optimize` without a daemon: one-shot advise →
// apply → measure. The baseline profiles through the same Spec.Build
// path as a plain run; each candidate remedy re-runs as the baseline
// spec with the remedy's knobs turned, fanned out through the sched
// pipeline (-parallel bounds the width; the report is byte-identical at
// any width).
func optimizeLocal(ctx context.Context, w io.Writer, base server.Spec) error {
	cfg, app, err := base.Build()
	if err != nil {
		return err
	}
	baseline, err := core.AnalyzeCtx(ctx, cfg, app)
	if err != nil {
		return err
	}
	run := func(cellCtx context.Context, _ int, t advisor.Transform) (*core.Profile, error) {
		spec := base
		if t.Strategy != "" {
			spec.Strategy = string(t.Strategy)
		}
		if t.Binding != "" {
			spec.Binding = t.Binding
		}
		ccfg, capp, err := spec.Build()
		if err != nil {
			return nil, err
		}
		return core.AnalyzeCtx(cellCtx, ccfg, capp)
	}
	rep, err := advisor.Optimize(ctx, baseline, advisor.Options{}, run)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Render())
	return nil
}

// optimizeRemote is `-optimize -submit`: profile on the daemon, then
// POST /api/v1/jobs/{id}/advise and print the advise job's report. Both
// jobs are durable and deduped server-side.
func optimizeRemote(w io.Writer, baseURL string, spec server.Spec) error {
	ctx := context.Background()
	client := server.NewClient(baseURL)
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if st, err = client.Follow(ctx, st.ID, nil); err != nil {
		return err
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	adv, err := client.Advise(ctx, st.ID)
	if err != nil {
		return err
	}
	if adv, err = client.Follow(ctx, adv.ID, nil); err != nil {
		return err
	}
	if adv.State != server.StateDone {
		return fmt.Errorf("advise job %s %s: %s", adv.ID, adv.State, adv.Error)
	}
	text, err := client.Text(ctx, adv.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "advise job %s done on %s (cache hit: %v)\n\n", adv.ID, baseURL, adv.CacheHit)
	fmt.Fprint(w, text)
	return nil
}

// printEvent is -follow's event callback: a progress line per snapshot
// and an announcement per lifecycle transition of job id.
func printEvent(w io.Writer, id string) func(server.StreamEvent) {
	return func(ev server.StreamEvent) {
		switch ev.Type {
		case progress.EventSnapshot:
			s := ev.Snapshot
			if s == nil || s.Final {
				return
			}
			lpi := "n/a"
			if s.LPIValid {
				lpi = fmt.Sprintf("%.3f", s.LPI)
			}
			conv := ""
			switch {
			case s.Converged:
				conv = "  [converged]"
			case s.Confidence > 0:
				conv = fmt.Sprintf("  [stabilising %.0f%%]", 100*s.Confidence)
			}
			fmt.Fprintf(w, "%s  epoch %-4d samples %-8.0f remote %5.1f%%  lpi %s%s\n",
				id, s.Epoch, s.Samples, 100*s.RemoteFraction, lpi, conv)
		case progress.EventQueued, progress.EventRunning, progress.EventShutdown:
			fmt.Fprintf(w, "%s  %s\n", id, ev.Type)
		}
	}
}

// submitJobs is -submit mode: post spec to the numad daemon at o.submit
// once per workload, wait for completion, and print each report in the
// order given. With a single workload, -html and -profile fetch the
// daemon's rendered HTML and raw measurement bytes into local files.
func submitJobs(w io.Writer, spec server.Spec, o options) error {
	ctx := context.Background()
	client := server.NewClient(o.submit)
	names := o.workloads
	ids := make([]string, len(names))
	for i, name := range names {
		spec.Workload = name
		st, err := client.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		var show func(server.StreamEvent)
		if o.follow {
			show = printEvent(w, id)
		}
		st, err := client.Follow(ctx, id, show)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("%s: job %s %s: %s", names[i], st.ID, st.State, st.Error)
		}
		text, err := client.Text(ctx, id)
		if err != nil {
			return err
		}
		if len(ids) > 1 {
			fmt.Fprintf(w, "=== %s ===\n", names[i])
		}
		fmt.Fprintf(w, "job %s done on %s (cache hit: %v)\n\n", st.ID, o.submit, st.CacheHit)
		fmt.Fprint(w, text)
		if o.html != "" {
			page, err := client.HTMLReport(ctx, id)
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.html, []byte(page), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nHTML report written to %s\n", o.html)
		}
		if o.profile != "" {
			raw, err := client.ProfileBytes(ctx, id)
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.profile, raw, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nmeasurement file written to %s (view with numaview)\n", o.profile)
		}
	}
	return nil
}
