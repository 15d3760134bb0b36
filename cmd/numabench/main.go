// Command numabench regenerates every table and figure of the paper's
// evaluation on the simulated substrate and prints measured values next
// to the paper's reported numbers.
//
// Run everything:
//
//	numabench
//
// Run selected artifacts:
//
//	numabench -run T1,T2
//	numabench -run F3,F45,F89,F10
//	numabench -run S1,S2,S3,S4
//
// Fan the independent experiment cells (and the artifacts themselves)
// out across worker goroutines; the printed report is byte-identical
// to the serial run, only faster:
//
//	numabench -parallel 8
//	numabench -parallel 1   # the serial path
//
// Ids: T1 T2 (tables), F1 F2 F3 F45 F89 F10 (figures), S1-S4 (the
// Section 8 speedups: LULESH, AMG2006, Blackscholes, UMT2013),
// A1-A4 (design-choice ablations: sampling period, binning,
// contention model, scheduling), SC (the reproduction scorecard), and
// OPT (the optimizer scorecard: the closed-loop advisor autonomously
// recovering the Section 8 fixes). An unknown id exits 2 with the list
// of known ids; SC and OPT print their card and exit 1 when a claim
// fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

type artifact struct {
	id    string
	title string
	run   func(iters int) (string, error)
}

func artifacts() []artifact {
	return []artifact{
		{"T1", "Table 1: sampling-mechanism configurations", func(int) (string, error) {
			return experiments.RenderTable1(experiments.Table1()), nil
		}},
		{"T2", "Table 2: monitoring overhead", func(iters int) (string, error) {
			t, err := experiments.RunTable2(iters)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"F1", "Figure 1: three data distributions", func(int) (string, error) {
			r, err := experiments.RunFigure1()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"F2", "Figure 2: first-touch trapping", func(int) (string, error) {
			r, err := experiments.RunFigure2()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"F3", "Figure 3 / Section 8.1: LULESH case study", func(iters int) (string, error) {
			r, err := experiments.RunFigure3(iters)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"F45", "Figures 4-7 / Section 8.2: AMG2006 patterns", func(iters int) (string, error) {
			r, err := experiments.RunFigures47(iters)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"F89", "Figures 8-9 / Section 8.3: Blackscholes layouts", func(int) (string, error) {
			r, err := experiments.RunFigures89(0)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"F10", "Figure 10 / Section 8.4: UMT2013 under MRK", func(int) (string, error) {
			r, err := experiments.RunFigure10(0)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"S1", "Section 8.1 speedups: LULESH (both machines)", func(iters int) (string, error) {
			amd, p7, err := experiments.RunSpeedupLULESH(iters)
			if err != nil {
				return "", err
			}
			return amd.Render() + p7.Render(), nil
		}},
		{"S2", "Section 8.2 speedups: AMG2006 solver phase", func(iters int) (string, error) {
			r, err := experiments.RunSpeedupAMG(iters)
			if err != nil {
				return "", err
			}
			out := r.Render()
			out += fmt.Sprintf("  solver-time reduction: guided %.0f%% (paper 51%%), interleave-all %.0f%% (paper 36%%)\n",
				100*r.Reduction("guided"), 100*r.Reduction("interleave"))
			return out, nil
		}},
		{"S3", "Section 8.3 speedups: Blackscholes (negative control)", func(int) (string, error) {
			r, err := experiments.RunSpeedupBlackscholes(0)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"S4", "Section 8.4 speedups: UMT2013", func(int) (string, error) {
			r, err := experiments.RunSpeedupUMT(0)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"A1", "Ablation: sampling-period sensitivity of lpi_NUMA", func(int) (string, error) {
			r, err := experiments.RunAblationPeriod()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"A2", "Ablation: variable binning resolution", func(int) (string, error) {
			r, err := experiments.RunAblationBins()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"A3", "Ablation: contention model vs optimisation payoffs", func(int) (string, error) {
			r, err := experiments.RunAblationContention()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"A4", "Ablation: placement under static vs dynamic scheduling", func(int) (string, error) {
			r, err := experiments.RunAblationDynamic()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"SC", "Reproduction scorecard: every paper-shape claim, checked", func(iters int) (string, error) {
			r, err := experiments.RunScorecard(iters)
			if err != nil {
				return "", err
			}
			return r.Render(), claimsHold("reproduction", r)
		}},
		{"OPT", "Optimizer scorecard: autonomous recovery of the case-study fixes", func(iters int) (string, error) {
			r, err := experiments.RunOptimizer(iters)
			if err != nil {
				return "", err
			}
			return r.Render(), claimsHold("optimizer", r.Scorecard)
		}},
	}
}

// errClaims marks a scorecard whose run completed with failing claims:
// numabench still prints the card, then exits 1.
var errClaims = errors.New("claims failed")

// claimsHold is SC's and OPT's verdict: nil when every claim holds.
func claimsHold(name string, s *experiments.Scorecard) error {
	if s.AllPass() {
		return nil
	}
	return fmt.Errorf("%s scorecard: %d/%d %w", name, len(s.Claims)-s.Passed(), len(s.Claims), errClaims)
}

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated artifact ids (empty: all)")
		iters    = flag.Int("iters", 0, "workload iterations for the heavy runs (0: defaults)")
		mdOut    = flag.String("out", "", "also write the results as a markdown report to this path")
		parallel = flag.Int("parallel", sched.Workers(),
			"worker goroutines for experiment cells and artifacts (1: the serial path; results are identical either way)")
		telemetryDir = flag.String("telemetry", "",
			"self-profile the run: write "+telemetry.TraceFile+" (chrome://tracing), "+
				telemetry.SpanFile+" and "+telemetry.MetricsFile+" to this directory and print a per-phase summary")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	all := artifacts()
	ids := make([]string, len(all))
	for i, a := range all {
		ids[i] = a.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "numabench: unknown artifact id %q (known: %s)\n", id, strings.Join(ids, " "))
			os.Exit(2)
		}
		want[id] = true
	}

	// exit finalizes telemetry (when -telemetry armed it) before leaving:
	// every path below must go through it rather than os.Exit directly.
	ctx := context.Background()
	exit := func(code int) { os.Exit(code) }
	if *telemetryDir != "" {
		tr := telemetry.NewTracer(telemetry.WithAllocTracking())
		telemetry.SetTracer(tr)
		var root *telemetry.Span
		ctx, root = telemetry.Start(ctx, "numabench.run",
			telemetry.String("run", *runList))
		dir := *telemetryDir
		exit = func(code int) {
			root.End()
			telemetry.SetTracer(nil)
			if err := telemetry.Dump(dir, tr, telemetry.Default); err != nil {
				fmt.Fprintln(os.Stderr, "numabench:", err)
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

	var md strings.Builder
	if *mdOut != "" {
		md.WriteString("# NUMA-profiler reproduction results\n\n")
		md.WriteString("Generated by `numabench`. Measured values appear next to the\n")
		md.WriteString("paper's reported numbers where the paper reports them.\n\n")
	}

	var selected []artifact
	for _, a := range all {
		if len(want) > 0 && !want[a.id] {
			continue
		}
		selected = append(selected, a)
	}

	// The artifacts themselves are independent, so they too go through
	// the scheduler. With -parallel 1 this streams each artifact's
	// output as it completes, exactly as before; with more workers the
	// outputs are buffered and printed afterwards in the same fixed
	// order, so the report is byte-identical.
	type outcome struct {
		out     string
		elapsed time.Duration
		claims  error // failing claims; the card is still printed
	}
	streaming := sched.Workers() <= 1
	results, runErr := sched.MapCtx(ctx, len(selected), func(ctx context.Context, i int) (outcome, error) {
		a := selected[i]
		start := time.Now()
		if streaming {
			fmt.Printf("=== %s — %s ===\n", a.id, a.title)
		}
		_, done := telemetry.Timed(ctx, "numabench.artifact", telemetry.String("id", a.id))
		defer done()
		out, err := a.run(*iters)
		if err != nil && !errors.Is(err, errClaims) {
			return outcome{}, fmt.Errorf("%s failed: %w", a.id, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if streaming {
			fmt.Print(out)
			fmt.Printf("(%s in %v)\n\n", a.id, elapsed)
		}
		return outcome{out: out, elapsed: elapsed, claims: err}, nil
	})

	failed := false
	failedIDs := map[int]bool{}
	if runErr != nil {
		failed = true
		if sweep, ok := sched.AsSweep(runErr); ok {
			for _, ce := range sweep.Cells {
				fmt.Fprintln(os.Stderr, ce.Err)
				failedIDs[ce.Index] = true
			}
		} else {
			fmt.Fprintln(os.Stderr, runErr)
		}
	}
	for i, a := range selected {
		if failedIDs[i] {
			continue
		}
		r := results[i]
		if !streaming {
			fmt.Printf("=== %s — %s ===\n", a.id, a.title)
			fmt.Print(r.out)
			fmt.Printf("(%s in %v)\n\n", a.id, r.elapsed)
		}
		if r.claims != nil {
			fmt.Fprintln(os.Stderr, r.claims)
			failed = true
		}
		if *mdOut != "" {
			fmt.Fprintf(&md, "## %s — %s\n\n```\n%s```\n\n_(completed in %v)_\n\n",
				a.id, a.title, r.out, r.elapsed)
		}
	}
	if *mdOut != "" && !failed {
		if err := os.WriteFile(*mdOut, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "numabench:", err)
			failed = true
		} else {
			fmt.Printf("markdown report written to %s\n", *mdOut)
		}
	}
	if failed {
		exit(1)
	}
	exit(0)
}
