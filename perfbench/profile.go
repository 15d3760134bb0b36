package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/profio"
	"repro/internal/server"
	"repro/internal/view"
)

// warmSpecs are the profiles every profile set-up runs: each paper app
// under IBS and under MRK, baseline placement. They keep first-use costs
// out of the timed ops, and at about a second and a half they make a
// set-up long enough that a stall of the host for part of a second
// does not move it much.
var warmSpecs = []string{
	"lulesh/IBS/baseline", "amg2006/IBS/baseline", "blackscholes/IBS/baseline", "umt2013/IBS/baseline",
	"lulesh/MRK/baseline", "amg2006/MRK/baseline", "blackscholes/MRK/baseline", "umt2013/MRK/baseline",
}

// renderText is numaprof's text report at its default flags (-top 5,
// -cct): the report, the calling-context view and the hot path. numad's
// ?view=text serves the same text.
func renderText(p *core.Profile) string {
	var b strings.Builder
	b.WriteString(view.Report(p, 5))
	b.WriteString("\n")
	b.WriteString(view.CCT(p, metrics.Mismatch, 6, 0.01))
	b.WriteString(view.RenderHotPath(p, metrics.Mismatch))
	return b.String()
}

// profileResult is what one profile op produced.
type profileResult struct {
	prof, loaded *core.Profile
	text         string
}

// profileOp is one numaprof run: Spec.Build, core.AnalyzeCtx, the text
// report, then the numaprof-to-numaview handoff through profio.SaveFile
// and profio.LoadFile.
func profileOp(ctx context.Context, o *opSpan, spec server.Spec, path string) (profileResult, error) {
	var (
		res profileResult
		cfg core.Config
		app core.App
	)
	ctx = o.context(ctx)
	err := o.layer("server.build", func() (err error) {
		cfg, app, err = spec.Build()
		return err
	})
	if err == nil {
		err = o.layer("core.analyze", func() (err error) {
			res.prof, err = core.AnalyzeCtx(ctx, cfg, app)
			return err
		})
	}
	if err == nil {
		err = o.layer("view.render", func() error {
			res.text = renderText(res.prof)
			return nil
		})
	}
	if err == nil {
		err = o.layer("profio.save", func() error { return profio.SaveFile(path, res.prof) })
	}
	if err == nil {
		err = o.layer("profio.load", func() (err error) {
			res.loaded, err = profio.LoadFile(path)
			return err
		})
	}
	return res, err
}

// checkProfile verifies one op's outputs: the saved bytes match the
// spec's fingerprint, the loaded profile renders the same text report as
// the profile that was saved, and its re-encoding matches its pin. It
// returns the saved bytes.
func checkProfile(fp *fingerprints, label, path string, res profileResult, rep *report) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got, want := sha(b), fp.Profiles[label]; got != want {
		return nil, fmt.Errorf("%s: profile sha256 %s, want %s", label, got, want)
	}
	if renderText(res.loaded) != res.text {
		return nil, fmt.Errorf("%s: the loaded profile's text report differs from the saved one's", label)
	}
	if !strings.Contains(res.text, res.prof.AppName) {
		return nil, fmt.Errorf("%s: text report does not name the app", label)
	}
	return b, rep.reencode(fp, label, res.loaded, b)
}

// balancedOrder is the seeded order a profile run cycles through. It
// visits the apps round-robin, and within each app the mechanisms
// round-robin, so any stretch of the order mixes heavy and light specs
// alike: a run that makes one pass and part of another measures nearly
// the same mix on every seed.
func balancedOrder(specs []profileSpec, seed int64) []profileSpec {
	rng := rand.New(rand.NewSource(seed))
	group := func(in []profileSpec, key func(server.Spec) string) [][]profileSpec {
		var keys []string
		by := map[string][]profileSpec{}
		for _, ps := range in {
			k := key(ps.spec)
			if _, ok := by[k]; !ok {
				keys = append(keys, k)
			}
			by[k] = append(by[k], ps)
		}
		out := make([][]profileSpec, len(keys))
		for i, k := range keys {
			out[i] = by[k]
		}
		return out
	}
	var apps [][]profileSpec
	for _, app := range group(specs, func(s server.Spec) string { return s.Workload }) {
		apps = append(apps, roundRobin(rng, group(app, func(s server.Spec) string { return s.Mechanism })))
	}
	return roundRobin(rng, apps)
}

// roundRobin shuffles each equal-sized group, then takes one spec from
// every group per round, the groups in a fresh seeded order each round.
func roundRobin(rng *rand.Rand, groups [][]profileSpec) []profileSpec {
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	var out []profileSpec
	for r := 0; r < len(groups[0]); r++ {
		for _, gi := range rng.Perm(len(groups)) {
			out = append(out, groups[gi][r])
		}
	}
	return out
}

func runProfile(ctx context.Context, o options, rep *report) error {
	path := filepath.Join(o.dir, "profile.numaprof")
	specs := profileSpecs()
	byLabel := map[string]profileSpec{}
	for _, ps := range specs {
		byLabel[ps.label] = ps
	}
	var (
		fp    *fingerprints
		order []profileSpec
	)
	err := setUp(rep, func() (err error) {
		if fp, err = loadFingerprints(); err != nil {
			return err
		}
		order = balancedOrder(specs, o.seed)
		for _, label := range warmSpecs {
			res, err := profileOp(ctx, nil, byLabel[label].spec, path)
			if err != nil {
				return err
			}
			if _, err := checkProfile(fp, label, path, res, &report{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	counts := map[string]map[int64]float64{"proc.mem_accesses": {}, "pmu.samples": {}, "cct.nodes": {}, "profio.bytes": {}}
	_, err = timedLoop(o, rep, func(op int64, i int, traced bool) error {
		ps := order[i%len(order)]
		settle(rep)
		rec.install(traced)
		start := time.Now()
		sp := rec.begin(ctx, op, "op", traced)
		res, err := profileOp(ctx, sp, ps.spec, path)
		sp.end()
		elapsed := time.Since(start)
		rec.install(false)
		defer func() { rep.untimed += time.Since(start) - elapsed }()
		rep.attempted++
		if err != nil {
			return fmt.Errorf("%s: %w", ps.label, err)
		}
		b, err := checkProfile(fp, ps.label, path, res, rep)
		if err != nil {
			rep.failed++
			rep.fail("%v", err)
			return nil
		}
		rep.samples = append(rep.samples, opSample{traced, ms(elapsed), i})
		if traced {
			// The unmonitored run of the same spec: the proc, vm, cache,
			// mem, interconnect, omp and workloads stack alone.
			var e *proc.Engine
			err := sp.probe("proc.run", func() error {
				cfg, app, err := ps.spec.Build()
				if err != nil {
					return err
				}
				e, err = core.Run(cfg, app)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: core.Run: %w", ps.label, err)
			}
			counts["proc.mem_accesses"][op] = float64(e.TotalMemAccesses())
			counts["pmu.samples"][op] = res.prof.Totals.Samples
			counts["cct.nodes"][op] = float64(res.prof.Tree.Root().Size())
			counts["profio.bytes"][op] = float64(len(b))
		}
		return nil
	})
	if err != nil || !o.trace {
		return err
	}

	// Per-layer breakdown of the traced ops.
	bench := rec.benchSpans()
	prog, err := rec.programSpans()
	if err != nil {
		return err
	}
	L := rep.layers
	L["core.analyze_ms"] = medianOf(perOp(bench, "core.analyze"))
	L["core.engine_setup_ms"] = medianOf(perOp(prog, "pipeline.engine_setup"))
	sampling := perOp(prog, "pipeline.sampling_run")
	L["core.sampling_run_ms"] = medianOf(sampling)
	L["core.cct_merge_ms"] = medianOf(perOp(prog, "pipeline.cct_merge"))
	L["core.derive_ms"] = medianOf(perOp(prog, "pipeline.derive_metrics"))
	run := perOp(bench, "proc.run")
	L["proc.run_ms"] = medianOf(run)
	monitor := map[int64]float64{}
	for op, r := range run {
		monitor[op] = sampling[op] - r
	}
	L["pmu.monitor_ms"] = medianOf(monitor)
	L["view.render_ms"] = medianOf(perOp(bench, "view.render"))
	L["profio.save_ms"] = medianOf(perOp(bench, "profio.save"))
	L["profio.load_ms"] = medianOf(perOp(bench, "profio.load"))
	for name, c := range counts {
		L[name] = medianOf(c)
	}
	ops := opsOf(bench, "op")
	var children []span
	for _, s := range bench {
		if s.Parent != 0 {
			children = append(children, s)
		}
	}
	L["trace.coverage"] = coverage(ops, children)
	return writeTrace(o.traceOut, bench, prog)
}
