package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// Spec is one profiling job: everything `numaprof` takes on its command
// line, as the JSON body of POST /api/v1/jobs. The zero values mean
// "the CLI's defaults", so the daemon and the CLI resolve identical
// configurations — the byte-identity guarantee between a daemon-served
// profile and `numaprof -profile` output rides on Build being the only
// spec-to-config path in the tree.
type Spec struct {
	// Workload is required: lulesh, amg2006, blackscholes, umt2013.
	// A comma-separated list turns the job into a sweep (see IsSweep):
	// one cell per workload × strategy combination, each stored
	// under its own key as it finishes.
	Workload string `json:"workload"`
	// Mechanism is the sampling back end (default IBS).
	Mechanism string `json:"mechanism,omitempty"`
	// Machine is a topology preset name (default: the mechanism's
	// Table 1 testbed, as in the CLI).
	Machine string `json:"machine,omitempty"`
	// Threads is the team size (0: all CPUs; UMT defaults to 32).
	Threads int `json:"threads,omitempty"`
	// Binding is compact or scatter (default compact; UMT forces
	// scatter over the compact default).
	Binding string `json:"binding,omitempty"`
	// Strategy is the placement variant (default baseline). Like
	// Workload, a comma-separated list sweeps several strategies.
	Strategy string `json:"strategy,omitempty"`
	// Period overrides the mechanism's sampling period (0: default).
	Period uint64 `json:"period,omitempty"`
	// Bins overrides the per-variable bin count (0: default).
	Bins int `json:"bins,omitempty"`
	// Iters overrides the workload's iteration count (0: default).
	Iters int `json:"iters,omitempty"`
	// FirstTouch enables page-protection first-touch pinpointing
	// (null: true, the CLI default).
	FirstTouch *bool `json:"first_touch,omitempty"`
	// Trace records time-stamped samples.
	Trace bool `json:"trace,omitempty"`
	// Chaos is a fault-injection plan (see internal/faults), e.g.
	// "drop=0.2,fail=2000,seed=42".
	Chaos string `json:"chaos,omitempty"`
	// Advise turns the job into an optimizer run: profile the spec (or
	// reuse its stored baseline), diagnose it, and re-run every
	// candidate remedy (see internal/advisor). Set by POST
	// /api/v1/jobs/{id}/advise, not usually by hand. omitempty keeps
	// every pre-existing spec's canonical JSON — and store key —
	// unchanged.
	Advise bool `json:"advise,omitempty"`
}

// knownWorkload reports whether name is one of the four benchmarks.
func knownWorkload(name string) bool {
	switch name {
	case "lulesh", "amg2006", "blackscholes", "umt2013":
		return true
	}
	return false
}

// IsSweep reports whether the spec names several cells: a comma list in
// Workload and/or Strategy, the same list syntax the numaprof CLI takes.
func (s Spec) IsSweep() bool {
	return strings.Contains(s.Workload, ",") || strings.Contains(s.Strategy, ",")
}

// splitList splits a comma list, trimming fields and dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Normalize resolves every default to its explicit value and validates
// the result, returning the canonical spec that Key hashes: two
// submissions that resolve to the same run always share one store
// entry, however they spelled their defaults.
//
// A sweep spec canonicalizes its lists (trimmed, order-preserved) and
// keeps generic defaults for the shared fields; the per-workload quirks
// (umt2013's thread cap and scatter binding) are applied per cell by
// Cells, never at the sweep level.
func (s Spec) Normalize() (Spec, error) {
	if s.IsSweep() {
		return s.normalizeSweep()
	}
	n := s
	n.Workload = strings.TrimSpace(n.Workload)
	if !knownWorkload(n.Workload) {
		return n, fmt.Errorf("unknown workload %q (lulesh|amg2006|blackscholes|umt2013)", n.Workload)
	}
	if n.Strategy == "" {
		n.Strategy = string(workloads.Baseline)
	}
	if !validStrategy(n.Strategy) {
		return n, fmt.Errorf("unknown strategy %q", n.Strategy)
	}
	if err := n.resolveShared(); err != nil {
		return n, err
	}
	if n.Workload == "umt2013" {
		if n.Threads == 0 {
			n.Threads = 32 // the paper's UMT input limit
		}
		if n.Binding == "compact" {
			n.Binding = "scatter"
		}
	}
	if n.Advise && !*n.FirstTouch {
		// The advisor's first-touch remedies need the pinpointing view;
		// refusing here beats silently weaker advice.
		return n, fmt.Errorf("advise requires first_touch tracking")
	}
	return n, nil
}

// normalizeSweep canonicalizes a multi-cell spec: both lists trimmed
// and validated, shared fields resolved to generic defaults, and every
// expanded cell proven to normalize on its own.
func (s Spec) normalizeSweep() (Spec, error) {
	n := s
	if n.Advise {
		return n, fmt.Errorf("advise applies to a single run, not a sweep (%s × %s)", n.Workload, n.Strategy)
	}
	wls := splitList(n.Workload)
	if len(wls) == 0 {
		return n, fmt.Errorf("empty workload list %q", s.Workload)
	}
	for _, w := range wls {
		if !knownWorkload(w) {
			return n, fmt.Errorf("unknown workload %q (lulesh|amg2006|blackscholes|umt2013)", w)
		}
	}
	n.Workload = strings.Join(wls, ",")
	sts := splitList(n.Strategy)
	if len(sts) == 0 {
		sts = []string{string(workloads.Baseline)}
	}
	for _, st := range sts {
		if !validStrategy(st) {
			return n, fmt.Errorf("unknown strategy %q", st)
		}
	}
	n.Strategy = strings.Join(sts, ",")
	if err := n.resolveShared(); err != nil {
		return n, err
	}
	// Every cell must stand alone (the umt2013 quirks can surface new
	// errors only through the per-cell path, but future workloads may
	// constrain more).
	for _, w := range wls {
		for _, st := range sts {
			c := n
			c.Workload, c.Strategy = w, st
			if _, err := c.Normalize(); err != nil {
				return n, fmt.Errorf("sweep cell %s/%s: %w", w, st, err)
			}
		}
	}
	return n, nil
}

// resolveShared resolves and checks the fields a single run and a sweep
// share: the mechanism (default IBS), the machine (default the
// mechanism's Table 1 testbed, as in the CLI), the binding, the thread,
// bin and iteration counts, the chaos plan and first-touch tracking
// (default on, the CLI default).
func (n *Spec) resolveShared() error {
	if n.Mechanism == "" {
		n.Mechanism = "IBS"
	}
	mech, err := pmu.ByName(n.Mechanism, n.Period)
	if err != nil {
		return err // "pmu: unknown mechanism ..."
	}
	if n.Machine == "" {
		n.Machine = mech.PaperConfig().Machine
	}
	if names := topology.PresetNames(); !slices.Contains(names, n.Machine) {
		return fmt.Errorf("unknown machine %q; presets: %s", n.Machine, strings.Join(names, ", "))
	}
	if n.Binding == "" {
		n.Binding = "compact"
	}
	if n.Binding != "compact" && n.Binding != "scatter" {
		return fmt.Errorf("unknown binding %q (compact|scatter)", n.Binding)
	}
	if n.Threads < 0 {
		return fmt.Errorf("negative thread count %d", n.Threads)
	}
	if n.Bins < 0 {
		return fmt.Errorf("negative bin count %d", n.Bins)
	}
	if n.Iters < 0 {
		return fmt.Errorf("negative iteration count %d", n.Iters)
	}
	if n.Chaos != "" {
		if _, err := faults.ParsePlan(n.Chaos); err != nil {
			return err // "faults: ..."
		}
	}
	if n.FirstTouch == nil {
		ft := true
		n.FirstTouch = &ft
	}
	return nil
}

// chaosPlan parses the spec's fault plan, nil when absent or invalid
// (Normalize already rejected invalid plans at submission).
func (s Spec) chaosPlan() *faults.Plan {
	if s.Chaos == "" {
		return nil
	}
	p, err := faults.ParsePlan(s.Chaos)
	if err != nil {
		return nil
	}
	return p
}

// validStrategy reports whether name is a known placement strategy.
func validStrategy(name string) bool {
	for _, st := range workloads.Strategies() {
		if name == string(st) {
			return true
		}
	}
	return false
}

// Cells expands a spec into its normalized single-run cells, workloads
// outer × strategies inner — the sweep's input order, which fixes cell
// indices. A non-sweep spec yields exactly its own normalized form.
func (s Spec) Cells() ([]Spec, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if !n.IsSweep() {
		return []Spec{n}, nil
	}
	var cells []Spec
	for _, w := range splitList(n.Workload) {
		for _, st := range splitList(n.Strategy) {
			c := n
			c.Workload, c.Strategy = w, st
			nc, err := c.Normalize() // applies per-workload quirks
			if err != nil {
				return nil, fmt.Errorf("sweep cell %s/%s: %w", w, st, err)
			}
			cells = append(cells, nc)
		}
	}
	return cells, nil
}

// Key content-addresses the spec: the SHA-256 of the canonical
// (normalized, field-order-fixed) JSON encoding. Normalize must have
// succeeded for the key to be meaningful.
func (s Spec) Key() store.Key {
	n, _ := s.Normalize()
	b, _ := json.Marshal(n) // struct marshal: fixed field order, cannot fail
	h := sha256.Sum256(b)
	return store.Key(hex.EncodeToString(h[:]))
}

// Build validates the spec and constructs the profiler configuration
// and a fresh one-shot App instance, exactly as the numaprof CLI does.
// A sweep spec has no single configuration; expand it with Cells and
// Build each cell.
func (s Spec) Build() (core.Config, core.App, error) {
	n, err := s.Normalize()
	if err != nil {
		return core.Config{}, nil, err
	}
	if n.IsSweep() {
		return core.Config{}, nil, fmt.Errorf("sweep spec (%s × %s) has no single config; expand with Cells", n.Workload, n.Strategy)
	}
	m, _ := topology.Preset(n.Machine)

	bind := proc.Compact
	if n.Binding == "scatter" {
		bind = proc.Scatter
	}

	params := workloads.Params{Strategy: workloads.Strategy(n.Strategy), Iters: n.Iters}
	var app core.App
	switch n.Workload {
	case "lulesh":
		app = workloads.NewLULESH(params)
	case "amg2006":
		app = workloads.NewAMG2006(params)
	case "blackscholes":
		app = workloads.NewBlackscholes(params)
	case "umt2013":
		app = workloads.NewUMT2013(params)
	}

	var plan *faults.Plan
	if n.Chaos != "" {
		plan, err = faults.ParsePlan(n.Chaos)
		if err != nil {
			return core.Config{}, nil, err
		}
	}

	cfg := core.Config{
		Faults:          plan,
		Machine:         m,
		Threads:         n.Threads,
		Binding:         bind,
		Mechanism:       n.Mechanism,
		Period:          n.Period,
		Bins:            n.Bins,
		TrackFirstTouch: *n.FirstTouch,
		Trace:           n.Trace,
		CacheConfig:     workloads.TunedCacheConfig(),
		MemParams:       workloads.MemParamsFor(m),
		FabricParams:    workloads.FabricParamsFor(m),
	}
	return cfg, app, nil
}
