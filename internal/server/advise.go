package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The advise endpoint: POST /api/v1/jobs/{id}/advise turns a finished
// profiling job into an asynchronous optimizer run. The advise job is a
// regular Job — same state machine, journal records, retry policy, and
// worker pool — whose spec is the target's with Advise set, so its key
// is distinct from the profile's and the whole run is deduped and
// durable like any other submission. Every profile it needs comes
// through resolve, the single-spec job path: the baseline on the
// target's own key (a hit when the target just ran), and each candidate
// remedy's re-run as a cell (runCell) on the transformed spec's key —
// the store is the checkpoint, so a crashed or repeated advise run
// replays finished candidates instead of recomputing them. The advisor
// reads every one of those profiles, so each is then decoded through
// Store.Get.

// handleAdvise validates the target and submits the advise job:
// 404 for an unknown id, 409 for a job that has not reached done, 400
// for sweeps and advise jobs (no single baseline to optimize), then the
// regular submit path with its 429/503 mapping.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.m.adviseRequests.Inc()
	target, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	st := target.Status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict, "job %s is %s, not done; advise needs a finished profile", st.ID, st.State)
		return
	}
	if st.Spec.IsSweep() {
		writeError(w, http.StatusBadRequest, "job %s is a sweep; advise one of its cells instead", st.ID)
		return
	}
	if st.Spec.Advise {
		writeError(w, http.StatusBadRequest, "job %s is already an advise job", st.ID)
		return
	}
	spec := st.Spec
	spec.Advise = true
	job, err := s.Submit(spec)
	s.writeSubmitResult(w, job, err)
}

// executeAdvise resolves one advise attempt: baseline profile (store
// hit or fresh run), diagnosis, and the candidate fan-out, all under
// the job's context. The job's cells mirror candidate progress the way
// a sweep's mirror its cells.
func (s *Server) executeAdvise(ctx context.Context, job *Job) (State, string, bool, error) {
	blob, rep, allCached, err := s.computeAdvice(ctx, job, true)
	switch {
	case err == nil:
		job.setAdvice(blob)
		s.m.adviseDone.Inc()
		if rep.Best != nil {
			s.log.Info("advice ready", "id", job.id, "workload", job.spec.Workload,
				"remedies", len(rep.Remedies), "best", string(rep.Best.Kind))
		}
		return StateDone, "", allCached, nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		st, msg, hit := cancelOutcome(err)
		return st, msg, hit, err
	default:
		return StateFailed, err.Error(), false, err
	}
}

// computeAdvice is the whole advise pipeline. It is deterministic end
// to end — the advisor is pure, candidates re-run at width 1 in input
// order, and the report is canonical struct JSON — so recomputing after
// a restart yields byte-identical advice. track controls whether the
// job's cell table mirrors progress (the live run does; a view-path
// recompute must not mutate a terminal job's status).
func (s *Server) computeAdvice(ctx context.Context, job *Job, track bool) ([]byte, *advisor.Report, bool, error) {
	base := job.spec
	base.Advise = false
	baseKey := base.Key()

	baseCached, err := s.resolve(ctx, job, base, baseKey, false)
	if err != nil {
		return nil, nil, false, err
	}
	baseline, err := s.st.Get(baseKey)
	if err != nil {
		return nil, nil, false, err
	}

	adv := advisor.Advise(baseline, advisor.Options{})
	cands := advisor.Candidates(adv)

	specs := make([]Spec, len(cands))
	keys := make([]store.Key, len(cands))
	statuses := make([]CellStatus, len(cands))
	for i, c := range cands {
		specs[i] = applyTransform(base, c.Transform)
		keys[i] = specs[i].Key()
		statuses[i] = CellStatus{
			Index: i, Workload: base.Workload, Strategy: c.Label,
			Key: keys[i], State: StateQueued,
		}
	}
	if track && len(statuses) > 0 {
		job.setCells(statuses)
	}

	// Candidates run at width 1 (job-level parallelism belongs to the
	// pool, like sweeps), so a plain counter is race-free.
	replayed := 0
	run := func(cellCtx context.Context, i int, _ advisor.Transform) (*core.Profile, error) {
		_, done := telemetry.Timed(cellCtx, "server.advise_rerun",
			telemetry.String("id", job.id), telemetry.String("label", cands[i].Label))
		start := time.Now()
		cached, err := s.runCell(cellCtx, job, i, specs[i], keys[i], track)
		var p *core.Profile
		if err == nil {
			p, err = s.st.Get(keys[i])
		}
		s.m.rerun.Observe(time.Since(start))
		done()
		if err != nil {
			return nil, err
		}
		if cached {
			replayed++
		}
		s.m.remediesApplied.Inc()
		return p, nil
	}

	rep, err := advisor.Measure(ctx, adv, cands, 1, run)
	if err != nil {
		return nil, nil, false, err
	}
	// Stamp each remedy with its candidate profile's content address,
	// so the report links straight into /api/v1/profiles/{key}.
	for _, c := range cands {
		switch {
		case c.Remedy >= 0 && c.Remedy < len(rep.Remedies):
			rep.Remedies[c.Remedy].Key = string(keys[c.Index])
		case c.Remedy == -1 && rep.Composite != nil:
			rep.Composite.Key = string(keys[c.Index])
		}
	}
	if rep.Best != nil {
		// Best is a copy; re-resolve its key from the stamped remedies.
		for i := range rep.Remedies {
			if rep.Remedies[i].Kind == rep.Best.Kind {
				rep.Best.Key = rep.Remedies[i].Key
			}
		}
		if rep.Composite != nil && rep.Best.Kind == rep.Composite.Kind {
			rep.Best.Key = rep.Composite.Key
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, nil, false, fmt.Errorf("marshal advice: %w", err)
	}
	allCached := baseCached && replayed == len(cands)
	return blob, rep, allCached, nil
}

// applyTransform clones a baseline spec with a remedy's knobs turned.
// The result goes back through Normalize (inside Key and Build), so
// per-workload quirks still apply — umt2013's scatter coercion can fold
// a compact-binding candidate back into the baseline, which is the
// honest server-side answer for a knob that spec cannot express.
func applyTransform(base Spec, t advisor.Transform) Spec {
	spec := base
	if t.Strategy != "" {
		spec.Strategy = string(t.Strategy)
	}
	if t.Binding != "" {
		spec.Binding = t.Binding
	}
	return spec
}

// adviceReport returns the canonical advice JSON for a done advise job,
// recomputing it (store hits all the way) when the in-memory cache is
// gone — the crash-recovery path for advice views.
func (s *Server) adviceReport(ctx context.Context, job *Job) ([]byte, error) {
	if b := job.adviceNow(); b != nil {
		return b, nil
	}
	blob, _, _, err := s.computeAdvice(ctx, job, false)
	if err != nil {
		return nil, err
	}
	job.setAdvice(blob)
	return blob, nil
}
