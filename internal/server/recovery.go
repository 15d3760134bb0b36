package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
)

// Errors the admission-control path maps to HTTP statuses, alongside
// ErrQueueFull and ErrDraining.
var (
	// ErrOverloaded is deadline-aware load shedding: given the current
	// queue latency, the job could not finish inside JobTimeout, so
	// accepting it would only burn a worker on a doomed run (429 with
	// Retry-After).
	ErrOverloaded = errors.New("server: overloaded, job cannot meet its deadline")
	// ErrCircuitOpen is the per-spec circuit breaker fast-failing a
	// spec that failed several times in a row (503 with
	// Retry-After; the spec is retried after the cooldown).
	ErrCircuitOpen = errors.New("server: circuit open for this spec")
)

// retryAfterError decorates a sentinel with a client back-off hint; the
// HTTP layer turns it into a Retry-After header. errors.Is still sees
// the wrapped sentinel.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.err, e.after.Round(time.Millisecond))
}

func (e *retryAfterError) Unwrap() error { return e.err }

// withRetryAfter attaches a hint to err.
func withRetryAfter(err error, after time.Duration) error {
	if after < time.Second {
		after = time.Second
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfterHint extracts a Retry-After hint from a Submit error.
func RetryAfterHint(err error) (time.Duration, bool) {
	var re *retryAfterError
	if errors.As(err, &re) {
		return re.after, true
	}
	return 0, false
}

// breakerEntry is one spec's failure history. The breaker is keyed by
// store key (canonical spec hash): repeated failures of the same spec
// trip it open, and submissions fast-fail until the cooldown
// passes; the first success closes it again. Canceled and deadline
// outcomes never count — they say nothing about the spec.
type breakerEntry struct {
	fails     int
	openUntil time.Time
}

// Breaker policy defaults (overridable via Options).
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
)

// breakerAllow decides, under s.mu, whether a submission for key may
// proceed. After the cooldown the breaker goes half-open: one probe is
// let through (fails drops to threshold-1, so its failure re-trips
// immediately, and its success closes the breaker).
func (s *Server) breakerAllow(key store.Key, now time.Time) (time.Duration, bool) {
	if s.breakerThreshold <= 0 {
		return 0, true
	}
	e, ok := s.breaker[key]
	if !ok || e.openUntil.IsZero() {
		return 0, true
	}
	if now.Before(e.openUntil) {
		s.m.breakerFastFails.Inc()
		return e.openUntil.Sub(now), false
	}
	// Half-open probe.
	e.fails = s.breakerThreshold - 1
	e.openUntil = time.Time{}
	return 0, true
}

// breakerFailure records a failure for key, tripping the
// breaker at the threshold.
func (s *Server) breakerFailure(key store.Key) {
	if s.breakerThreshold <= 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.breaker[key]
	if e == nil {
		e = &breakerEntry{}
		s.breaker[key] = e
	}
	e.fails++
	if e.fails >= s.breakerThreshold && e.openUntil.IsZero() {
		e.openUntil = now.Add(s.breakerCooldown)
		s.m.breakerTrips.Inc()
		s.log.Warn("circuit breaker tripped", "key", string(key),
			"fails", e.fails, "cooldown", s.breakerCooldown.String())
	}
}

// breakerSuccess closes the breaker for key.
func (s *Server) breakerSuccess(key store.Key) {
	s.mu.Lock()
	delete(s.breaker, key)
	s.mu.Unlock()
}

// shedMinSamples is how many completed runs the shedding estimator
// needs before it trusts the run-latency mean; below it, admission is
// unconditional (cold daemons must not reject their first jobs).
const shedMinSamples = 8

// shedCheck decides, under s.mu, whether a new job could still meet
// JobTimeout: expected completion ≈ mean run time × (queue depth /
// workers + 1). Infeasible work is rejected now, with a hint, instead
// of timing out after burning a worker.
func (s *Server) shedCheck(now time.Time) (time.Duration, bool) {
	if s.timeout <= 0 {
		return 0, true
	}
	snap := s.m.run.Snapshot()
	if snap.Count < shedMinSamples {
		return 0, true
	}
	mean := time.Duration(snap.MeanUs) * time.Microsecond
	expected := mean * time.Duration(len(s.queue)/s.workers+1)
	if expected <= s.timeout {
		return 0, true
	}
	s.m.shed.Inc()
	return expected - s.timeout, false
}

// journalAppend logs a job's queued record or its terminal one, the
// only records recovery reads. The spec rides along only on queued
// records (it is what recovery re-enqueues); everything else is
// identified by job ID. Append failures outside Submit are logged, not
// fatal: losing durability must not fail a live job.
func (s *Server) journalAppend(job *Job, state State, errMsg string, cacheHit bool, withSpec bool) error {
	if s.jl == nil {
		return nil
	}
	rec := store.JournalRecord{
		ID:       job.id,
		State:    string(state),
		CacheHit: cacheHit,
		Err:      errMsg,
		Unix:     time.Now().Unix(),
	}
	if withSpec {
		rec.Key = string(job.key)
		b, err := json.Marshal(job.spec)
		if err != nil {
			return fmt.Errorf("server: journal spec: %w", err)
		}
		rec.Spec = b
	}
	if err := s.jl.Append(rec); err != nil {
		s.log.Error("journal append failed", "id", job.id, "state", string(state), "err", err)
		return fmt.Errorf("server: journal: %w", err)
	}
	return nil
}

// Recover replays a recovered journal into the server: terminal jobs
// re-enter the job table (the API keeps answering for them), queued
// jobs are re-enqueued from their journaled specs (so is a job whose
// last record is running, which only older journals hold), and the job
// ID sequence continues past the highest replayed ID. Call it after New
// and before Start, with the journal already compacted and reopened.
//
// Re-enqueued jobs whose profiles landed in the store before the crash
// resolve as cache hits; interrupted sweeps recompute only the cells
// the store is missing. A non-terminal job whose queued record (the one
// carrying the spec) was lost to corruption cannot be re-run and is
// recovered as failed — never silently dropped.
//
// Such a failure is journaled before the job is adopted. Boot-time
// compaction has already dropped the job's non-terminal records, so
// without its terminal record the next restart would forget the job
// and hand its ID to a new submission.
func (s *Server) Recover(rec *store.RecoveredJournal) error {
	if rec == nil {
		return nil
	}
	now := time.Now()
	for _, jj := range rec.Jobs {
		var spec Spec
		specErr := json.Unmarshal(jj.Spec, &spec)
		if len(jj.Spec) == 0 {
			specErr = errors.New("journal lost the job's spec")
		}
		st := State(jj.State)

		if st.Terminal() {
			// A done sweep has every cell stored, so its journaled spec
			// names its whole cell table. The journal keeps no per-cell
			// states, so a failed or canceled sweep and an advise job
			// come back without one.
			var cells []CellStatus
			if st == StateDone && specErr == nil && spec.IsSweep() && !spec.Advise {
				_, cells, _ = cellTable(spec, StateDone)
			}
			job := newTerminalJob(jj.ID, spec, store.Key(jj.Key), st, jj.Err, jj.CacheHit, cells, now)
			s.adoptJob(job)
			continue
		}

		if specErr != nil {
			if err := s.failRecovered(jj, spec, store.Key(jj.Key), fmt.Sprintf("unrecoverable: %v", specErr), now); err != nil {
				return err
			}
			s.log.Error("job unrecoverable", "id", jj.ID, "err", specErr)
			continue
		}

		n, err := spec.Normalize()
		if err != nil {
			if err := s.failRecovered(jj, spec, store.Key(jj.Key), fmt.Sprintf("unrecoverable: %v", err), now); err != nil {
				return err
			}
			continue
		}
		job := newJob(s.baseCtx, jj.ID, n, n.Key(), now)
		job.markRecovered()
		if s.timeout > 0 {
			job.armTimeout(s.timeout)
		}

		s.mu.Lock()
		full := len(s.queue) == cap(s.queue)
		if !full {
			err = s.enqueue(job)
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if full {
			job.cancel()
			if err := s.failRecovered(jj, n, n.Key(), "recovered job exceeds queue capacity", now); err != nil {
				return err
			}
			s.log.Error("recovered job dropped, queue full", "id", jj.ID)
			continue
		}
		s.adoptJob(job)
		s.m.recovered.Inc()
		s.log.Info("job recovered", "id", jj.ID, "state", jj.State)
	}

	// Continue job numbering past every replayed ID, recovered or not.
	s.mu.Lock()
	for _, jj := range rec.Jobs {
		if n, ok := parseJobSeq(jj.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()
	return nil
}

// failRecovered journals a replayed job's terminal failed record, with
// its spec and key when the journal still had them, then adopts the job
// as failed.
func (s *Server) failRecovered(jj store.JournalJob, spec Spec, key store.Key, msg string, now time.Time) error {
	job := newTerminalJob(jj.ID, spec, key, StateFailed, msg, false, nil, now)
	if err := s.journalAppend(job, StateFailed, msg, false, len(jj.Spec) > 0); err != nil {
		return err
	}
	s.adoptJob(job)
	s.m.failed.Inc()
	return nil
}

// adoptJob inserts a rebuilt job into the table in replay order.
func (s *Server) adoptJob(job *Job) {
	s.mu.Lock()
	if _, exists := s.jobs[job.id]; !exists {
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
	} else {
		s.jobs[job.id] = job
	}
	s.mu.Unlock()
}

// parseJobSeq extracts N from "job-00000N" IDs.
func parseJobSeq(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// executeSweep runs a multi-cell job, one cell at a time through
// runCell: the content-addressed store is the checkpoint, so a cell
// finished by any earlier attempt, recovery, identical sweep or
// single-spec job replays instead of recomputing, and a cell whose
// profile cannot be stored fails. Cell indices follow Cells' input
// order, and each cell's profile is exactly what a single-spec job for
// that cell produces — the reassembly contract that keeps recovered
// results byte-identical. The sweep is done exactly when every cell's
// profile is stored, and a cache hit when every cell was.
func (s *Server) executeSweep(ctx context.Context, job *Job) (State, string, bool, error) {
	cells, statuses, err := cellTable(job.spec, StateQueued)
	if err != nil {
		return StateFailed, err.Error(), false, err
	}
	job.setCells(statuses)

	// One worker: job-level parallelism is the pool's, exactly like the
	// single-spec path. setCell writes only a cell's State and Error, so
	// reading its Key here needs no lock.
	hits, err := sched.MapWithCtx(ctx, 1, len(cells), func(cellCtx context.Context, i int) (bool, error) {
		return s.runCell(cellCtx, job, i, cells[i], statuses[i].Key, true)
	})
	if err != nil {
		var firstErr error = err
		if sweep, ok := sched.AsSweep(err); ok && len(sweep.Cells) > 0 {
			// Cells skipped after a cancel never reached runCell.
			for _, ce := range sweep.Cells {
				job.setCell(ce.Index, StateFailed, ce.Err.Error())
			}
			firstErr = sweep.Cells[0].Err
		}
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			st, msg, hit := cancelOutcome(firstErr)
			return st, msg, hit, firstErr
		}
		return StateFailed, err.Error(), false, firstErr
	}
	return StateDone, "", !slices.Contains(hits, false), nil
}

// cellTable expands a sweep spec into its cells, in input order, and a
// cell table that puts every cell, keyed by its own spec, in state st.
func cellTable(spec Spec, st State) ([]Spec, []CellStatus, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil, err
	}
	statuses := make([]CellStatus, len(cells))
	for i, c := range cells {
		statuses[i] = CellStatus{
			Index: i, Workload: c.Workload, Strategy: c.Strategy,
			Key: c.Key(), State: st,
		}
	}
	return cells, statuses, nil
}
