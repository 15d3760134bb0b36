// Package server is the numad profiling service: it turns the
// batch-only profile → merge → view pipeline into a long-running daemon
// that accepts profiling jobs over HTTP, executes them on a bounded
// worker pool built on internal/sched, persists every result through
// the content-addressed internal/store, and serves status, rendered
// views, and profile diffs back out.
//
// Architecture (one request's life):
//
//	POST /api/v1/jobs ── validate Spec ── bounded queue ── worker pool
//	                                        │ full → 429     (sched.MapWithCtx)
//	                                        └ draining → 503      │
//	            store.GetOrCompute(spec key) ─────────────────────┘
//	              ├ LRU hit → served without re-running
//	              ├ disk hit → file read once and hashed; decoded only
//	              │            if no strict load has passed its bytes;
//	              │            the key enters the LRU either way
//	              └ miss → core.Analyze under the job's context,
//	                       persisted via profio.SaveFile (atomic)
//
//	GET ?view=profile ── Store.File: the stored bytes, streamed
//	GET ?view=text|html ── Store.View: the view file beside the profile,
//	                       served if its digest verifies, else rendered
//	                       from Store.Get and written for the next read
//	GET diff, advise ── Store.Get: the LRU's profile, else a strict
//	                    decode of the file
//
// Concurrency contract: the worker pool is the only thing that runs
// jobs; its width bounds simultaneous core.Analyze calls. Identical
// specs share one store entry and one in-flight computation
// (store.GetOrCompute's single-flight), so a burst of duplicate
// submissions costs one run. Every job gets its own context — cancel
// (DELETE) and the per-job timeout stop a queued job before it runs and
// mark a running one canceled; sched.MapWithCtx guarantees a cancelled
// job dispatches no new work. Shutdown drains: submissions are refused
// (503), queued jobs run to completion (until the caller's deadline,
// after which their contexts are cancelled and they drain as canceled),
// and the store is flushed.
//
// Determinism: a job's profile bytes are identical to what `numaprof
// -profile` writes for the same spec, because Spec.Build is the single
// spec-to-config path and the engine is deterministic for a fixed
// config (internal/sched's contract). The store's keys address those
// bytes by canonical spec hash.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/progress"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Errors the submit path maps to HTTP statuses.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity
	// (429 Too Many Requests).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining is refusal during shutdown (503 Service Unavailable).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Options configure a Server.
type Options struct {
	// Store is required: where profiles persist.
	Store *store.Store
	// Workers bounds concurrent job executions (0: sched.Workers()).
	Workers int
	// QueueDepth bounds the accepted-but-not-running backlog
	// (0: DefaultQueueDepth). A full queue rejects with 429.
	QueueDepth int
	// JobTimeout bounds one job from submission to completion
	// (0: none). An expired job fails with a deadline error.
	JobTimeout time.Duration
	// TopVars is how many variables the text/HTML views detail
	// (0: 5, the CLI default).
	TopVars int
	// BeforeRun, when set, is called by a worker after it claims a job
	// and before the job executes. Tests use it to hold a job in the
	// running state deterministically.
	BeforeRun func(*Job)
	// Journal, when set, is the write-ahead job journal: every state
	// transition is logged before it is acknowledged, and Recover
	// replays it after a crash. nil disables durability (tests, tools).
	Journal *store.Journal
	// MaxRetries bounds retries of transiently failed runs (beyond the
	// first attempt). Negative disables retries; 0 means
	// DefaultMaxRetries.
	MaxRetries int
	// RetryBase is the first retry backoff (0: 100ms); RetryCap caps
	// the exponential growth (0: 5s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold is how many consecutive permanent failures of
	// one spec trip its circuit breaker (0: DefaultBreakerThreshold;
	// negative disables the breaker). BreakerCooldown is how long it
	// stays open (0: DefaultBreakerCooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// SnapshotEvery enables live progress streaming for single-spec
	// jobs: every N completed regions the profiler publishes a
	// progress.Snapshot to the job's event stream (SSE /events,
	// /live). 0 (the default) disables snapshots — lifecycle events
	// still stream. Streaming never changes profile bytes; cache hits
	// and sweep/advise jobs publish lifecycle events only.
	SnapshotEvery int
}

// DefaultMaxRetries is the retry bound when Options.MaxRetries is 0.
const DefaultMaxRetries = 3

// DefaultQueueDepth is the queue bound when Options.QueueDepth is 0.
const DefaultQueueDepth = 128

// Server is the numad daemon: queue, worker pool, job table, metrics.
type Server struct {
	st            *store.Store
	workers       int
	topVars       int
	timeout       time.Duration
	beforeRun     func(*Job)
	snapshotEvery int

	jl               *store.Journal
	maxRetries       int
	retryBase        time.Duration
	retryCap         time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	baseCtx    context.Context
	cancelBase context.CancelFunc

	queue       chan *Job
	workersDone chan struct{}

	mu       sync.Mutex
	draining bool
	seq      uint64
	jobs     map[string]*Job
	order    []string // submission order, for listing
	breaker  map[store.Key]*breakerEntry

	m   metrics
	log *slog.Logger
}

// New builds a Server; call Start to launch its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("server: Options.Store is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = sched.Workers()
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	top := opts.TopVars
	if top <= 0 {
		top = 5
	}
	retries := opts.MaxRetries
	switch {
	case retries == 0:
		retries = DefaultMaxRetries
	case retries < 0:
		retries = 0
	}
	retryBase := opts.RetryBase
	if retryBase <= 0 {
		retryBase = 100 * time.Millisecond
	}
	retryCap := opts.RetryCap
	if retryCap <= 0 {
		retryCap = 5 * time.Second
	}
	threshold := opts.BreakerThreshold
	switch {
	case threshold == 0:
		threshold = DefaultBreakerThreshold
	case threshold < 0:
		threshold = 0 // disabled
	}
	cooldown := opts.BreakerCooldown
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery < 0 {
		snapEvery = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		st:               opts.Store,
		workers:          workers,
		topVars:          top,
		timeout:          opts.JobTimeout,
		beforeRun:        opts.BeforeRun,
		snapshotEvery:    snapEvery,
		jl:               opts.Journal,
		maxRetries:       retries,
		retryBase:        retryBase,
		retryCap:         retryCap,
		breakerThreshold: threshold,
		breakerCooldown:  cooldown,
		baseCtx:          ctx,
		cancelBase:       cancel,
		queue:            make(chan *Job, depth),
		workersDone:      make(chan struct{}),
		jobs:             make(map[string]*Job),
		breaker:          make(map[store.Key]*breakerEntry),
		m:                newMetrics(telemetry.NewRegistry(), depth, workers),
		log:              telemetry.Logger("server"),
	}, nil
}

// Start launches the worker pool: Workers() loops dispatched as one
// sched sweep, so each worker inherits the scheduler's panic isolation.
func (s *Server) Start() {
	go func() {
		defer close(s.workersDone)
		// The pool dispatches under a background context on purpose:
		// shutdown must let workers drain the closed queue, not stop
		// them from being scheduled. Job cancellation flows through
		// each job's own context instead.
		sched.MapWithCtx(context.Background(), s.workers, s.workers,
			func(context.Context, int) (struct{}, error) {
				s.workerLoop()
				return struct{}{}, nil
			})
	}()
}

// Shutdown drains and stops the daemon: new submissions are refused,
// queued jobs run to completion, and the store is flushed. If ctx
// expires first, every outstanding job's context is cancelled and the
// backlog drains as canceled jobs instead of running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.log.Info("draining", "queued", len(s.queue))
	}
	s.mu.Unlock()
	select {
	case <-s.workersDone:
	case <-ctx.Done():
		s.log.Warn("drain deadline hit, cancelling outstanding jobs")
		s.cancelBase()
		<-s.workersDone
	}
	s.cancelBase()
	// Close every live event stream. Drained jobs already published
	// their terminal event (making this a no-op); anything still open
	// gets a terminal `shutdown` so no SSE subscriber hangs and no
	// handler goroutine leaks.
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.hub.Publish(progress.EventShutdown, nil, nil)
	}
	return s.st.Flush()
}

// Draining reports whether the daemon has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit validates a spec and enqueues a job for it. The error is
// ErrQueueFull, ErrOverloaded (deadline-aware shedding), ErrCircuitOpen
// (the spec is fast-failing), ErrDraining, or a validation error — the
// HTTP layer maps them to 429, 429, 503, 503, and 400, attaching
// Retry-After where a hint exists.
func (s *Server) Submit(spec Spec) (*Job, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	key := n.Key()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if wait, ok := s.breakerAllow(key, now); !ok {
		s.log.Warn("job fast-failed, circuit open", "key", string(key))
		return nil, withRetryAfter(ErrCircuitOpen, wait)
	}
	if late, ok := s.shedCheck(now); !ok {
		s.m.rejected.Inc()
		s.log.Warn("job shed, deadline infeasible", "key", string(key), "late_by", late.String())
		return nil, withRetryAfter(ErrOverloaded, late)
	}
	id := fmt.Sprintf("job-%06d", s.seq+1)
	base := s.baseCtx
	job := newJob(base, id, n, key, now)
	if s.timeout > 0 {
		job.armTimeout(s.timeout)
	}
	// Only submitters (all under s.mu) grow the queue, so a full check
	// here is authoritative: a concurrent dequeue can only free space.
	// Rejecting before any counter moves keeps the submitted counter
	// monotonic (no undo), and counting queued before the send keeps
	// that gauge from dipping negative when a worker races it.
	if len(s.queue) == cap(s.queue) {
		s.m.rejected.Inc()
		job.cancel()
		s.log.Warn("job rejected, queue full", "id", id, "key", string(job.key))
		return nil, withRetryAfter(ErrQueueFull, time.Second)
	}
	if err := s.enqueue(job); err != nil {
		return nil, err
	}
	s.seq++
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.log.Debug("job queued", "id", id, "workload", n.Workload, "key", string(job.key))
	return job, nil
}

// enqueue hands an accepted job to the workers; the caller holds s.mu
// and has checked that the queue has room. Write-ahead: the queued
// record is durable before the job is acknowledged, so a crash between
// the acknowledgement and the run is always recoverable, and a journal
// that cannot append refuses the job. The job then streams like any
// other: a recovered job's subscriber sees queued → running → terminal
// in order, with Recovered set on the lifecycle payloads.
func (s *Server) enqueue(job *Job) error {
	if err := s.journalAppend(job, StateQueued, "", false, true); err != nil {
		job.cancel()
		return err
	}
	s.m.submitted.Inc()
	s.m.queued.Add(1)
	job.hub.SetInstruments(s.m.streamDropped)
	job.publish(progress.EventQueued)
	_, job.queueSpan = telemetry.Start(job.ctx, "server.job_queued",
		telemetry.String("id", job.id), telemetry.String("workload", job.spec.Workload))
	s.queue <- job
	return nil
}

// JobByID looks a job up.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	return out
}

// CancelJob cancels a job by ID, keeping the gauges in step with the
// state it was in when the cancel landed.
func (s *Server) CancelJob(id string) (JobStatus, bool) {
	job, ok := s.JobByID(id)
	if !ok {
		return JobStatus{}, false
	}
	switch job.Cancel() {
	case StateQueued:
		job.queueSpan.End()
		s.m.queued.Add(-1)
		s.m.canceled.Inc()
		s.journalAppend(job, StateCanceled, "canceled", false, false)
		job.publish(progress.EventCanceled)
		s.log.Info("job canceled while queued", "id", id)
	case StateRunning:
		s.m.running.Add(-1)
		s.m.canceled.Inc()
		s.journalAppend(job, StateCanceled, "canceled", false, false)
		job.publish(progress.EventCanceled)
		s.log.Info("job canceled while running", "id", id)
	}
	return job.Status(), true
}

// Metrics snapshots the daemon's instruments: the body GET /metrics
// serves.
func (s *Server) Metrics() telemetry.RegistrySnapshot {
	return s.m.snapshot(s.st.Stats())
}

// workerLoop drains the queue until it is closed and empty.
func (s *Server) workerLoop() {
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one dequeued job through the store, retrying
// transient failures with capped exponential backoff. The worker holds
// the job across the whole retry schedule (a retrying job is still
// "running" to the API), and each attempt is journaled so a crash
// resumes the flaky schedule where it stopped.
func (s *Server) runJob(job *Job) {
	started := time.Now()
	s.m.queueWait.Observe(started.Sub(job.submitted))
	if !job.begin(started) {
		return // cancelled while queued; gauges and span moved by CancelJob
	}
	job.queueSpan.End()
	s.m.queued.Add(-1)
	s.m.running.Add(1)
	// The hub drops this if a cancel already published its terminal
	// event — a subscriber never sees running after canceled.
	job.publish(progress.EventRunning)
	s.log.Debug("job running", "id", job.id, "workload", job.spec.Workload)
	if h := s.beforeRun; h != nil {
		h(job)
	}

	var (
		outcome  State
		errMsg   string
		cacheHit bool
		runErr   error
	)
	for {
		attempt := job.attemptNow()
		s.journalAppend(job, StateRunning, "", false, false)
		ctx, span := telemetry.Start(job.ctx, "server.job_run",
			telemetry.String("id", job.id), telemetry.String("workload", job.spec.Workload),
			telemetry.Int("attempt", attempt))
		outcome, errMsg, cacheHit, runErr = s.execute(ctx, job, attempt)
		span.Annotate(telemetry.String("outcome", string(outcome)))
		span.End()
		if outcome != StateFailed || faults.Classify(runErr) != faults.Transient ||
			attempt >= s.maxRetries || job.ctx.Err() != nil {
			break
		}
		delay := backoffDelay(s.retryBase, s.retryCap, attempt, job.id)
		s.m.retried.Inc()
		s.log.Warn("transient failure, retrying", "id", job.id,
			"attempt", attempt+1, "backoff", delay.Round(time.Millisecond).String(), "err", errMsg)
		select {
		case <-job.ctx.Done():
		case <-time.After(delay):
		}
		job.bumpAttempt()
	}
	// A cancel that won the race did its own accounting.
	if !job.settle(outcome) {
		return
	}
	s.m.running.Add(-1)
	switch outcome {
	case StateDone:
		s.m.done.Inc()
		s.breakerSuccess(job.key)
		s.log.Info("job done", "id", job.id, "workload", job.spec.Workload,
			"cache_hit", cacheHit, "elapsed", time.Since(started).Round(time.Millisecond).String())
	case StateFailed:
		s.m.failed.Inc()
		if faults.Classify(runErr) == faults.Permanent {
			s.breakerFailure(job.key)
		}
		s.log.Error("job failed", "id", job.id, "workload", job.spec.Workload, "err", errMsg)
	case StateCanceled:
		s.m.canceled.Inc()
		s.log.Info("job canceled mid-run", "id", job.id)
	}
	s.m.run.Observe(time.Since(started))
	s.m.total.Observe(time.Since(job.submitted))
	job.finish(errMsg, cacheHit, time.Now())
	s.journalAppend(job, outcome, errMsg, cacheHit, false)
	job.publish(string(outcome))
}

// execute resolves one attempt to its outcome: a store hit, a fresh
// run, a cancellation, or a failure. The raw error rides along for the
// retry policy's fault classification.
func (s *Server) execute(ctx context.Context, job *Job, attempt int) (State, string, bool, error) {
	if err := job.ctx.Err(); err != nil {
		st, msg, hit := cancelOutcome(err)
		return st, msg, hit, err
	}
	// Run-level fault injection (chaos "flaky=N"): fail the attempt
	// before any work, and before the store, so nothing is poisoned.
	if plan := job.spec.chaosPlan(); plan != nil {
		if err := plan.RunError(attempt); err != nil {
			return StateFailed, err.Error(), false, err
		}
	}
	if job.spec.Advise {
		return s.executeAdvise(ctx, job)
	}
	if job.spec.IsSweep() {
		return s.executeSweep(ctx, job)
	}
	cached, err := s.resolve(ctx, job, job.spec, job.key, true)
	switch {
	case err == nil:
		return StateDone, "", cached, nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		st, msg, hit := cancelOutcome(err)
		return st, msg, hit, err
	default:
		return StateFailed, err.Error(), false, err
	}
}

// resolve is the one path from a single-run spec to its stored profile,
// for single jobs, sweep cells and advise candidates alike. The store
// answers first (single-flight dedup, LRU, disk); on a miss it runs one
// build and core.AnalyzeCtx through the scheduler, so a panicking
// workload fails its own call without taking a worker down, and a
// cancelled context refuses to start. The store persists the result
// before resolve returns: a profile that cannot be stored is an error,
// and cached reports a store hit. resolve decodes nothing it need not:
// a caller that reads the profile gets it from Store.Get.
//
// live attaches the job's snapshot sink when SnapshotEvery is set; only
// a single-spec job passes it. Only the first computation of a key
// streams snapshots: a cache hit or dedup-waiting duplicate streams
// lifecycle events only.
func (s *Server) resolve(ctx context.Context, job *Job, spec Spec, key store.Key, live bool) (bool, error) {
	return s.st.GetOrCompute(ctx, key, func() (*core.Profile, error) {
		// The cell closure below escapes; copying the spec here keeps
		// a store hit from moving it to the heap.
		spec := spec
		res, err := sched.MapWithCtx(ctx, 1, 1, func(cellCtx context.Context, _ int) (*core.Profile, error) {
			_, buildDone := telemetry.Timed(cellCtx, "pipeline.build_config",
				telemetry.String("workload", spec.Workload))
			cfg, app, err := spec.Build()
			buildDone()
			if err != nil {
				return nil, err
			}
			// Live streaming is a server option, never a Spec field:
			// the store key and the profile bytes stay identical with
			// or without it.
			if live && s.snapshotEvery > 0 {
				cfg.SnapshotEvery = s.snapshotEvery
				cfg.SnapshotTopK = s.topVars
				cfg.OnSnapshot = func(snap progress.Snapshot) {
					s.m.streamSnapshots.Inc()
					job.hub.Publish(progress.EventSnapshot, &snap, nil)
				}
			}
			return core.AnalyzeCtx(cellCtx, cfg, app)
		})
		if err != nil {
			if sweep, ok := sched.AsSweep(err); ok && len(sweep.Cells) > 0 {
				return nil, sweep.Cells[0].Err
			}
			return nil, err
		}
		return res[0], nil
	})
}

// runCell resolves cell i of a sweep or advise job. The cell turns
// running, gets its profile stored through resolve, and ends failed or
// done; a profile that came back cached counts as replayed, a computed
// one as recomputed. track is false on the view path's recompute, which
// must not touch a terminal job's cell table.
func (s *Server) runCell(ctx context.Context, job *Job, i int, spec Spec, key store.Key, track bool) (bool, error) {
	if track {
		job.setCell(i, StateRunning, "")
	}
	cached, err := s.resolve(ctx, job, spec, key, false)
	if err != nil {
		if track {
			job.setCell(i, StateFailed, err.Error())
		}
		return false, err
	}
	if cached {
		s.m.cellsReplayed.Inc()
	} else {
		s.m.cellsRecomputed.Inc()
	}
	if track {
		job.setCell(i, StateDone, "")
	}
	return cached, nil
}

// cancelOutcome distinguishes an explicit cancel from a timeout.
func cancelOutcome(err error) (State, string, bool) {
	if errors.Is(err, context.DeadlineExceeded) {
		return StateFailed, "job deadline exceeded", false
	}
	return StateCanceled, "canceled", false
}
