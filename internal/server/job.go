package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/progress"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// State is a job's lifecycle stage.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing (or dedup-waiting on) it.
	StateRunning State = "running"
	// StateDone: the profile is in the store.
	StateDone State = "done"
	// StateFailed: the run errored; Error carries the cause.
	StateFailed State = "failed"
	// StateCanceled: cancelled before it could finish. A cancel that
	// loses the race with completion leaves the job done — the result
	// was already paid for and stored.
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted profiling run.
type Job struct {
	id   string
	spec Spec // normalized
	key  store.Key

	// cancel aborts the job's context; workers check it between
	// stages, and sched.MapWithCtx refuses to dispatch under it once
	// cancelled.
	ctx    context.Context
	cancel context.CancelFunc

	// queueSpan times the queued → running transition (nil when
	// tracing is disabled). The worker that claims the job ends it;
	// a cancel while still queued ends it too.
	queueSpan *telemetry.Span

	// hub is the job's live event stream: lifecycle transitions and
	// progress snapshots, fanned out to SSE subscribers. The hub
	// enforces monotonic lifecycle ordering, so racing publishers
	// (worker vs. cancel) cannot show a subscriber a rewound state.
	hub *progress.Hub

	mu        sync.Mutex
	state     State
	settled   State // outcome claimed by settle, not yet published by finish
	err       string
	cacheHit  bool
	recovered bool         // re-enqueued from the journal after a restart
	cells     []CellStatus // per-cell progress of a sweep job
	advice    []byte       // advise job's marshaled advisor.Report
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{} // closed on any terminal state
}

func newJob(base context.Context, id string, spec Spec, key store.Key, now time.Time) *Job {
	ctx, cancel := context.WithCancel(base)
	return &Job{
		id:        id,
		spec:      spec,
		key:       key,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
		hub:       progress.NewHub(),
	}
}

// newTerminalJob rebuilds a journal-recovered job that already reached
// a terminal state in a previous process, so the API keeps answering
// for it after a restart. Its context is pre-cancelled and its done
// channel closed: no worker will ever touch it. cells is its cell
// table, nil when the journal cannot tell the cells' states.
func newTerminalJob(id string, spec Spec, key store.Key, st State, errMsg string, cacheHit bool, cells []CellStatus, now time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		id:        id,
		spec:      spec,
		key:       key,
		ctx:       ctx,
		cancel:    cancel,
		state:     st,
		err:       errMsg,
		cacheHit:  cacheHit,
		cells:     cells,
		recovered: true,
		submitted: now,
		finished:  now,
		done:      make(chan struct{}),
		hub:       progress.NewHub(),
	}
	close(j.done)
	// A recovered terminal job's stream is just its terminal event —
	// a subscriber that reconnects after a daemon restart still gets a
	// clean, ordered close instead of a hang.
	j.hub.Publish(string(st), nil, j.Status())
	return j
}

// Events subscribes to the job's live event stream, resuming past
// lastID (0 for the full replay).
func (j *Job) Events(lastID uint64, buf int) ([]progress.Event, *progress.Subscription) {
	return j.hub.Subscribe(lastID, buf)
}

// publish appends one lifecycle event (with the job's wire status) to
// the stream.
func (j *Job) publish(typ string) {
	j.hub.Publish(typ, nil, j.Status())
}

// markRecovered tags a re-enqueued job.
func (j *Job) markRecovered() {
	j.mu.Lock()
	j.recovered = true
	j.mu.Unlock()
}

// setCells installs the sweep's cell table (called once, when the sweep
// starts executing).
func (j *Job) setCells(cells []CellStatus) {
	j.mu.Lock()
	j.cells = cells
	j.mu.Unlock()
}

// setAdvice caches an advise job's finished report (canonical JSON).
// The cache is a convenience, not the durability story: every input to
// the report is content-addressed in the store, so a restarted daemon
// recomputes identical bytes on demand (see adviceReport).
func (j *Job) setAdvice(b []byte) {
	j.mu.Lock()
	j.advice = b
	j.mu.Unlock()
}

// adviceNow reads the cached advice report, nil when absent.
func (j *Job) adviceNow() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.advice
}

// setCell updates one cell's state as the sweep progresses.
func (j *Job) setCell(i int, st State, errMsg string) {
	j.mu.Lock()
	if i >= 0 && i < len(j.cells) {
		j.cells[i].State = st
		j.cells[i].Error = errMsg
	}
	j.mu.Unlock()
}

// armTimeout replaces the job's context with a deadline-bound child:
// the clock runs from submission, so a job stuck in the queue can
// expire before it ever runs.
func (j *Job) armTimeout(d time.Duration) {
	parent := j.ctx
	parentCancel := j.cancel
	ctx, cancel := context.WithTimeout(parent, d)
	j.ctx = ctx
	j.cancel = func() {
		cancel()
		parentCancel()
	}
}

// Cancel requests cancellation. It wins against queued and running
// jobs; against an already-terminal job, or one whose worker has
// settled its outcome, it is a no-op. It returns the state the job was
// in when the cancel landed, the settled outcome for a settled job.
func (j *Job) Cancel() State {
	j.mu.Lock()
	prev := j.state
	if j.settled != "" {
		prev = j.settled
	} else if !j.state.Terminal() {
		j.state = StateCanceled
		j.err = "canceled"
		j.finished = time.Now()
		close(j.done)
	}
	j.mu.Unlock()
	j.cancel()
	return prev
}

// begin moves queued → running; it reports false when the job was
// cancelled first (the worker must skip it).
func (j *Job) begin(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// settle claims the terminal transition for a run's outcome, reporting
// whether it won. A cancel that landed while the run was in flight
// keeps the canceled state (and its gauge accounting); the result, if
// any, is still in the store for the next submission. Once settle wins,
// the worker records the outcome's counters, breaker state and
// latencies, then calls finish to make the job terminal, so whoever
// sees the job terminal sees that bookkeeping too. In between, the job
// reads as running and a cancel no longer wins against it.
func (j *Job) settle(outcome State) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.settled != "" {
		return false
	}
	j.settled = outcome
	return true
}

// finish publishes the outcome settle claimed: the job turns terminal
// and Done closes.
func (j *Job) finish(errMsg string, cacheHit bool, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = j.settled
	j.settled = ""
	j.err = errMsg
	j.cacheHit = cacheHit
	j.finished = now
	close(j.done)
}

// CellStatus is one sweep cell's progress in JobStatus. Key addresses
// the cell's own profile in the store (the sweep job's Key identifies
// the sweep, not any stored bytes).
type CellStatus struct {
	Index    int       `json:"index"`
	Workload string    `json:"workload"`
	Strategy string    `json:"strategy"`
	Key      store.Key `json:"key"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
}

// JobStatus is the wire form of a job, shared by the daemon's handlers
// and the Go client.
type JobStatus struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Key      store.Key `json:"key"`
	Spec     Spec      `json:"spec"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Recovered marks a job replayed from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Cells is the per-cell progress of a sweep job (absent otherwise).
	Cells []CellStatus `json:"cells,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	var cells []CellStatus
	if len(j.cells) > 0 {
		cells = append(cells, j.cells...)
	}
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Key:         j.key,
		Spec:        j.spec,
		CacheHit:    j.cacheHit,
		Error:       j.err,
		Recovered:   j.recovered,
		Cells:       cells,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}
