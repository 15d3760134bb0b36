package server

import (
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// HistogramSnapshot is the wire form of a latency histogram — the
// telemetry layer's, re-exported so the /metrics JSON contract keeps
// its type name. Buckets[i] counts observations in [2^(i-1), 2^i)
// microseconds (Buckets[0]: < 1µs); the last bucket is open-ended.
type HistogramSnapshot = telemetry.HistogramSnapshot

// metrics is the daemon's counter block, registered on the server's own
// telemetry.Registry so /metrics can expose the raw instruments next to
// the legacy snapshot shape. Gauges (queued, running) move both ways;
// everything else is monotonic.
type metrics struct {
	start time.Time
	reg   *telemetry.Registry

	submitted *telemetry.Counter
	done      *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	rejected  *telemetry.Counter // 429s: full queue and shed jobs
	queued    *telemetry.Gauge
	running   *telemetry.Gauge

	// Durability + recovery instruments (PR 6).
	recovered        *telemetry.Counter // jobs re-enqueued from the journal
	retried          *telemetry.Counter // transient-failure retry attempts
	shed             *telemetry.Counter // deadline-infeasible rejections
	breakerTrips     *telemetry.Counter // breaker open transitions
	breakerFastFails *telemetry.Counter // submissions refused while open
	cellsReplayed    *telemetry.Counter // sweep cells served from checkpoint
	cellsRecomputed  *telemetry.Counter // sweep cells computed and saved

	// Optimizer instruments (PR 8): advise endpoint traffic, remedies
	// actually re-run, and per-candidate rerun latency.
	adviseRequests  *telemetry.Counter
	adviseDone      *telemetry.Counter
	remediesApplied *telemetry.Counter

	// Live-streaming instruments (PR 9): SSE subscribers currently
	// attached, events written to streams, events lost to slow
	// consumers (drop-oldest), and snapshots published by running
	// profiles.
	streamSubscribers *telemetry.Gauge
	streamEvents      *telemetry.Counter
	streamDropped     *telemetry.Counter
	streamSnapshots   *telemetry.Counter

	queueWait *telemetry.Histogram // submit → dequeue
	run       *telemetry.Histogram // dequeue → result (compute or cache)
	total     *telemetry.Histogram // submit → terminal state
	rerun     *telemetry.Histogram // one advise candidate re-run
	snapLat   *telemetry.Histogram // snapshot publish → SSE write
}

// newMetrics registers the job-lifecycle instruments on reg. The
// registry is per-Server, so concurrent servers (tests) never share
// counters; process-wide families (sched_*, pipeline_*) live on
// telemetry.Default and are merged in at snapshot time.
func newMetrics(reg *telemetry.Registry) metrics {
	return metrics{
		start:     time.Now(),
		reg:       reg,
		submitted: reg.Counter("jobs_submitted_total"),
		done:      reg.Counter("jobs_done_total"),
		failed:    reg.Counter("jobs_failed_total"),
		canceled:  reg.Counter("jobs_canceled_total"),
		rejected:  reg.Counter("jobs_rejected_total"),
		queued:    reg.Gauge("jobs_queued"),
		running:   reg.Gauge("jobs_running"),
		queueWait: reg.Histogram("job_queue_wait"),
		run:       reg.Histogram("job_run"),
		total:     reg.Histogram("job_total"),

		recovered:        reg.Counter("jobs_recovered_total"),
		retried:          reg.Counter("jobs_retried_total"),
		shed:             reg.Counter("jobs_shed_total"),
		breakerTrips:     reg.Counter("jobs_breaker_trips_total"),
		breakerFastFails: reg.Counter("jobs_breaker_fastfails_total"),
		cellsReplayed:    reg.Counter("jobs_cells_replayed_total"),
		cellsRecomputed:  reg.Counter("jobs_cells_recomputed_total"),

		adviseRequests:  reg.Counter("jobs_advise_requests_total"),
		adviseDone:      reg.Counter("jobs_advise_done_total"),
		remediesApplied: reg.Counter("jobs_remedies_applied_total"),
		rerun:           reg.Histogram("job_advise_rerun"),

		streamSubscribers: reg.Gauge("stream_subscribers"),
		streamEvents:      reg.Counter("stream_events_total"),
		streamDropped:     reg.Counter("stream_events_dropped_total"),
		streamSnapshots:   reg.Counter("stream_snapshots_total"),
		snapLat:           reg.Histogram("stream_snapshot_latency"),
	}
}

// JobCounts is the job block of MetricsSnapshot.
type JobCounts struct {
	Submitted int64 `json:"submitted"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
}

// QueueInfo is the queue block of MetricsSnapshot.
type QueueInfo struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
}

// RecoveryInfo is the durability block of MetricsSnapshot: journal
// replay, retry, breaker, shedding, and sweep-checkpoint counters.
type RecoveryInfo struct {
	Recovered        uint64 `json:"recovered"`
	Retried          uint64 `json:"retried"`
	Shed             uint64 `json:"shed"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	CellsReplayed    uint64 `json:"cells_replayed"`
	CellsRecomputed  uint64 `json:"cells_recomputed"`
}

// AdvisorInfo is the optimizer block of MetricsSnapshot.
type AdvisorInfo struct {
	Requests        uint64 `json:"requests"`
	Done            uint64 `json:"done"`
	RemediesApplied uint64 `json:"remedies_applied"`
}

// StreamingInfo is the live-streaming block of MetricsSnapshot.
type StreamingInfo struct {
	Subscribers int64  `json:"subscribers"`
	Events      uint64 `json:"events"`
	Dropped     uint64 `json:"dropped"`
	Snapshots   uint64 `json:"snapshots"`
}

// MetricsSnapshot is what GET /metrics serves. Every pre-telemetry key
// is unchanged (scrapers keep working); Instruments is the new unified
// registry view carrying the jobs_*/job_* instruments, the mirrored
// store_* counters, and the process-wide sched_*/pipeline_*/profio_*/
// faults_* families.
type MetricsSnapshot struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	Jobs          JobCounts   `json:"jobs"`
	Queue         QueueInfo   `json:"queue"`
	Store         store.Stats `json:"store"`
	// StoreHits is Store's total cache hits (mem + disk + dedup),
	// surfaced so the acceptance check "cache-hit counter > 0" is one
	// field.
	StoreHits uint64                       `json:"store_hits"`
	LatencyUs map[string]HistogramSnapshot `json:"latency_us"`
	Recovery  RecoveryInfo                 `json:"recovery"`
	Advisor   AdvisorInfo                  `json:"advisor"`
	Streaming StreamingInfo                `json:"streaming"`

	Instruments telemetry.RegistrySnapshot `json:"instruments"`
}

// mirrorStore copies the store's per-instance Stats into the registry's
// store_* counter family, so the exposition carries hit/miss/dedup
// counters under stable instrument names. Set (not Add): the store owns
// the counting, the registry mirrors it.
func (m *metrics) mirrorStore(st store.Stats) {
	m.reg.Counter("store_mem_hits_total").Set(st.MemHits)
	m.reg.Counter("store_disk_hits_total").Set(st.DiskHits)
	m.reg.Counter("store_misses_total").Set(st.Misses)
	m.reg.Counter("store_dedup_waits_total").Set(st.DedupWaits)
	m.reg.Counter("store_saves_total").Set(st.Saves)
	m.reg.Counter("store_evictions_total").Set(st.Evictions)
	m.reg.Counter("store_corrupt_dropped_total").Set(st.CorruptDropped)
}

func (m *metrics) snapshot(st store.Stats, depth, capacity, workers int) MetricsSnapshot {
	m.mirrorStore(st)
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Jobs:          m.jobCounts(),
		Queue:         QueueInfo{Depth: depth, Capacity: capacity, Workers: workers},
		Store:         st,
		StoreHits:     st.Hits(),
		LatencyUs: map[string]HistogramSnapshot{
			"queue_wait":      m.queueWait.Snapshot(),
			"run":             m.run.Snapshot(),
			"total":           m.total.Snapshot(),
			"advise_rerun":    m.rerun.Snapshot(),
			"stream_snapshot": m.snapLat.Snapshot(),
		},
		Advisor: AdvisorInfo{
			Requests:        m.adviseRequests.Value(),
			Done:            m.adviseDone.Value(),
			RemediesApplied: m.remediesApplied.Value(),
		},
		Streaming: StreamingInfo{
			Subscribers: m.streamSubscribers.Value(),
			Events:      m.streamEvents.Value(),
			Dropped:     m.streamDropped.Value(),
			Snapshots:   m.streamSnapshots.Value(),
		},
		Recovery: RecoveryInfo{
			Recovered:        m.recovered.Value(),
			Retried:          m.retried.Value(),
			Shed:             m.shed.Value(),
			BreakerTrips:     m.breakerTrips.Value(),
			BreakerFastFails: m.breakerFastFails.Value(),
			CellsReplayed:    m.cellsReplayed.Value(),
			CellsRecomputed:  m.cellsRecomputed.Value(),
		},
		// Default first: a per-server instrument shadowing a global one
		// would win, and that is the right precedence for this server's
		// own exposition.
		Instruments: telemetry.Default.Snapshot().Merge(m.reg.Snapshot()),
	}
}

func (m *metrics) jobCounts() JobCounts {
	return JobCounts{
		Submitted: int64(m.submitted.Value()),
		Queued:    m.queued.Value(),
		Running:   m.running.Value(),
		Done:      int64(m.done.Value()),
		Failed:    int64(m.failed.Value()),
		Canceled:  int64(m.canceled.Value()),
		Rejected:  int64(m.rejected.Value()),
	}
}
