package server

import (
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// metrics is the daemon's counter block, registered on the server's own
// telemetry.Registry; /metrics serves that registry merged with the
// process-wide telemetry.Default. Gauges (queued, running) move both
// ways; everything else is monotonic.
type metrics struct {
	start  time.Time
	reg    *telemetry.Registry
	uptime *telemetry.Gauge // whole seconds, set at snapshot time

	submitted *telemetry.Counter
	done      *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	rejected  *telemetry.Counter // 429s: full queue and shed jobs
	queued    *telemetry.Gauge
	running   *telemetry.Gauge

	// Durability and recovery instruments.
	recovered        *telemetry.Counter // jobs re-enqueued from the journal
	shed             *telemetry.Counter // deadline-infeasible rejections
	breakerTrips     *telemetry.Counter // breaker open transitions
	breakerFastFails *telemetry.Counter // submissions refused while open
	cellsReplayed    *telemetry.Counter // sweep/advise cells served from the store
	cellsRecomputed  *telemetry.Counter // sweep/advise cells computed and stored

	// Optimizer instruments: advise endpoint traffic, remedies actually
	// re-run, and per-candidate rerun latency.
	adviseRequests  *telemetry.Counter
	adviseDone      *telemetry.Counter
	remediesApplied *telemetry.Counter

	// Live-streaming instruments: SSE subscribers currently attached,
	// events written to streams, events lost to slow consumers
	// (drop-oldest), and snapshots published by running profiles.
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

// newMetrics registers every job-lifecycle instrument on reg up front,
// so each name is in the first scrape, and records the queue capacity
// and worker count. The registry is per-Server, so concurrent servers
// (tests) never share counters; process-wide families (sched_*,
// pipeline_*) live on telemetry.Default and are merged in at snapshot
// time.
func newMetrics(reg *telemetry.Registry, capacity, workers int) metrics {
	reg.Gauge("jobs_queue_capacity").Set(int64(capacity))
	reg.Gauge("jobs_workers").Set(int64(workers))
	return metrics{
		start:     time.Now(),
		reg:       reg,
		uptime:    reg.Gauge("uptime_seconds"),
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
	m.reg.Counter("store_view_hits_total").Set(st.ViewHits)
	m.reg.Counter("store_view_renders_total").Set(st.ViewRenders)
}

// snapshot is what GET /metrics serves: telemetry.Default merged with
// this server's registry, after the store stats and the uptime are
// copied in. Default goes first, so a per-server instrument shadowing
// a global one wins in this server's own exposition.
func (m *metrics) snapshot(st store.Stats) telemetry.RegistrySnapshot {
	m.mirrorStore(st)
	m.uptime.Set(int64(time.Since(m.start) / time.Second))
	return telemetry.Default.Snapshot().Merge(m.reg.Snapshot())
}
