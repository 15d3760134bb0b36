// Package progress is the live-profiling observability layer: immutable
// snapshots of a run's in-flight aggregates and derived metric
// estimates, published through a per-job Hub to any number of
// subscribers with bounded buffers and drop-oldest backpressure.
//
// The core profiler captures a Snapshot every N completed regions
// ("epochs") and hands it to a sink; the numad server publishes it —
// together with job lifecycle transitions — through the job's Hub, and
// the SSE endpoint fans events out to HTTP subscribers. The Hub also
// enforces the lifecycle ordering contract a mid-stream subscriber
// relies on: states only move forward (queued → running → terminal),
// and nothing is published after a terminal event.
//
// Everything here is observational: capturing and publishing snapshots
// never changes the profile's bytes, and a hub with no subscribers
// costs two branch checks per publish.
package progress

import (
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// VarEstimate is one hot variable's in-flight data-centric estimate:
// the live analog of core.VarProfile's headline columns.
type VarEstimate struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Samples float64 `json:"samples"`
	Ml      float64 `json:"ml"`
	Mr      float64 `json:"mr"`
	// MrShare is this variable's share of total M_r so far;
	// RemoteLatShare its share of the sampled remote latency.
	MrShare        float64 `json:"mr_share"`
	RemoteLatShare float64 `json:"remote_lat_share"`
	// LPI is the variable's remote latency per sampled access.
	LPI float64 `json:"lpi"`
}

// Snapshot is one immutable point-in-time estimate of a run's derived
// NUMA metrics, captured from the in-progress CCT aggregates. Field
// semantics match core.Totals; values are estimates over the samples
// collected so far, except on the Final snapshot, which mirrors the
// completed profile's Totals exactly.
type Snapshot struct {
	// Seq numbers snapshots within one run, from 1. Epoch is the
	// completed-region count at capture time; SimTime the simulated
	// clock.
	Seq     int          `json:"seq"`
	Epoch   int          `json:"epoch"`
	SimTime units.Cycles `json:"sim_time"`
	// Final marks the snapshot built from the finished profile's
	// Totals: its estimates equal the stored profile's derived
	// metrics exactly.
	Final bool `json:"final,omitempty"`

	Samples             float64 `json:"samples"`
	SampledInstructions float64 `json:"sampled_instructions"`
	Ml                  float64 `json:"ml"`
	Mr                  float64 `json:"mr"`
	// RemoteFraction is M_r / (M_l + M_r); Imbalance is max/mean of
	// PerDomain (per-domain request concentration).
	RemoteFraction float64   `json:"remote_fraction"`
	Imbalance      float64   `json:"imbalance"`
	PerDomain      []float64 `json:"per_domain,omitempty"`

	// LPI is the lpi_NUMA estimate by the mechanism's estimator over
	// the usable window so far; LPIValid is false when the mechanism
	// has no estimator or too few samples reached it (LPI is then 0,
	// never NaN — snapshots must marshal to JSON).
	LPI      float64 `json:"lpi"`
	LPIValid bool    `json:"lpi_valid"`

	// TopVars holds the hottest variables by sampled remote latency.
	TopVars []VarEstimate `json:"top_vars,omitempty"`

	// Convergence verdict (stamped by a Detector): the estimates'
	// relative change stayed under epsilon for Confidence×Window
	// consecutive snapshots; Converged once the full window held.
	Converged  bool    `json:"converged"`
	Confidence float64 `json:"confidence"`
}

// Event types carried by a Hub: job lifecycle transitions, progress
// snapshots, and the drain-time close marker. Lifecycle types mirror
// server job states by design — the stream is the job's state machine
// made observable.
const (
	EventQueued   = "queued"
	EventRunning  = "running"
	EventSnapshot = "snapshot"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
	// EventShutdown closes every live stream when the daemon drains:
	// terminal for the stream, not for the job.
	EventShutdown = "shutdown"
)

// TerminalEvent reports whether typ ends a stream.
func TerminalEvent(typ string) bool {
	switch typ {
	case EventDone, EventFailed, EventCanceled, EventShutdown:
		return true
	}
	return false
}

// rank orders lifecycle types so the hub can refuse regressions:
// queued < running < terminal. Snapshots do not move the rank.
func rank(typ string) int {
	switch typ {
	case EventQueued:
		return 0
	case EventRunning:
		return 1
	}
	if TerminalEvent(typ) {
		return 2
	}
	return 1
}

// Event is one entry in a job's stream: a lifecycle transition (Job
// carries the job's wire status) or a progress snapshot. IDs are
// monotonic per hub and double as SSE event IDs for Last-Event-ID
// resume. Every event carries the latest convergence verdict.
type Event struct {
	ID       uint64    `json:"id"`
	Type     string    `json:"type"`
	Job      any       `json:"job,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`

	Converged  bool    `json:"converged"`
	Confidence float64 `json:"confidence"`

	// At is the wall-clock publish time, for snapshot-latency
	// telemetry only; it never reaches the wire (determinism: no
	// wall-clock state in anything byte-compared).
	At time.Time `json:"-"`
}

// DefaultSubscriberBuffer is a Subscription's channel bound when the
// caller passes 0.
const DefaultSubscriberBuffer = 64

// Subscription is one subscriber's bounded view of a hub's stream.
type Subscription struct {
	hub    *Hub
	ch     chan Event
	closed bool // guarded by hub.mu
}

// C is the event channel; it closes after a terminal event (or hub
// close), so ranging over it ends with the stream.
func (s *Subscription) C() <-chan Event { return s.ch }

// Close detaches the subscription. Safe to call after the hub already
// closed the channel, and more than once.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(h.subs, s)
		close(s.ch)
	}
	h.mu.Unlock()
}

// Hub fans a job's event stream out to subscribers. Publishes never
// block: a subscriber that cannot keep up loses its oldest buffered
// events first (drop-oldest), counted per subscription and on the
// optional dropped counter. The hub retains the latest lifecycle event
// and the latest snapshot for replay, so a new or resuming subscriber
// (Last-Event-ID) starts from the current truth instead of nothing.
type Hub struct {
	mu      sync.Mutex
	nextID  uint64
	subs    map[*Subscription]struct{}
	machine int // highest lifecycle rank seen

	terminal  bool
	lastState *Event
	lastSnap  *Event

	converged  bool
	confidence float64

	dropped *telemetry.Counter // nil-safe
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Subscription]struct{})}
}

// SetInstruments attaches the drop counter (stream_events_dropped_total
// on the daemon). The nil counter is a valid no-op.
func (h *Hub) SetInstruments(dropped *telemetry.Counter) {
	h.mu.Lock()
	h.dropped = dropped
	h.mu.Unlock()
}

// Publish appends one event to the stream and fans it out. It reports
// whether the event was accepted: publishes after a terminal event are
// dropped, as are lifecycle regressions (a "running" that raced a
// "done" — the monotonic-state contract mid-stream subscribers rely
// on). A terminal event closes every subscription after delivery.
func (h *Hub) Publish(typ string, snap *Snapshot, job any) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.terminal {
		return false
	}
	if typ == EventSnapshot {
		if snap == nil {
			return false
		}
	} else {
		r := rank(typ)
		if r < h.machine {
			return false
		}
		h.machine = r
	}
	h.nextID++
	ev := Event{ID: h.nextID, Type: typ, Job: job, Snapshot: snap, At: time.Now()}
	if snap != nil {
		h.converged, h.confidence = snap.Converged, snap.Confidence
	}
	ev.Converged, ev.Confidence = h.converged, h.confidence
	if typ == EventSnapshot {
		h.lastSnap = &ev
	} else {
		h.lastState = &ev
	}
	for sub := range h.subs {
		h.send(sub, ev)
	}
	if TerminalEvent(typ) {
		h.terminal = true
		for sub := range h.subs {
			sub.closed = true
			close(sub.ch)
			delete(h.subs, sub)
		}
	}
	return true
}

// send delivers ev to one subscriber, dropping the oldest buffered
// event when the channel is full. Called under h.mu, so sends are
// serialized; the subscriber may be receiving concurrently, which the
// non-blocking selects tolerate.
func (h *Hub) send(sub *Subscription, ev Event) {
	select {
	case sub.ch <- ev:
		return
	default:
	}
	select {
	case <-sub.ch:
		h.dropped.Inc()
	default:
	}
	select {
	case sub.ch <- ev:
	default:
		// Still full: the subscriber raced a refill; drop the new
		// event instead.
		h.dropped.Inc()
	}
}

// Subscribe attaches a new subscriber with a buffer of buf events (0:
// DefaultSubscriberBuffer). It returns the replay prefix — the latest
// snapshot and latest lifecycle event with IDs past lastID, in ID
// order — and the live subscription, atomically: every event is either
// in the replay or delivered on the channel, never both or neither.
// On an already-terminal hub the channel comes back closed and
// unbuffered, since nothing more can arrive: the replay (ending in the
// terminal event) is the whole stream.
func (h *Hub) Subscribe(lastID uint64, buf int) ([]Event, *Subscription) {
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var replay []Event
	if h.lastSnap != nil && h.lastSnap.ID > lastID {
		replay = append(replay, *h.lastSnap)
	}
	if h.lastState != nil && h.lastState.ID > lastID {
		replay = append(replay, *h.lastState)
	}
	if len(replay) == 2 && replay[0].ID > replay[1].ID {
		replay[0], replay[1] = replay[1], replay[0]
	}
	sub := &Subscription{hub: h}
	if h.terminal {
		sub.ch = make(chan Event)
		sub.closed = true
		close(sub.ch)
	} else {
		sub.ch = make(chan Event, buf)
		h.subs[sub] = struct{}{}
	}
	return replay, sub
}

// LatestSnapshot returns a copy of the most recent snapshot, or nil if
// none was published.
func (h *Hub) LatestSnapshot() *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastSnap == nil {
		return nil
	}
	s := *h.lastSnap.Snapshot
	return &s
}
