package progress

import (
	"testing"

	"repro/internal/telemetry"
)

func drain(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	var evs []Event
	for ev := range sub.C() {
		evs = append(evs, ev)
	}
	return evs
}

func snap(seq, epoch int, samples float64) *Snapshot {
	return &Snapshot{Seq: seq, Epoch: epoch, Samples: samples}
}

func TestHubLifecycleAndTerminalClose(t *testing.T) {
	h := NewHub()
	_, sub := h.Subscribe(0, 8)
	if !h.Publish(EventQueued, nil, nil) {
		t.Fatal("queued publish refused")
	}
	if !h.Publish(EventRunning, nil, nil) {
		t.Fatal("running publish refused")
	}
	if !h.Publish(EventSnapshot, snap(1, 2, 10), nil) {
		t.Fatal("snapshot publish refused")
	}
	if !h.Publish(EventDone, nil, nil) {
		t.Fatal("done publish refused")
	}
	evs := drain(t, sub)
	want := []string{EventQueued, EventRunning, EventSnapshot, EventDone}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Type != want[i] {
			t.Errorf("event %d: type %q, want %q", i, ev.Type, want[i])
		}
		if i > 0 && evs[i].ID <= evs[i-1].ID {
			t.Errorf("event %d: id %d not increasing past %d", i, ev.ID, evs[i-1].ID)
		}
	}
	if !h.terminal {
		t.Error("hub not terminal after done")
	}
	// The channel is closed; Close must still be safe.
	sub.Close()
	sub.Close()
}

// A subscriber to a finished stream gets the replay and a closed,
// unbuffered channel: nothing more can arrive, so no buffer is made.
func TestHubTerminalSubscribeHasNoBuffer(t *testing.T) {
	h := NewHub()
	h.Publish(EventQueued, nil, nil)
	h.Publish(EventDone, nil, nil)
	replay, sub := h.Subscribe(0, 0)
	if len(replay) != 1 || replay[0].Type != EventDone {
		t.Fatalf("replay = %+v, want the done event", replay)
	}
	if c := cap(sub.C()); c != 0 {
		t.Fatalf("terminal subscription buffers %d events, want 0", c)
	}
	if _, open := <-sub.C(); open {
		t.Fatal("terminal subscription channel is open")
	}
	sub.Close()
}

func TestHubRefusesLifecycleRegression(t *testing.T) {
	h := NewHub()
	_, sub := h.Subscribe(0, 8)
	h.Publish(EventQueued, nil, nil)
	h.Publish(EventRunning, nil, nil)
	// A retry attempt or racing worker must not rewind the state
	// machine.
	if h.Publish(EventQueued, nil, nil) {
		t.Error("queued accepted after running")
	}
	h.Publish(EventCanceled, nil, nil)
	// Nothing after a terminal event — the satellite regression: no
	// `running` after `done`/`canceled`.
	if h.Publish(EventRunning, nil, nil) {
		t.Error("running accepted after canceled")
	}
	if h.Publish(EventSnapshot, snap(1, 1, 5), nil) {
		t.Error("snapshot accepted after canceled")
	}
	if h.Publish(EventDone, nil, nil) {
		t.Error("second terminal accepted")
	}
	evs := drain(t, sub)
	want := []string{EventQueued, EventRunning, EventCanceled}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Type != want[i] {
			t.Errorf("event %d: type %q, want %q", i, ev.Type, want[i])
		}
	}
}

func TestHubDropOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	dropped := reg.Counter("stream_events_dropped_total")
	h := NewHub()
	h.SetInstruments(dropped)
	_, sub := h.Subscribe(0, 2)
	h.Publish(EventRunning, nil, nil)
	for i := 1; i <= 5; i++ {
		h.Publish(EventSnapshot, snap(i, i, float64(i)), nil)
	}
	h.Publish(EventDone, nil, nil)
	evs := drain(t, sub)
	// Buffer of 2 cannot hold 7 events; the oldest were dropped and
	// the terminal event survived.
	if len(evs) == 0 || evs[len(evs)-1].Type != EventDone {
		t.Fatalf("stream must end with done, got %+v", evs)
	}
	if dropped.Value() == 0 {
		t.Error("expected drops on a full buffer")
	}
	// Snapshots that did arrive are in order.
	last := 0
	for _, ev := range evs {
		if ev.Snapshot == nil {
			continue
		}
		if ev.Snapshot.Seq <= last {
			t.Errorf("snapshot seq %d after %d", ev.Snapshot.Seq, last)
		}
		last = ev.Snapshot.Seq
	}
}

func TestHubReplayAndResume(t *testing.T) {
	h := NewHub()
	h.Publish(EventQueued, nil, nil)
	h.Publish(EventRunning, nil, nil)
	h.Publish(EventSnapshot, snap(1, 1, 5), nil)
	h.Publish(EventSnapshot, snap(2, 2, 9), nil)

	// Fresh subscriber: latest snapshot + latest lifecycle, ID order.
	replay, sub := h.Subscribe(0, 4)
	defer sub.Close()
	if len(replay) != 2 {
		t.Fatalf("replay %d events, want 2", len(replay))
	}
	if replay[0].ID >= replay[1].ID {
		t.Errorf("replay out of ID order: %d, %d", replay[0].ID, replay[1].ID)
	}
	var sawRunning, sawSnap2 bool
	for _, ev := range replay {
		if ev.Type == EventRunning {
			sawRunning = true
		}
		if ev.Snapshot != nil && ev.Snapshot.Seq == 2 {
			sawSnap2 = true
		}
	}
	if !sawRunning || !sawSnap2 {
		t.Errorf("replay missing state or latest snapshot: %+v", replay)
	}

	// Resume past everything: empty replay.
	lastID := replay[1].ID
	replay2, sub2 := h.Subscribe(lastID, 4)
	defer sub2.Close()
	if len(replay2) != 0 {
		t.Errorf("resume replayed %d events, want 0", len(replay2))
	}

	// Terminal hub: replay ends in the terminal event, channel closed.
	h.Publish(EventDone, nil, nil)
	replay3, sub3 := h.Subscribe(0, 4)
	if len(replay3) == 0 || replay3[len(replay3)-1].Type != EventDone {
		t.Fatalf("terminal replay must end in done: %+v", replay3)
	}
	if _, ok := <-sub3.C(); ok {
		t.Error("terminal subscription channel not closed")
	}
	sub3.Close()
}

func TestHubShutdownEvent(t *testing.T) {
	h := NewHub()
	_, sub := h.Subscribe(0, 4)
	h.Publish(EventRunning, nil, nil)
	if !h.Publish(EventShutdown, nil, nil) {
		t.Fatal("shutdown publish refused")
	}
	// Idempotent: a second drain attempt is a no-op.
	if h.Publish(EventShutdown, nil, nil) {
		t.Error("second shutdown accepted")
	}
	evs := drain(t, sub)
	if len(evs) != 2 || evs[1].Type != EventShutdown {
		t.Fatalf("want [running shutdown], got %+v", evs)
	}
}

func TestHubLatestSnapshot(t *testing.T) {
	h := NewHub()
	if h.LatestSnapshot() != nil {
		t.Fatal("empty hub has a snapshot")
	}
	h.Publish(EventSnapshot, snap(1, 3, 7), nil)
	s := h.LatestSnapshot()
	if s == nil || s.Epoch != 3 {
		t.Fatalf("latest snapshot = %+v", s)
	}
	// The copy is the caller's: mutating it must not leak back.
	s.Epoch = 99
	if got := h.LatestSnapshot(); got.Epoch != 3 {
		t.Errorf("hub snapshot mutated through copy: epoch %d", got.Epoch)
	}
}

func TestHubEventsCarryConvergence(t *testing.T) {
	h := NewHub()
	_, sub := h.Subscribe(0, 8)
	s := snap(1, 1, 4)
	s.Converged = true
	s.Confidence = 1
	h.Publish(EventSnapshot, s, nil)
	h.Publish(EventDone, nil, nil)
	evs := drain(t, sub)
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if !ev.Converged || ev.Confidence != 1 {
			t.Errorf("event %d lost convergence verdict: %+v", i, ev)
		}
	}
}
