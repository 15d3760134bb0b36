// SSE endpoint and live-view tests: the httptest table of ISSUE 9's
// satellite 3 (404s, epoch-ordered mid-run snapshots, cancel, resume),
// the lifecycle-monotonicity regression for late subscribers, shutdown
// draining streams, and the client Follow loop.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/profio"
	"repro/internal/progress"
	"repro/internal/store"
)

// openStream issues a raw GET against the SSE endpoint.
func openStream(t *testing.T, ctx context.Context, base, id, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}
	return resp
}

// readStream decodes SSE data lines until the server closes the stream
// (or until stop returns true, leaving the connection open for the
// caller to continue or abandon).
func readStream(t *testing.T, body io.Reader, stop func(StreamEvent) bool) []StreamEvent {
	t.Helper()
	var evs []StreamEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		evs = append(evs, ev)
		if stop != nil && stop(ev) {
			break
		}
	}
	return evs
}

func terminalType(typ string) bool {
	return typ == progress.EventDone || typ == progress.EventFailed ||
		typ == progress.EventCanceled || typ == progress.EventShutdown
}

// checkStreamInvariants asserts the orderings every stream must keep:
// strictly increasing event IDs, monotonic lifecycle rank, nothing
// after the first terminal, and epoch/seq-ordered snapshots.
func checkStreamInvariants(t *testing.T, evs []StreamEvent) {
	t.Helper()
	rank := map[string]int{
		progress.EventQueued: 0, progress.EventRunning: 1,
		progress.EventDone: 2, progress.EventFailed: 2,
		progress.EventCanceled: 2, progress.EventShutdown: 2,
	}
	var lastID uint64
	lastRank, lastSeq, lastEpoch := -1, 0, -1
	for i, ev := range evs {
		if ev.ID <= lastID {
			t.Fatalf("event %d: id %d after %d", i, ev.ID, lastID)
		}
		lastID = ev.ID
		if i > 0 && terminalType(evs[i-1].Type) {
			t.Fatalf("event %d (%s) after terminal %s", i, ev.Type, evs[i-1].Type)
		}
		if r, ok := rank[ev.Type]; ok {
			if r < lastRank {
				t.Fatalf("event %d: lifecycle %s (rank %d) after rank %d", i, ev.Type, r, lastRank)
			}
			lastRank = r
		}
		if ev.Type == progress.EventSnapshot {
			s := ev.Snapshot
			if s == nil {
				t.Fatalf("event %d: snapshot event without payload", i)
			}
			if s.Seq <= lastSeq {
				t.Fatalf("event %d: snapshot seq %d after %d", i, s.Seq, lastSeq)
			}
			if s.Epoch < lastEpoch {
				t.Fatalf("event %d: snapshot epoch %d after %d", i, s.Epoch, lastEpoch)
			}
			lastSeq, lastEpoch = s.Seq, s.Epoch
		}
	}
}

func TestEventsUnknownJob(t *testing.T) {
	_, c := newTestServer(t, nil)
	resp, err := http.Get(c.BaseURL + "/api/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEventStreamLifecycleAndSnapshots subscribes before the job runs
// and watches the whole stream: queued → running → epoch-ordered
// snapshots → a final snapshot whose estimates equal the stored
// profile's derived metrics → done → close.
func TestEventStreamLifecycleAndSnapshots(t *testing.T) {
	release := make(chan struct{})
	s, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.SnapshotEvery = 1
		o.BeforeRun = func(j *Job) {
			select {
			case <-release:
			case <-j.ctx.Done():
			}
		}
	})
	_ = s
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	resp := openStream(t, ctx, c.BaseURL, st.ID, "")
	defer resp.Body.Close()
	close(release)

	evs := readStream(t, resp.Body, nil) // runs to server-side close
	checkStreamInvariants(t, evs)

	var snaps, finals int
	var finalSnap *progress.Snapshot
	seen := map[string]bool{}
	for _, ev := range evs {
		seen[ev.Type] = true
		if ev.Type == progress.EventSnapshot {
			snaps++
			if ev.Snapshot.Final {
				finals++
				finalSnap = ev.Snapshot
			}
		}
	}
	// Replay compacts to the latest lifecycle state, so `queued` is
	// legitimately absent when the worker claimed the job before the
	// subscription landed; `running` and `done` must both appear.
	if !seen[progress.EventRunning] || !seen[progress.EventDone] {
		t.Fatalf("missing lifecycle events; saw %v", seen)
	}
	if snaps < 2 || finals != 1 {
		t.Fatalf("got %d snapshots (%d final), want >=2 with exactly 1 final", snaps, finals)
	}
	if evs[len(evs)-1].Type != progress.EventDone {
		t.Fatalf("stream ended with %s, want done", evs[len(evs)-1].Type)
	}

	// The stream's closing estimates are the stored profile's truth.
	raw, err := c.ProfileBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profio.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if finalSnap.Samples != prof.Totals.Samples ||
		finalSnap.Ml != prof.Totals.Ml || finalSnap.Mr != prof.Totals.Mr ||
		finalSnap.RemoteFraction != prof.Totals.RemoteFraction {
		t.Fatalf("final snapshot %+v diverges from stored totals %+v", finalSnap, prof.Totals)
	}
	if finalSnap.LPIValid && finalSnap.LPI != prof.Totals.LPI {
		t.Fatalf("final snapshot lpi %v != stored %v", finalSnap.LPI, prof.Totals.LPI)
	}
}

// TestEventStreamCancelMidRun cancels a held job under an attached
// subscriber: the stream must deliver the canceled event and close.
func TestEventStreamCancelMidRun(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.SnapshotEvery = 1
		o.BeforeRun = func(j *Job) { <-j.ctx.Done() }
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	resp := openStream(t, ctx, c.BaseURL, st.ID, "")
	defer resp.Body.Close()

	got := make(chan []StreamEvent, 1)
	go func() { got <- readStream(t, resp.Body, nil) }()

	// Give the worker a moment to claim the job, then cancel it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	select {
	case evs := <-got:
		checkStreamInvariants(t, evs)
		if last := evs[len(evs)-1]; last.Type != progress.EventCanceled {
			t.Fatalf("stream ended with %s, want canceled", last.Type)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not close after cancel")
	}
}

// TestEventStreamLateSubscriberAndResume covers satellite 2 and the
// Last-Event-ID contract at the HTTP layer: a subscriber arriving
// after the job finished sees only the compacted terminal replay
// (never a stale `running`), and resuming past the last ID yields an
// empty, immediately-closed stream.
func TestEventStreamLateSubscriberAndResume(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) { o.SnapshotEvery = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)

	resp := openStream(t, ctx, c.BaseURL, st.ID, "")
	evs := readStream(t, resp.Body, nil)
	resp.Body.Close()
	if len(evs) == 0 {
		t.Fatal("terminal job replayed nothing")
	}
	checkStreamInvariants(t, evs)
	for _, ev := range evs {
		if ev.Type == progress.EventQueued || ev.Type == progress.EventRunning {
			t.Fatalf("late subscriber saw pre-terminal lifecycle event %s", ev.Type)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != progress.EventDone {
		t.Fatalf("late replay ended with %s, want done", last.Type)
	}

	// Resume from the terminal event: nothing left.
	resp = openStream(t, ctx, c.BaseURL, st.ID, strconv.FormatUint(last.ID, 10))
	if rest := readStream(t, resp.Body, nil); len(rest) != 0 {
		t.Fatalf("resume past terminal replayed %d events", len(rest))
	}
	resp.Body.Close()
}

// TestEventsMalformedLastEventID pins the malformed-resume bugfix: a
// Last-Event-ID header that doesn't parse must be rejected with 400,
// not silently treated as 0. Pre-fix the handler replayed the full
// stream, and on a finished job that re-delivers the terminal event the
// client already consumed — an EventSource acting on `done` twice
// double-fires whatever the first delivery triggered.
func TestEventsMalformedLastEventID(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)
	for _, bad := range []string{"garbage", "-1", "1.5", "0x10", "18446744073709551616"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			c.BaseURL+"/api/v1/jobs/"+st.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q: HTTP %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}
}

// TestEventStreamResumeDedupesTerminal pins the dedupe half of the
// resume contract: across reconnect cycles that always present the last
// ID seen, a subscriber observes the terminal event exactly once; a
// reconnect from just before it gets it exactly once more, nothing else.
func TestEventStreamResumeDedupesTerminal(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)

	resp := openStream(t, ctx, c.BaseURL, st.ID, "")
	evs := readStream(t, resp.Body, nil)
	resp.Body.Close()
	var terminals int
	for _, ev := range evs {
		if terminalType(ev.Type) {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("first replay delivered %d terminal events, want 1", terminals)
	}
	last := evs[len(evs)-1]

	// A well-behaved client reconnecting with the ID it already has must
	// never see the terminal again, no matter how often it retries.
	for i := 0; i < 3; i++ {
		resp := openStream(t, ctx, c.BaseURL, st.ID, strconv.FormatUint(last.ID, 10))
		if rest := readStream(t, resp.Body, nil); len(rest) != 0 {
			t.Fatalf("reconnect %d past terminal replayed %d events (duplicate terminal)", i, len(rest))
		}
		resp.Body.Close()
	}

	// A client that disconnected just before the terminal gets exactly
	// it and nothing else.
	resp = openStream(t, ctx, c.BaseURL, st.ID, strconv.FormatUint(last.ID-1, 10))
	rest := readStream(t, resp.Body, nil)
	resp.Body.Close()
	if len(rest) != 1 || rest[0].ID != last.ID || !terminalType(rest[0].Type) {
		t.Fatalf("resume from terminal-1 replayed %+v, want exactly the terminal event", rest)
	}
}

// TestCachedJobStreamsLifecycleOnly: a second submission of an
// identical spec is served from the store — its stream carries the
// lifecycle but no snapshots (no profiler ran).
func TestCachedJobStreamsLifecycleOnly(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) { o.SnapshotEvery = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, first.ID)
	second, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Follow(ctx, second.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || !fin.CacheHit {
		t.Fatalf("cached rerun: state %s, cacheHit %v", fin.State, fin.CacheHit)
	}
	resp := openStream(t, ctx, c.BaseURL, second.ID, "")
	evs := readStream(t, resp.Body, nil)
	resp.Body.Close()
	for _, ev := range evs {
		if ev.Type == progress.EventSnapshot {
			t.Fatal("cache-served job published a snapshot")
		}
	}
}

// TestFollowStreamsToCompletion drives the client loop end to end.
func TestFollowStreamsToCompletion(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) { o.SnapshotEvery = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	var converged bool
	fin, err := c.Follow(ctx, st.ID, func(ev StreamEvent) {
		if ev.Type == progress.EventSnapshot {
			snaps++
			converged = converged || ev.Converged
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("follow returned state %s: %s", fin.State, fin.Error)
	}
	if snaps == 0 {
		t.Fatal("follow saw no snapshots")
	}
	_ = converged // cadence-dependent; convergence itself is pinned in core tests
}

// TestShutdownDrainsEventStreams: a drain must terminate every open
// stream — subscribers get a terminal event (the drained job's own,
// or `shutdown`) and the handler exits; nothing hangs or leaks.
func TestShutdownDrainsEventStreams(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Store: st, Workers: 1, QueueDepth: 4, SnapshotEvery: 1,
		BeforeRun: func(j *Job) { <-j.ctx.Done() }, // hold until drain cancels
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	c := NewClient(hs.URL)
	c.Retries = -1
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	job, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	resp := openStream(t, ctx, hs.URL, job.ID, "")
	defer resp.Body.Close()
	got := make(chan []StreamEvent, 1)
	go func() { got <- readStream(t, resp.Body, nil) }()

	// Short drain deadline: the held job is cancelled, its terminal
	// event (or the shutdown marker) closes the stream.
	sctx, scancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case evs := <-got:
		if len(evs) == 0 {
			t.Fatal("stream closed without any events")
		}
		checkStreamInvariants(t, evs)
		if last := evs[len(evs)-1]; !terminalType(last.Type) {
			t.Fatalf("stream ended with %s, want a terminal event", last.Type)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream still open after Shutdown returned")
	}
	hs.Close()
}

// TestLiveViews pins the /live endpoint's view table.
func TestLiveViews(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) { o.SnapshotEvery = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)

	get := func(path string) (int, string) {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/api/v1/jobs/" + st.ID + "/live"); code != http.StatusOK ||
		!strings.Contains(body, "live profile") || !strings.Contains(body, "final") {
		t.Fatalf("live code view: HTTP %d: %s", code, body)
	}
	if code, body := get("/api/v1/jobs/" + st.ID + "/live?view=data"); code != http.StatusOK ||
		!strings.Contains(body, "VARIABLE") {
		t.Fatalf("live data view: HTTP %d: %s", code, body)
	}
	code, body := get("/api/v1/jobs/" + st.ID + "/live?view=json")
	if code != http.StatusOK {
		t.Fatalf("live json view: HTTP %d", code)
	}
	var snap progress.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("live json view: %v", err)
	}
	if !snap.Final || snap.Seq == 0 {
		t.Fatalf("live json view: final=%v seq=%d", snap.Final, snap.Seq)
	}
	if code, _ := get("/api/v1/jobs/" + st.ID + "/live?view=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus view: HTTP %d, want 400", code)
	}
	if code, _ := get("/api/v1/jobs/job-999999/live"); code != http.StatusNotFound {
		t.Fatalf("unknown job live: HTTP %d, want 404", code)
	}
}

// TestLiveDisabledIs404: with streaming off (the default) there is no
// snapshot to serve.
func TestLiveDisabledIs404(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)
	resp, err := http.Get(c.BaseURL + "/api/v1/jobs/" + st.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("live with streaming disabled: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStreamMetricsExposed: the /metrics streaming block reflects
// subscriber and event traffic.
func TestStreamMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) { o.SnapshotEvery = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Follow(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	// The handler releases its subscriber slot in a defer that runs
	// after the terminal event is flushed, so Follow can return before
	// the gauge drops: poll for it rather than reading it once.
	deadline := time.Now().Add(30 * time.Second)
	var ms MetricsSnapshot
	for {
		var err error
		if ms, err = c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if ms.Streaming.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber gauge should be back to 0, got %d", ms.Streaming.Subscribers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ms.Streaming.Events == 0 || ms.Streaming.Snapshots == 0 {
		t.Fatalf("streaming metrics empty: %+v", ms.Streaming)
	}
	if _, ok := ms.LatencyUs["stream_snapshot"]; !ok {
		t.Fatal("stream_snapshot latency histogram missing")
	}
}
