package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/profio"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// fastSpec is the cheapest real job: a one-iteration blackscholes run.
func fastSpec(strategy string) Spec {
	return Spec{Workload: "blackscholes", Strategy: strategy, Iters: 1}
}

// newTestServer stands up a daemon over httptest and tears it down
// (drain + store flush) when the test ends.
func newTestServer(t *testing.T, mod func(*Options)) (*Server, *Client) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Store: st, Workers: 2, QueueDepth: 16}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	c := NewClient(ts.URL)
	// Tests assert exact rejection counts and statuses; the client's
	// transparent 429/503 retry would blur them.
	c.Retries = -1
	return s, c
}

// refProfileBytes computes a spec's profile locally over the same
// Build+Analyze+Save path the CLI's -profile flag uses.
func refProfileBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	cfg, app, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Analyze(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profio.Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitTerminal follows a job's event stream to its terminal state,
// whichever it is.
func waitTerminal(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Follow(ctx, id, nil)
	if err != nil {
		t.Fatalf("follow %s: %v", id, err)
	}
	return st
}

func mustDone(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	st := waitTerminal(t, c, id)
	if st.State != StateDone {
		t.Fatalf("job %s: state %s (error %q), want done", id, st.State, st.Error)
	}
	return st
}

// must reads one named instrument from a section of a /metrics
// snapshot and fails the test when the name is missing: newMetrics
// registers every server instrument up front, so a missing name is a
// typo, and reading it as 0 would let an == 0 check pass without
// testing anything.
func must[V any](t *testing.T, section map[string]V, name string) V {
	t.Helper()
	v, ok := section[name]
	if !ok {
		t.Fatalf("/metrics has no instrument %q", name)
	}
	return v
}

// storeHits is the store's cache hits on /metrics: memory, disk and
// dedup-wait hits.
func storeHits(t *testing.T, m telemetry.RegistrySnapshot) uint64 {
	t.Helper()
	return must(t, m.Counters, "store_mem_hits_total") +
		must(t, m.Counters, "store_disk_hits_total") +
		must(t, m.Counters, "store_dedup_waits_total")
}

func TestSubmitRunAndViews(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	spec := fastSpec("baseline")

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || !st.Key.Valid() {
		t.Fatalf("accepted job malformed: %+v", st)
	}
	fin := mustDone(t, c, st.ID)
	if fin.CacheHit {
		t.Fatal("first run of a spec reported a cache hit")
	}
	if fin.StartedAt.IsZero() || fin.FinishedAt.IsZero() {
		t.Fatalf("timestamps missing: %+v", fin)
	}

	// Daemon-served measurement bytes are identical to a local run's
	// (the CLI -profile path: Build + Analyze + Save).
	raw, err := c.ProfileBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refProfileBytes(t, spec); !bytes.Equal(raw, ref) {
		t.Fatalf("daemon profile differs from local run: %d vs %d bytes", len(raw), len(ref))
	}

	text, err := c.Text(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "blackscholes") {
		t.Fatalf("text view does not mention the workload:\n%s", text)
	}
	page, err := c.HTMLReport(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "<html") {
		t.Fatal("html view is not an HTML page")
	}

	// A duplicate submission is served from the store.
	dup, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID == st.ID {
		t.Fatal("duplicate submission reused the job ID")
	}
	if fin2 := mustDone(t, c, dup.ID); !fin2.CacheHit {
		t.Fatal("duplicate spec was recomputed, not served from the store")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits(t, m) == 0 {
		t.Fatal("store hit counter did not move on a duplicate spec")
	}
	if done := must(t, m.Counters, "jobs_done_total"); done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if n := must(t, m.Histograms, "job_total").Count; n != 2 {
		t.Fatalf("total latency observations = %d, want 2", n)
	}
}

// TestMetricsServesRegistry pins the /metrics contract: the JSON body
// is the merged instrument snapshot and nothing else, and after a burst
// of jobs ?format=text carries the same names and values.
func TestMetricsServesRegistry(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	var ids []string
	for _, strat := range []string{"baseline", "interleave", "baseline", "blockwise"} {
		st, err := c.Submit(ctx, fastSpec(strat))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		mustDone(t, c, id)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read err %v", path, resp.StatusCode, err)
		}
		return buf.Bytes()
	}
	scrape := func() telemetry.RegistrySnapshot {
		t.Helper()
		body := get("/metrics")
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "counters,gauges,histograms_us" {
			t.Fatalf("/metrics top-level keys = %s, want counters,gauges,histograms_us", got)
		}
		var m telemetry.RegistrySnapshot
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// The uptime gauge ticks each second and a finished stream drops
	// its subscriber after Follow returns, so compare the text body
	// with JSON scrapes taken on both sides of it that agree.
	for attempt := 0; ; attempt++ {
		before := scrape()
		text := string(get("/metrics?format=text"))
		if after := scrape(); !reflect.DeepEqual(before, after) {
			if attempt == 5 {
				t.Fatal("/metrics kept moving on an idle daemon")
			}
			continue
		}
		var want strings.Builder
		if err := before.WriteText(&want); err != nil {
			t.Fatal(err)
		}
		if text != want.String() {
			t.Fatalf("text exposition differs from the JSON snapshot:\n--- text\n%s--- json\n%s", text, want.String())
		}
		if done := must(t, before.Counters, "jobs_done_total"); done != uint64(len(ids)) {
			t.Fatalf("done = %d, want %d", done, len(ids))
		}
		return
	}
}

// TestEndpointErrors is the table of non-2xx contracts.
func TestEndpointErrors(t *testing.T) {
	s, c := newTestServer(t, nil)
	_ = s
	base := c.BaseURL
	absent := store.Key(strings.Repeat("a", 64))

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"unknown job", "GET", "/api/v1/jobs/job-999999", "", 404},
		{"cancel unknown job", "DELETE", "/api/v1/jobs/job-999999", "", 404},
		{"malformed body", "POST", "/api/v1/jobs", "{", 400},
		{"unknown field", "POST", "/api/v1/jobs", `{"frobnicate":1}`, 400},
		{"invalid spec", "POST", "/api/v1/jobs", `{"workload":"doom"}`, 400},
		{"bad chaos plan", "POST", "/api/v1/jobs", `{"workload":"lulesh","chaos":"drop=nope"}`, 400},
		{"invalid profile key", "GET", "/api/v1/profiles/not-a-key", "", 400},
		{"absent profile key", "GET", "/api/v1/profiles/" + string(absent), "", 404},
		{"diff without refs", "GET", "/api/v1/diff", "", 400},
		{"diff unknown refs", "GET", "/api/v1/diff?a=job-999999&b=job-999998", "", 404},
		{"diff bad view", "GET", "/api/v1/diff?a=" + string(absent) + "&b=" + string(absent), "", 404},
		{"healthz", "GET", "/healthz", "", 200},
		{"readyz", "GET", "/readyz", "", 200},
		{"metrics", "GET", "/metrics", "", 200},
		{"list jobs", "GET", "/api/v1/jobs?state=done", "", 200},
		{"list profiles", "GET", "/api/v1/profiles", "", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, base+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if resp.StatusCode >= 400 {
				var eb errorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
					t.Fatalf("error response has no JSON error body (decode err %v)", err)
				}
			}
		})
	}
}

func TestBackpressureAndViewConflict(t *testing.T) {
	started := make(chan *Job, 8)
	release := make(chan struct{})
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
		o.BeforeRun = func(j *Job) {
			started <- j
			<-release
		}
	})
	ctx := context.Background()

	// Job 1 is claimed by the only worker and held in BeforeRun.
	j1, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed job 1")
	}
	// Job 2 fills the queue; job 3 must bounce with 429.
	j2, err := c.Submit(ctx, fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, fastSpec("blockwise"))
	if err == nil {
		t.Fatal("third submission accepted despite a full queue")
	}
	if !strings.Contains(err.Error(), "429") {
		t.Fatalf("full queue error is not a 429: %v", err)
	}

	// A running job has no views yet: 409, not 404 or 200.
	resp, err := http.Get(c.BaseURL + "/api/v1/jobs/" + j1.ID + "?view=text")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("view of a running job = %d, want 409", resp.StatusCode)
	}
	// Same for a diff that references it.
	resp, err = http.Get(c.BaseURL + "/api/v1/diff?a=" + j1.ID + "&b=" + j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diff of a running job = %d, want 409", resp.StatusCode)
	}

	close(release)
	mustDone(t, c, j1.ID)
	mustDone(t, c, j2.ID)
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rejected := must(t, m.Counters, "jobs_rejected_total"); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	submitted, done := must(t, m.Counters, "jobs_submitted_total"), must(t, m.Counters, "jobs_done_total")
	if submitted != 2 || done != 2 {
		t.Fatalf("submitted/done = %d/%d, want 2/2", submitted, done)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan *Job, 8)
	release := make(chan struct{})
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 4
		o.BeforeRun = func(j *Job) {
			started <- j
			<-release
		}
	})
	ctx := context.Background()

	j1, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := c.Submit(ctx, fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Cancel(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("cancelled queued job is %s, want canceled", st.State)
	}
	close(release)
	mustDone(t, c, j1.ID)

	// The cancelled job must never have run.
	st, err = c.Job(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || !st.StartedAt.IsZero() {
		t.Fatalf("cancelled job ran anyway: %+v", st)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	canceled, done := must(t, m.Counters, "jobs_canceled_total"), must(t, m.Counters, "jobs_done_total")
	queued, running := must(t, m.Gauges, "jobs_queued"), must(t, m.Gauges, "jobs_running")
	if canceled != 1 || done != 1 || queued != 0 || running != 0 {
		t.Fatalf("gauges off after cancel: canceled %d, done %d, queued %d, running %d",
			canceled, done, queued, running)
	}
}

func TestCancelMidRun(t *testing.T) {
	started := make(chan *Job, 8)
	release := make(chan struct{})
	var once sync.Once
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 4
		o.BeforeRun = func(j *Job) {
			var first bool
			once.Do(func() { first = true })
			if first {
				started <- j
				<-release
			}
		}
	})
	ctx := context.Background()

	j1, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds j1 in the running state
	st, err := c.Cancel(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("mid-run cancel left state %s", st.State)
	}
	close(release)

	// The worker observes the cancelled context, records nothing over
	// the canceled state, and stays healthy for the next job.
	j2, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	fin := mustDone(t, c, j2.ID)
	if fin.CacheHit {
		t.Fatal("cancelled job leaked a profile into the store")
	}
	st, err = c.Job(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("job 1 ended %s, want canceled", st.State)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	canceled, done := must(t, m.Counters, "jobs_canceled_total"), must(t, m.Counters, "jobs_done_total")
	if running := must(t, m.Gauges, "jobs_running"); canceled != 1 || done != 1 || running != 0 {
		t.Fatalf("gauges off after mid-run cancel: canceled %d, done %d, running %d", canceled, done, running)
	}
}

// TestCancelAgainstSettle pins the two orders of a cancel and a
// worker's settle: whichever lands first wins, and a settled job reads
// as running, with Done open, until finish publishes its outcome.
func TestCancelAgainstSettle(t *testing.T) {
	now := time.Now()
	canceled := newJob(context.Background(), "job-000001", Spec{}, "", now)
	canceled.begin(now)
	if got := canceled.Cancel(); got != StateRunning {
		t.Fatalf("cancel of a running job returned %s", got)
	}
	if canceled.settle(StateDone) {
		t.Fatal("settle won against a cancel that landed first")
	}

	settled := newJob(context.Background(), "job-000002", Spec{}, "", now)
	settled.begin(now)
	if !settled.settle(StateDone) {
		t.Fatal("settle lost on a running job")
	}
	if got := settled.Cancel(); got != StateDone {
		t.Fatalf("cancel after settle returned %s, want the settled done", got)
	}
	if settled.settle(StateFailed) {
		t.Fatal("a second settle won")
	}
	select {
	case <-settled.done:
		t.Fatal("Done closed before finish")
	default:
	}
	if got := settled.Status().State; got != StateRunning {
		t.Fatalf("settled job reads %s before finish, want running", got)
	}
	settled.finish("", false, now)
	<-settled.done
	if got := settled.Status().State; got != StateDone {
		t.Fatalf("finished job reads %s, want done", got)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.JobTimeout = 30 * time.Millisecond
		o.BeforeRun = func(*Job) { time.Sleep(80 * time.Millisecond) }
	})
	ctx := context.Background()
	j, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, c, j.ID); st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed-out job = %s (%q), want failed with a deadline error", st.State, st.Error)
	}
}

func TestDiffEndpoint(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	a, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := mustDone(t, c, a.ID), mustDone(t, c, b.ID)

	// JSON view by job ID.
	resp, err := http.Get(c.BaseURL + "/api/v1/diff?a=" + a.ID + "&b=" + b.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("diff = %d, want 200", resp.StatusCode)
	}
	var res diff.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict == "" {
		t.Fatal("diff result has no verdict")
	}

	// Text view by store key.
	text, err := c.DiffText(ctx, string(sa.Key), string(sb.Key))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "=>") {
		t.Fatalf("diff text has no verdict line:\n%s", text)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	s, c := newTestServer(t, func(o *Options) { o.Workers = 2; o.QueueDepth = 32 })
	ctx := context.Background()
	var ids []string
	for _, strat := range []string{"baseline", "interleave", "baseline", "guided", "interleave"} {
		st, err := c.Submit(ctx, fastSpec(strat))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The backlog ran to completion, not cancellation.
	for _, id := range ids {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s drained as %s, want done", id, st.State)
		}
	}
	// New work is refused with 503, and readyz flips.
	_, err := c.Submit(ctx, fastSpec("blockwise"))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit during drain = %v, want 503", err)
	}
	resp, err := http.Get(c.BaseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	queued, running := must(t, m.Gauges, "jobs_queued"), must(t, m.Gauges, "jobs_running")
	if done := must(t, m.Counters, "jobs_done_total"); queued != 0 || running != 0 || done != uint64(len(ids)) {
		t.Fatalf("post-drain gauges off: queued %d, running %d, done %d", queued, running, done)
	}
}

// TestConcurrentMixedSubmissions is the acceptance check: 100
// concurrent submissions of mixed specs complete without error,
// duplicates are served from the store, every profile is byte-identical
// to a serial local run, and /metrics + /healthz stay consistent
// throughout.
func TestConcurrentMixedSubmissions(t *testing.T) {
	const jobs = 100
	s, c := newTestServer(t, func(o *Options) { o.Workers = 8; o.QueueDepth = jobs + 8 })
	ctx := context.Background()

	// Ten distinct specs; every spec is submitted ten times.
	var specs []Spec
	for _, mech := range []string{"IBS", "PEBS-LL"} {
		for _, strat := range []string{"baseline", "interleave", "blockwise", "parallel-init", "guided"} {
			sp := fastSpec(strat)
			sp.Mechanism = mech
			specs = append(specs, sp)
		}
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ids  = make([]string, jobs)
		errs []error
	)
	stop := make(chan struct{})
	var scrapes []telemetry.RegistrySnapshot
	scraped := make(chan error, 1)
	go func() {
		// Scrape /metrics and /healthz while the burst is in flight; the
		// books of every scrape are checked once the burst is over.
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			resp, err := http.Get(c.BaseURL + "/healthz")
			if err != nil {
				scraped <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				scraped <- fmt.Errorf("healthz = %d mid-burst", resp.StatusCode)
				return
			}
			m, err := c.Metrics(ctx)
			if err != nil {
				scraped <- err
				return
			}
			scrapes = append(scrapes, m)
		}
	}()

	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(ctx, specs[i%len(specs)])
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("submit %d: %w", i, err))
				mu.Unlock()
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d/%d submissions failed; first: %v", len(errs), jobs, errs[0])
	}
	for i, id := range ids {
		st := mustDone(t, c, id)
		if st.Key != specs[i%len(specs)].Key() {
			t.Fatalf("job %s stored under the wrong key", id)
		}
	}
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	// The gauges move in separate atomic steps, so a scrape may catch
	// up to Workers jobs mid-transition; beyond that the books must
	// balance.
	for _, m := range scrapes {
		submitted := int64(must(t, m.Counters, "jobs_submitted_total"))
		accounted := must(t, m.Gauges, "jobs_queued") + must(t, m.Gauges, "jobs_running") +
			int64(must(t, m.Counters, "jobs_done_total")+must(t, m.Counters, "jobs_failed_total")+
				must(t, m.Counters, "jobs_canceled_total"))
		if d := submitted - accounted; d < 0 || d > must(t, m.Gauges, "jobs_workers") {
			t.Fatalf("metrics inconsistent: submitted %d vs accounted %d", submitted, accounted)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done, failed := must(t, m.Counters, "jobs_done_total"), must(t, m.Counters, "jobs_failed_total")
	if canceled := must(t, m.Counters, "jobs_canceled_total"); done != jobs || failed != 0 || canceled != 0 {
		t.Fatalf("outcome counters off: done %d, failed %d, canceled %d", done, failed, canceled)
	}
	if queued, running := must(t, m.Gauges, "jobs_queued"), must(t, m.Gauges, "jobs_running"); queued != 0 || running != 0 {
		t.Fatalf("gauges not quiescent: queued %d, running %d", queued, running)
	}
	if storeHits(t, m) == 0 {
		t.Fatal("no store hits across 10x-duplicated specs")
	}
	if saves := must(t, m.Counters, "store_saves_total"); saves != uint64(len(specs)) {
		t.Fatalf("store saves = %d, want %d (one per distinct spec)", saves, len(specs))
	}

	// The instrument registry must mirror the store stats exactly (the
	// burst is over, so they no longer move), and the hit/miss/dedup
	// books must balance: each distinct spec misses once, every other
	// submission is served as a hit of some flavor.
	st := s.st.Stats()
	for name, want := range map[string]uint64{
		"store_mem_hits_total":     st.MemHits,
		"store_disk_hits_total":    st.DiskHits,
		"store_misses_total":       st.Misses,
		"store_dedup_waits_total":  st.DedupWaits,
		"store_saves_total":        st.Saves,
		"store_view_hits_total":    st.ViewHits,
		"store_view_renders_total": st.ViewRenders,
	} {
		if got := must(t, m.Counters, name); got != want {
			t.Errorf("instrument %s = %d, want %d (mirror of store stats)", name, got, want)
		}
	}
	if misses := must(t, m.Counters, "store_misses_total"); misses != uint64(len(specs)) {
		t.Errorf("store misses = %d, want %d (one compute per distinct spec)", misses, len(specs))
	}
	if hits := storeHits(t, m); hits != jobs-uint64(len(specs)) {
		t.Errorf("store hits = %d, want %d (every duplicate submission served from cache)",
			hits, jobs-len(specs))
	}
	// Process-wide pipeline families accumulate across tests, so assert
	// presence and progress, not exact values.
	for _, name := range []string{"pipeline_build_config_total", "pipeline_samples_total", "store_get_or_compute_total"} {
		if must(t, m.Counters, name) == 0 {
			t.Errorf("instrument %s zero after a 100-job burst", name)
		}
	}

	// Every stored profile is byte-identical to a serial local run.
	for _, sp := range specs {
		ref := refProfileBytes(t, sp)
		got, err := s.st.Bytes(sp.Key())
		if err != nil {
			t.Fatalf("stored bytes for %s: %v", sp.Key(), err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("spec %s/%s: daemon bytes differ from serial run", sp.Mechanism, sp.Strategy)
		}
	}
}

// TestNaNSafeViewsForLatencylessAndZeroSampleProfiles locks the
// JSON-safety of every server view for the profiles most likely to
// carry non-finite numbers: a mechanism that measures no latency (MRK
// — Totals.LPI is NaN by design, see core.buildTotals) and a run whose
// sampling period exceeds the program, yielding a zero-sample profile.
// Pre-fix, core.Totals marshaled the NaN straight into encoding/json,
// so the store write (profio.Save) failed and every view of such a job
// was unreachable.
func TestNaNSafeViewsForLatencylessAndZeroSampleProfiles(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()

	specs := map[string]Spec{
		"latency-less": {Workload: "blackscholes", Iters: 1, Mechanism: "MRK",
			Machine: "intel-harpertown-8", Threads: 4},
		"zero-sample": {Workload: "blackscholes", Iters: 1, Mechanism: "MRK",
			Machine: "intel-harpertown-8", Threads: 4, Period: 1 << 40},
	}
	ids := map[string]string{}
	for name, spec := range specs {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		mustDone(t, c, st.ID)
		ids[name] = st.ID
	}

	for name, id := range ids {
		if _, err := c.Text(ctx, id); err != nil {
			t.Fatalf("%s: text view: %v", name, err)
		}
		if _, err := c.HTMLReport(ctx, id); err != nil {
			t.Fatalf("%s: html view: %v", name, err)
		}
		raw, err := c.ProfileBytes(ctx, id)
		if err != nil {
			t.Fatalf("%s: profile view: %v", name, err)
		}
		p, err := profio.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: load served bytes: %v", name, err)
		}
		// The wire carries NaN as null; the decoder must restore the
		// in-memory convention exactly, not flatten it to 0 (a real,
		// wrong, lpi value).
		if !math.IsNaN(p.Totals.LPI) {
			t.Errorf("%s: round-tripped LPI = %v, want NaN preserved", name, p.Totals.LPI)
		}
		// The status/json view must itself be parseable JSON.
		resp, err := http.Get(c.BaseURL + "/api/v1/jobs/" + id + "?view=json")
		if err != nil {
			t.Fatalf("%s: json view: %v", name, err)
		}
		var status JobStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: json view: status %d, decode err %v", name, resp.StatusCode, err)
		}
	}

	// Diffing the two — both NaN-LPI, one with zero samples — must
	// serve valid JSON too (the diff view feeds dashboards directly).
	resp, err := http.Get(c.BaseURL + "/api/v1/diff?a=" + ids["latency-less"] + "&b=" + ids["zero-sample"])
	if err != nil {
		t.Fatal(err)
	}
	var d diff.Result
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("diff json view: status %d, decode err %v", resp.StatusCode, err)
	}
	if math.IsNaN(d.Speedup) || math.IsInf(d.Speedup, 0) {
		t.Errorf("diff speedup = %v, want finite", d.Speedup)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatalf("metrics view: %v", err)
	}
}
