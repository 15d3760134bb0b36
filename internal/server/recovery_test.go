package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// fastRetry shrinks the backoff so retry tests run in milliseconds.
func fastRetry(o *Options) {
	o.MaxRetries = 3
	o.RetryBase = time.Millisecond
	o.RetryCap = 4 * time.Millisecond
}

func TestFlakyJobRetriesToSuccess(t *testing.T) {
	s, c := newTestServer(t, fastRetry)
	spec := fastSpec("baseline")
	spec.Chaos = "flaky=2"
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	final := mustDone(t, c, st.ID)
	if final.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (two injected transient failures)", final.Attempt)
	}
	if got := must(t, s.Metrics().Counters, "jobs_retried_total"); got != 2 {
		t.Fatalf("retried = %d, want 2", got)
	}
	// The successful attempt's profile is byte-identical to the same
	// spec without the flaky plan... under its own key; what matters
	// here is that the profile exists and the client never re-submitted.
	if !s.st.Has(final.Key) {
		t.Fatal("flaky job's profile missing from the store")
	}
}

func TestTransientExhaustionFailsJob(t *testing.T) {
	s, c := newTestServer(t, func(o *Options) {
		o.MaxRetries = 1
		o.RetryBase = time.Millisecond
	})
	spec := fastSpec("baseline")
	spec.Chaos = "flaky=5"
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "flaky") {
		t.Fatalf("state %s err %q, want failed with the injected error", final.State, final.Error)
	}
	if final.Attempt != 1 {
		t.Fatalf("attempt = %d, want 1 (retry budget exhausted)", final.Attempt)
	}
	if got := must(t, s.Metrics().Counters, "jobs_retried_total"); got != 1 {
		t.Fatalf("retried = %d, want 1", got)
	}
}

// TestBreakerTripsFastFailsAndRecovers drives a spec that fails
// permanently (the store directory is gone, so persisting the computed
// profile fails) into the breaker, asserts fast-fail with Retry-After,
// then half-opens it.
func TestBreakerTripsFastFailsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	stDir := filepath.Join(dir, "profiles")
	if err := os.MkdirAll(stDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(stDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Store: st, Workers: 1, QueueDepth: 8,
		MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Every compute now fails to persist: a permanent failure.
	if err := os.RemoveAll(stDir); err != nil {
		t.Fatal(err)
	}
	spec := fastSpec("baseline")
	for i := 0; i < 2; i++ {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-job.done
		if got := job.Status(); got.State != StateFailed {
			t.Fatalf("submission %d: state %s, want failed", i, got.State)
		}
	}
	// Threshold reached: the third submission fast-fails, never queued.
	_, err = s.Submit(spec)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if _, ok := RetryAfterHint(err); !ok {
		t.Fatal("circuit-open error carries no Retry-After hint")
	}
	m := s.Metrics()
	trips, fastFails := must(t, m.Counters, "jobs_breaker_trips_total"), must(t, m.Counters, "jobs_breaker_fastfails_total")
	if trips != 1 || fastFails != 1 {
		t.Fatalf("trips/fastfails = %d/%d, want 1/1", trips, fastFails)
	}
	// A different spec is unaffected: the breaker is per-spec-key.
	if _, err := s.Submit(fastSpec("interleave")); err != nil {
		t.Fatalf("unrelated spec rejected: %v", err)
	}
	// After the cooldown the breaker half-opens; restore the store so
	// the probe succeeds and closes it.
	if err := os.MkdirAll(stDir, 0o755); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	<-job.done
	if got := job.Status(); got.State != StateDone {
		t.Fatalf("probe state %s (%s), want done", got.State, got.Error)
	}
	// Closed again: submissions flow.
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("closed breaker still refusing: %v", err)
	}
}

func TestDeadlineAwareShedding(t *testing.T) {
	s, _ := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.JobTimeout = 50 * time.Millisecond
	})
	// Feed the estimator a history of 1s runs: any new job's expected
	// completion (≥ one mean run) blows the 50ms deadline.
	for i := 0; i < shedMinSamples; i++ {
		s.m.run.ObserveUs(1_000_000)
	}
	_, err := s.Submit(fastSpec("baseline"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if d, ok := RetryAfterHint(err); !ok || d <= 0 {
		t.Fatalf("shed error hint = %v/%v, want a positive Retry-After", d, ok)
	}
	m := s.Metrics()
	shed, rejected := must(t, m.Counters, "jobs_shed_total"), must(t, m.Counters, "jobs_rejected_total")
	if shed != 1 || rejected != 1 {
		t.Fatalf("shed/rejected = %d/%d, want 1/1", shed, rejected)
	}
}

func TestSheddingNeedsHistory(t *testing.T) {
	// A cold daemon (fewer than shedMinSamples completed runs) must
	// admit everything, however tight the deadline.
	s, c := newTestServer(t, func(o *Options) {
		o.JobTimeout = 30 * time.Second
	})
	st, err := c.Submit(context.Background(), fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)
	if got := must(t, s.Metrics().Counters, "jobs_shed_total"); got != 0 {
		t.Fatalf("cold daemon shed %d jobs", got)
	}
}

func TestRetryAfterHeaderOnBackpressure(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
		o.BeforeRun = func(j *Job) {
			started <- j
			<-release
		}
	})
	defer close(release)
	ctx := context.Background()
	if _, err := c.Submit(ctx, fastSpec("baseline")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := c.Submit(ctx, fastSpec("interleave")); err != nil {
		t.Fatal(err)
	}
	// Queue full: raw POST sees 429 plus a Retry-After header.
	resp, err := http.Post(c.BaseURL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"blackscholes","strategy":"blockwise","iters":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestSweepJobCheckpointsAndReplays(t *testing.T) {
	s, c := newTestServer(t, nil)
	ctx := context.Background()
	sweep := Spec{Workload: "blackscholes", Strategy: "baseline, interleave", Iters: 1}
	st, err := c.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	final := mustDone(t, c, st.ID)
	if len(final.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(final.Cells))
	}
	for i, cell := range final.Cells {
		if cell.State != StateDone || !cell.Key.Valid() {
			t.Fatalf("cell %d: %+v", i, cell)
		}
		if !s.st.Has(cell.Key) {
			t.Fatalf("cell %d profile not checkpointed", i)
		}
	}
	// Cell profiles are byte-identical to single-spec submissions.
	single := fastSpec("interleave")
	sj, err := c.Submit(ctx, single)
	if err != nil {
		t.Fatal(err)
	}
	sres := mustDone(t, c, sj.ID)
	if sres.Key != final.Cells[1].Key {
		t.Fatalf("sweep cell key %s != single-spec key %s", final.Cells[1].Key, sres.Key)
	}
	if !sres.CacheHit {
		t.Fatal("single spec after sweep should be a cache hit (same bytes, same key)")
	}
	if got := must(t, s.Metrics().Counters, "jobs_cells_recomputed_total"); got != 2 {
		t.Fatalf("cells recomputed = %d, want 2", got)
	}
	// An identical sweep replays every cell from the checkpoint.
	st2, err := c.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	final2 := mustDone(t, c, st2.ID)
	if !final2.CacheHit {
		t.Fatal("fully checkpointed sweep not reported as a cache hit")
	}
	if got := must(t, s.Metrics().Counters, "jobs_cells_replayed_total"); got != 2 {
		t.Fatalf("cells replayed = %d, want 2", got)
	}
}

func TestSweepResumesFromPartialCheckpoint(t *testing.T) {
	s, c := newTestServer(t, nil)
	ctx := context.Background()
	// Precompute one future cell via a single-spec job.
	pre, err := c.Submit(ctx, fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, pre.ID)
	sweep := Spec{Workload: "blackscholes", Strategy: "baseline,interleave,blockwise", Iters: 1}
	st, err := c.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	final := mustDone(t, c, st.ID)
	if final.CacheHit {
		t.Fatal("partially checkpointed sweep must not claim a full cache hit")
	}
	m := s.Metrics()
	if got := must(t, m.Counters, "jobs_cells_replayed_total"); got != 1 {
		t.Fatalf("cells replayed = %d, want 1 (the precomputed cell)", got)
	}
	if got := must(t, m.Counters, "jobs_cells_recomputed_total"); got != 2 {
		t.Fatalf("cells recomputed = %d, want 2 (only the missing cells)", got)
	}
}

// TestSweepFailsWhenCellsCannotBeStored: the store is a sweep's only
// output, so a cell whose profile cannot be stored fails, and the
// sweep with it, a permanent failure the breaker counts. Done means
// every cell's profile is stored.
func TestSweepFailsWhenCellsCannotBeStored(t *testing.T) {
	s, c := newTestServer(t, func(o *Options) { o.BreakerThreshold = 1 })
	dir := s.st.Dir()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Shutdown flushes the store directory; give it one back.
	t.Cleanup(func() { os.MkdirAll(dir, 0o755) })
	sweep := Spec{Workload: "blackscholes", Strategy: "baseline,interleave", Iters: 1}
	st, err := c.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "2 of 2 cells failed") {
		t.Errorf("sweep ended %s (error %q), want failed with both cells", final.State, final.Error)
	}
	if len(final.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(final.Cells))
	}
	for i, cell := range final.Cells {
		if cell.State != StateFailed || cell.Error == "" {
			t.Errorf("cell %d: %+v, want failed with an error", i, cell)
		}
		if s.st.Has(cell.Key) {
			t.Errorf("cell %d: profile stored in a removed store", i)
		}
	}
	if _, err := s.Submit(sweep); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("resubmitted sweep: %v, want the breaker open", err)
	}
}

// TestJournalRecoveryInProcess simulates a crash without a process
// boundary: server A journals a finished job and abandons two pending
// ones, the second a sweep; server B recovers the journal into the same
// store and drives everything terminal, and the sweep recomputes only
// the cell no job stored before it.
func TestJournalRecoveryInProcess(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, store.JournalName)
	stA, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		t.Fatal(err)
	}
	jlA, err := store.OpenJournal(jpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan *Job, 1)
	release := make(chan struct{})
	a, err := New(Options{
		Store: stA, Workers: 1, QueueDepth: 8, Journal: jlA,
		BeforeRun: func(j *Job) {
			if j.spec.Strategy == "interleave" {
				held <- j
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	// The abandoned A still owns a worker parked on job 2 and job 3 in
	// its queue. Stop it, its jobs cancelled, before t.TempDir's cleanup
	// removes the store directory that worker would write into.
	defer func() {
		close(release)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a.Shutdown(ctx)
	}()
	// Job 1 completes and is journaled terminal.
	j1, err := a.Submit(fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.done
	// Job 2 is claimed and held mid-"run"; job 3, a sweep over jobs 1's
	// and 2's specs and one more, never leaves the queue.
	j2, err := a.Submit(fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}
	<-held
	j3, err := a.Submit(Spec{Workload: "blackscholes", Strategy: "baseline,interleave,blockwise", Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": abandon A (no drain, no shutdown), cut its journal.
	jlA.Close()

	rec, err := store.RecoverJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("clean journal quarantined records: %+v", rec.Quarantined)
	}
	if err := store.CompactJournal(jpath, rec); err != nil {
		t.Fatal(err)
	}
	jlB, err := store.OpenJournal(jpath, rec.MaxSeq)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// One worker, so the recovered jobs re-run in journal order and the
	// sweep's cell counts do not depend on scheduling.
	b, err := New(Options{Store: stB, Workers: 1, QueueDepth: 8, Journal: jlB})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recover(rec); err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()

	// The finished job answers from the table without re-running.
	got, ok := b.JobByID(j1.Status().ID)
	if !ok {
		t.Fatal("terminal job lost across recovery")
	}
	if st := got.Status(); st.State != StateDone || st.Key != j1.Status().Key {
		t.Fatalf("recovered terminal job: %+v", st)
	}
	// The interrupted jobs re-run to done.
	for _, id := range []string{j2.Status().ID, j3.Status().ID} {
		rj, ok := b.JobByID(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		select {
		case <-rj.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("recovered job %s never finished", id)
		}
		st := rj.Status()
		if st.State != StateDone {
			t.Fatalf("recovered job %s: %s (%s)", id, st.State, st.Error)
		}
		if !st.Recovered {
			t.Fatalf("job %s not flagged recovered", id)
		}
	}
	if key := j2.Status().Key; !stB.Has(key) {
		t.Fatalf("job 2's profile %s missing after recovery", key)
	}
	sweep, _ := b.JobByID(j3.Status().ID)
	cells := sweep.Status().Cells
	if len(cells) != 3 {
		t.Fatalf("recovered sweep has %d cells, want 3", len(cells))
	}
	for i, c := range cells {
		if c.State != StateDone || !stB.Has(c.Key) {
			t.Fatalf("recovered sweep cell %d: %+v, want done and stored", i, c)
		}
	}
	m := b.Metrics().Counters
	if got := must(t, m, "jobs_recovered_total"); got != 2 {
		t.Fatalf("recovered = %d, want 2", got)
	}
	// Jobs 1 and 2 stored the baseline and interleave cells.
	replayed, recomputed := must(t, m, "jobs_cells_replayed_total"), must(t, m, "jobs_cells_recomputed_total")
	if replayed != 2 || recomputed != 1 {
		t.Fatalf("sweep cells replayed/recomputed = %d/%d, want 2/1", replayed, recomputed)
	}
	// Job numbering continues past the replayed IDs.
	j4, err := b.Submit(fastSpec("guided"))
	if err != nil {
		t.Fatal(err)
	}
	if seq, ok := parseJobSeq(j4.Status().ID); !ok || seq != 4 {
		t.Fatalf("post-recovery id %s, want job-000004", j4.Status().ID)
	}
}

// TestRecoverFailuresSurviveNextBoot: a journaled job that Recover
// cannot re-run (spec lost, or no room left in the queue) is failed on
// the first boot and must still be served as failed, with the same
// error, after a second boot over the same journal. Boot-time
// compaction drops the job's non-terminal records, so only a journaled
// terminal record keeps the job and its ID alive.
func TestRecoverFailuresSurviveNextBoot(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, store.JournalName)
	st, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		t.Fatal(err)
	}
	queued := func(id, strategy string) store.JournalRecord {
		n, err := fastSpec(strategy).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		return store.JournalRecord{ID: id, State: "queued", Key: string(n.Key()), Spec: b}
	}
	jl, err := store.OpenJournal(jpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.JournalRecord{
		queued("job-000003", "baseline"),     // fills the one queue slot
		queued("job-000005", "interleave"),   // finds the queue full
		{ID: "job-000007", State: "running"}, // its spec record was lost
	} {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	// boot replays the journal the way numad starts: recover, compact,
	// reopen, Recover. The servers are never started, so the queue
	// keeps its one slot taken.
	boot := func() *Server {
		t.Helper()
		rec, err := store.RecoverJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CompactJournal(jpath, rec); err != nil {
			t.Fatal(err)
		}
		jl, err := store.OpenJournal(jpath, rec.MaxSeq)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jl.Close() })
		s, err := New(Options{Store: st, Workers: 1, QueueDepth: 1, Journal: jl})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Recover(rec); err != nil {
			t.Fatal(err)
		}
		return s
	}
	failed := map[string]string{
		"job-000005": "recovered job exceeds queue capacity",
		"job-000007": "unrecoverable: journal lost the job's spec",
	}
	for n, s := range []*Server{boot(), boot()} {
		for id, msg := range failed {
			j, ok := s.JobByID(id)
			if !ok {
				t.Fatalf("boot %d: job %s lost", n+1, id)
			}
			if st := j.Status(); st.State != StateFailed || st.Error != msg {
				t.Fatalf("boot %d: job %s is %s (%q), want failed (%q)", n+1, id, st.State, st.Error, msg)
			}
		}
		if j, ok := s.JobByID("job-000003"); !ok || j.Status().State != StateQueued {
			t.Fatalf("boot %d: job-000003 not re-enqueued", n+1)
		}
		// Only the re-enqueued job counts as recovered, not the ones
		// Recover failed.
		if got := must(t, s.Metrics().Counters, "jobs_recovered_total"); got != 1 {
			t.Fatalf("boot %d: recovered = %d, want 1", n+1, got)
		}
		s.mu.Lock()
		next := fmt.Sprintf("job-%06d", s.seq+1)
		s.mu.Unlock()
		if next != "job-000008" {
			t.Fatalf("boot %d: next id %s, want job-000008", n+1, next)
		}
	}
}

// TestRecoveredDoneSweepKeepsCells: a done sweep has every cell stored,
// so after a restart over its journal it is served with its whole cell
// table, every cell done under the key the sweep computed it at. The
// journal keeps no per-cell states, so a failed sweep comes back
// without a cell table.
func TestRecoveredDoneSweepKeepsCells(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, store.JournalName)
	st, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// boot starts a daemon over the journal the way numad does, and
	// stop drains it and closes the journal.
	boot := func() (*Server, func()) {
		t.Helper()
		rec, err := store.RecoverJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CompactJournal(jpath, rec); err != nil {
			t.Fatal(err)
		}
		jl, err := store.OpenJournal(jpath, rec.MaxSeq)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Store: st, Workers: 1, QueueDepth: 8, Journal: jl})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Recover(rec); err != nil {
			t.Fatal(err)
		}
		s.Start()
		return s, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Error(err)
			}
			jl.Close()
		}
	}

	first, stop := boot()
	sweep := Spec{Workload: "blackscholes", Strategy: "baseline,interleave", Iters: 1}
	job, err := first.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	<-job.done
	want := job.Status()
	if want.State != StateDone || len(want.Cells) != 2 {
		t.Fatalf("sweep ended %s with %d cells, want done with 2", want.State, len(want.Cells))
	}
	failedSpec := Spec{Workload: "blackscholes", Strategy: "baseline,blockwise", Iters: 1}
	n, err := failedSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.jl.Append(store.JournalRecord{
		ID: "job-000002", State: "failed", Key: string(n.Key()), Spec: b, Err: "cell failed",
	}); err != nil {
		t.Fatal(err)
	}
	stop()

	second, stop := boot()
	defer stop()
	got, ok := second.JobByID(want.ID)
	if !ok {
		t.Fatalf("done sweep %s lost across the restart", want.ID)
	}
	gst := got.Status()
	if gst.State != StateDone || !gst.Recovered {
		t.Fatalf("recovered sweep: %s, recovered %v; want done and recovered", gst.State, gst.Recovered)
	}
	if len(gst.Cells) != len(want.Cells) {
		t.Fatalf("recovered sweep has %d cells, want %d", len(gst.Cells), len(want.Cells))
	}
	for i, c := range gst.Cells {
		if c != want.Cells[i] {
			t.Errorf("recovered cell %d = %+v, want %+v", i, c, want.Cells[i])
		}
		if !st.Has(c.Key) {
			t.Errorf("recovered cell %d: key %s not stored", i, c.Key)
		}
	}
	failed, ok := second.JobByID("job-000002")
	if !ok {
		t.Fatal("failed sweep lost across the restart")
	}
	if fst := failed.Status(); fst.State != StateFailed || fst.Cells != nil {
		t.Fatalf("recovered failed sweep: %s with cells %+v; want failed without a cell table", fst.State, fst.Cells)
	}
}

func TestSubmitRefusedWhenJournalBroken(t *testing.T) {
	dir := t.TempDir()
	jl, err := store.OpenJournal(filepath.Join(dir, store.JournalName), 0)
	if err != nil {
		t.Fatal(err)
	}
	jl.Close() // appends now fail: durability cannot be promised
	st, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Workers: 1, QueueDepth: 4, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if _, err := s.Submit(fastSpec("baseline")); err == nil {
		t.Fatal("submission accepted without a durable queued record")
	}
}

func TestClientRetriesTransientRefusals(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"id":"job-000001","state":"done"}`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RetryBase = time.Millisecond
	// Retry-After: 1 would wait a second per attempt; keep the test fast
	// by accepting it (2 × 1s is still fine) — but bound the total.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Job(ctx, "job-000001")
	if err != nil {
		t.Fatalf("client gave up: %v (after %d hits)", err, hits)
	}
	if st.State != StateDone || hits != 3 {
		t.Fatalf("state %s after %d hits, want done after 3", st.State, hits)
	}
}

func TestClientRetryBudgetExhausts(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retries = 2
	c.RetryBase = time.Millisecond
	_, err := c.Job(context.Background(), "job-000001")
	if err == nil {
		t.Fatal("client swallowed a persistent 429")
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3 (1 + 2 retries)", hits)
	}
	if !strings.Contains(err.Error(), "429") {
		t.Fatalf("final error lost the status: %v", err)
	}
}
