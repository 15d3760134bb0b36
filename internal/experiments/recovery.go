// Recovery scorecard: the durability claims of the service layer,
// evaluated end-to-end against real servers, journals, and stores. The
// profiling daemon promises that acknowledged work survives a crash,
// that a resumed sweep recomputes only its unfinished cells, that
// transient faults are retried behind the API without client
// involvement, and that permanently failing specs fast-fail through a
// circuit breaker instead of burning the worker pool. Each row here
// injects one failure — an abandoned daemon, a flaky run, a store that
// cannot persist — and asserts the recovery machinery holds.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/server"
	"repro/internal/store"
)

// RecoveryResult carries the evaluated claims plus the headline
// counters for rendering.
type RecoveryResult struct {
	Scorecard

	// Recovered is how many interrupted jobs the restarted server
	// re-enqueued from the journal.
	Recovered uint64
	// CellsReplayed and CellsRecomputed split the resumed sweep's cells
	// into checkpoint hits and fresh work.
	CellsReplayed   uint64
	CellsRecomputed uint64
	// Retried counts the transparent retry attempts behind the flaky
	// job's eventual success.
	Retried uint64
}

// recoverySpec is the cheapest real job: one-iteration blackscholes.
func recoverySpec(strategy string) server.Spec {
	return server.Spec{Workload: "blackscholes", Strategy: strategy, Iters: 1}
}

// awaitJob blocks until a job is terminal or the deadline passes.
func awaitJob(j *server.Job, d time.Duration) server.JobStatus {
	select {
	case <-j.Done():
	case <-time.After(d):
	}
	return j.Status()
}

// RunRecovery evaluates the recovery scorecard. iters is accepted for
// artifact-signature symmetry; the scenarios pin one-iteration runs so
// the injected failure, not the workload, dominates.
func RunRecovery(int) (*RecoveryResult, error) {
	defer timedExperiment("recovery")()
	res := &RecoveryResult{}

	dir, err := os.MkdirTemp("", "numad-recovery-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := res.runCrashRecovery(dir); err != nil {
		return nil, err
	}
	if err := res.runRetryScenario(dir); err != nil {
		return nil, err
	}
	if err := res.runBreakerScenario(dir); err != nil {
		return nil, err
	}
	return res, nil
}

// runCrashRecovery abandons a daemon mid-burst — one job finished, one
// claimed by a worker, a sweep still queued — then recovers its journal
// into a second daemon over the same store and checks RC1 (all
// acknowledged jobs terminal), RC2 (the sweep recomputes only missing
// cells), and RC5 (recovered profiles byte-identical to a fresh local
// run).
func (res *RecoveryResult) runCrashRecovery(dir string) error {
	jpath := filepath.Join(dir, store.JournalName)
	stA, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		return err
	}
	jlA, err := store.OpenJournal(jpath, 0)
	if err != nil {
		return err
	}
	held := make(chan *server.Job, 1)
	release := make(chan struct{})
	a, err := server.New(server.Options{
		Store: stA, Workers: 1, QueueDepth: 8, Journal: jlA,
		BeforeRun: func(j *server.Job) {
			if j.Status().Spec.Strategy == "interleave" {
				held <- j
				<-release
			}
		},
	})
	if err != nil {
		return err
	}
	a.Start()

	// Job 1 finishes before the "crash".
	j1, err := a.Submit(recoverySpec("baseline"))
	if err != nil {
		return err
	}
	st1 := awaitJob(j1, time.Minute)
	// Job 2 is claimed and held mid-run; the sweep never leaves the queue.
	j2, err := a.Submit(recoverySpec("interleave"))
	if err != nil {
		return err
	}
	<-held
	sweep := server.Spec{Workload: "blackscholes", Strategy: "baseline,interleave,blockwise", Iters: 1}
	j3, err := a.Submit(sweep)
	if err != nil {
		return err
	}

	// Crash: cut the journal, then let the abandoned daemon die quietly
	// (its held job cancels; its journal appends fail harmlessly).
	jlA.Close()
	a.CancelJob(j2.Status().ID)
	a.CancelJob(j3.Status().ID)
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	a.Shutdown(ctx)
	cancel()

	// Restart: replay the journal into a fresh server over the same
	// store. One worker, so the recovered jobs re-run in journal order
	// and the sweep sees both earlier profiles as checkpoints.
	rec, err := store.RecoverJournal(jpath)
	if err != nil {
		return err
	}
	if err := store.CompactJournal(jpath, rec); err != nil {
		return err
	}
	jlB, err := store.OpenJournal(jpath, rec.MaxSeq)
	if err != nil {
		return err
	}
	defer jlB.Close()
	stB, err := store.Open(filepath.Join(dir, "profiles"), 0)
	if err != nil {
		return err
	}
	b, err := server.New(server.Options{Store: stB, Workers: 1, QueueDepth: 8, Journal: jlB})
	if err != nil {
		return err
	}
	if err := b.Recover(rec); err != nil {
		return err
	}
	b.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		b.Shutdown(ctx)
	}()

	allTerminal := true
	var sweepStatus server.JobStatus
	for _, id := range []string{j1.Status().ID, j2.Status().ID, j3.Status().ID} {
		rj, ok := b.JobByID(id)
		if !ok {
			allTerminal = false
			continue
		}
		st := awaitJob(rj, time.Minute)
		if st.State != server.StateDone {
			allTerminal = false
		}
		if st.ID == j3.Status().ID {
			sweepStatus = st
		}
	}
	m := b.Metrics()
	res.Recovered = m.Counters["jobs_recovered_total"]
	res.CellsReplayed = m.Counters["jobs_cells_replayed_total"]
	res.CellsRecomputed = m.Counters["jobs_cells_recomputed_total"]

	res.add("RC1", "crash mid-burst: every acknowledged job recovers to done",
		allTerminal && res.Recovered == 2,
		fmt.Sprintf("recovered %d interrupted jobs (1 finished pre-crash)", res.Recovered))
	res.add("RC2", "resumed sweep recomputes only unfinished cells",
		len(sweepStatus.Cells) == 3 && res.CellsReplayed == 2 && res.CellsRecomputed == 1,
		fmt.Sprintf("cells replayed %d, recomputed %d of %d",
			res.CellsReplayed, res.CellsRecomputed, len(sweepStatus.Cells)))

	// Byte identity across the crash: the recovered profile equals a
	// fresh Build + Analyze + Save of the same spec.
	served, err := stB.Bytes(st1.Key)
	if err != nil {
		return err
	}
	cfg, app, err := recoverySpec("baseline").Build()
	if err != nil {
		return err
	}
	p, err := core.Analyze(cfg, app)
	if err != nil {
		return err
	}
	var ref bytes.Buffer
	if err := profio.Save(&ref, p); err != nil {
		return err
	}
	res.add("RC5", "recovered profile byte-identical to a fresh local run",
		bytes.Equal(served, ref.Bytes()),
		fmt.Sprintf("%d bytes served, %d bytes reference", len(served), ref.Len()))
	return nil
}

// runRetryScenario submits a job whose chaos plan fails its first two
// run attempts with a transient error and checks RC3: the daemon
// retries with backoff and the job succeeds with no client involvement.
func (res *RecoveryResult) runRetryScenario(dir string) error {
	st, err := store.Open(filepath.Join(dir, "retry-profiles"), 0)
	if err != nil {
		return err
	}
	s, err := server.New(server.Options{
		Store: st, Workers: 1, QueueDepth: 8,
		MaxRetries: 3, RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	spec := recoverySpec("baseline")
	spec.Chaos = "flaky=2"
	j, err := s.Submit(spec)
	if err != nil {
		return err
	}
	stt := awaitJob(j, time.Minute)
	res.Retried = s.Metrics().Counters["jobs_retried_total"]
	res.add("RC3", "transient faults retried with backoff, job succeeds without the client",
		stt.State == server.StateDone && stt.Attempt == 2 && res.Retried == 2,
		fmt.Sprintf("state %s after attempt %d, %d retries", stt.State, stt.Attempt, res.Retried))
	return nil
}

// runBreakerScenario makes one spec fail permanently (its store
// directory is removed, so persisting the computed profile fails) until
// the circuit breaker trips, and checks RC4: further submissions of
// that spec fast-fail with a Retry-After hint instead of re-running.
func (res *RecoveryResult) runBreakerScenario(dir string) error {
	bdir := filepath.Join(dir, "breaker-profiles")
	st, err := store.Open(bdir, 0)
	if err != nil {
		return err
	}
	s, err := server.New(server.Options{
		Store: st, Workers: 1, QueueDepth: 8,
		MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	if err != nil {
		return err
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if err := os.RemoveAll(bdir); err != nil {
		return err
	}
	spec := recoverySpec("baseline")
	failures := 0
	for i := 0; i < 2; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			return err
		}
		if awaitJob(j, time.Minute).State == server.StateFailed {
			failures++
		}
	}
	_, err = s.Submit(spec)
	_, hinted := server.RetryAfterHint(err)
	m := s.Metrics()
	res.add("RC4", "permanent failures trip the breaker; the spec fast-fails with Retry-After",
		failures == 2 && errors.Is(err, server.ErrCircuitOpen) && hinted &&
			m.Counters["jobs_breaker_trips_total"] == 1 && m.Counters["jobs_breaker_fastfails_total"] == 1,
		fmt.Sprintf("%d permanent failures, then %v", failures, err))
	return nil
}

// Render prints the recovery scorecard.
func (r *RecoveryResult) Render() string {
	return r.render("Recovery", fmt.Sprintf(
		"  jobs recovered %d; sweep cells replayed %d vs recomputed %d; transparent retries %d\n",
		r.Recovered, r.CellsReplayed, r.CellsRecomputed, r.Retried))
}
