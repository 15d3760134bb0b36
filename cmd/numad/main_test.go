package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestKillAndRestartRecovery is the durability acceptance test: a real
// numad process is SIGKILLed mid-burst — no drain, no goodbye — and a
// second process over the same data directory must bring every
// acknowledged job to a terminal state with byte-identical profiles.
func TestKillAndRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	daemon := startDaemon(t, bin, addr, dir)
	waitHealthy(t, base)

	// Job 1 finishes before the crash: it must survive as a terminal
	// job, not be re-run.
	id1 := submit(t, base, `{"workload":"blackscholes","strategy":"baseline","iters":1}`)
	st1 := pollTerminal(t, base, id1, 60*time.Second)
	if st1.State != server.StateDone {
		t.Fatalf("pre-crash job %s: %s (%s)", id1, st1.State, st1.Error)
	}

	// The burst: a sweep plus singles, against one worker, so the crash
	// lands with work queued and (likely) a sweep cell mid-flight.
	idSweep := submit(t, base, `{"workload":"blackscholes","strategy":"baseline,interleave,blockwise","iters":2}`)
	id2 := submit(t, base, `{"workload":"blackscholes","strategy":"interleave","iters":1}`)
	id3 := submit(t, base, `{"workload":"blackscholes","strategy":"guided","iters":1}`)

	// SIGKILL: the hard crash. No handler runs, nothing is flushed
	// beyond what the write-ahead journal already made durable.
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()

	restarted := startDaemon(t, bin, addr, dir)
	defer func() {
		restarted.Process.Signal(syscall.SIGTERM)
		restarted.Wait()
	}()
	waitHealthy(t, base)

	// Every acknowledged job reaches a terminal state — done, since
	// nothing here can legitimately fail.
	for _, id := range []string{id1, idSweep, id2, id3} {
		st := pollTerminal(t, base, id, 120*time.Second)
		if st.State != server.StateDone {
			t.Fatalf("job %s after restart: %s (%s)", id, st.State, st.Error)
		}
	}

	// Byte identity: the daemon's served measurement bytes equal a
	// local Build+Analyze+Save of the same spec, crash or no crash.
	refs := map[string]server.Spec{
		id1: {Workload: "blackscholes", Strategy: "baseline", Iters: 1},
		id2: {Workload: "blackscholes", Strategy: "interleave", Iters: 1},
		id3: {Workload: "blackscholes", Strategy: "guided", Iters: 1},
	}
	for id, spec := range refs {
		got := fetch(t, base+"/api/v1/jobs/"+id+"?view=profile")
		if !bytes.Equal(got, refProfile(t, spec)) {
			t.Errorf("job %s: served profile differs from local reference", id)
		}
	}

	// The journal did its job: the restarted daemon reports recovered
	// work, and the pre-crash job was adopted, not recomputed.
	var m telemetry.RegistrySnapshot
	if err := json.Unmarshal(fetch(t, base+"/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if counter(t, m, "jobs_recovered_total") == 0 {
		t.Error("restarted daemon recovered no jobs; the burst should have been interrupted")
	}
	if st := pollTerminal(t, base, id1, time.Second); st.Key != st1.Key {
		t.Errorf("pre-crash job changed key across restart: %s != %s", st.Key, st1.Key)
	}
}

// counter reads one counter from a /metrics snapshot. A missing name
// fails the test: numad registers its instruments up front, so a
// missing name is a typo that would otherwise read as 0.
func counter(t *testing.T, m telemetry.RegistrySnapshot, name string) uint64 {
	t.Helper()
	v, ok := m.Counters[name]
	if !ok {
		t.Fatalf("/metrics has no counter %q", name)
	}
	return v
}

// TestJournalDisabledStartsClean checks -journal=false still boots and
// serves (no WAL, no recovery).
func TestJournalDisabledStartsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	bin := buildDaemon(t)
	addr := freeAddr(t)
	base := "http://" + addr
	daemon := startDaemon(t, bin, addr, t.TempDir(), "-journal=false")
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	waitHealthy(t, base)
	id := submit(t, base, `{"workload":"blackscholes","strategy":"baseline","iters":1}`)
	if st := pollTerminal(t, base, id, 60*time.Second); st.State != server.StateDone {
		t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
	}
}

// buildDaemon compiles numad once per test binary run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "numad")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build numad: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startDaemon(t *testing.T, bin, addr, dir string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-dir", dir, "-workers", "1", "-log-level", "warn"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func submit(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d: %s", spec, resp.StatusCode, body)
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func pollTerminal(t *testing.T, base, id string, timeout time.Duration) server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var st server.JobStatus
	for {
		if err := json.Unmarshal(fetch(t, base+"/api/v1/jobs/"+id), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s stuck in %s", id, st.State)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// refProfile computes a spec's measurement bytes locally over the same
// Build + Analyze + Save path the CLI's -profile flag uses.
func refProfile(t *testing.T, spec server.Spec) []byte {
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
