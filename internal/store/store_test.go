package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// testProfile runs a real (tiny) profiling job: the store must hold
// exactly what the daemon will put in it.
func testProfile(t testing.TB, iters int) *core.Profile {
	t.Helper()
	m := topology.IvyBridge8()
	cfg := core.Config{
		Machine:     m,
		Threads:     4,
		Mechanism:   "IBS",
		CacheConfig: workloads.TunedCacheConfig(),
		MemParams:   workloads.MemParamsFor(m),
	}
	p, err := core.Analyze(cfg, workloads.NewBlackscholes(workloads.Params{Iters: iters}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testKey(parts ...string) Key {
	h := sha256.Sum256([]byte(fmt.Sprint(parts)))
	return Key(hex.EncodeToString(h[:]))
}

func profileBytes(t testing.TB, p *core.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profio.Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestKeyValid(t *testing.T) {
	good := testKey("a")
	if !good.Valid() {
		t.Fatalf("%q should be valid", good)
	}
	for _, k := range []Key{"", "abc", Key("../" + string(good)[3:]), Key(string(good)[:63] + "G")} {
		if k.Valid() {
			t.Fatalf("%q should be invalid", k)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile(t, 1)
	k := testKey("roundtrip")
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
	}
	if err := s.Put(k, p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profileBytes(t, got), profileBytes(t, p)) {
		t.Fatal("stored profile does not round-trip")
	}
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, profileBytes(t, p)) {
		t.Fatal("Bytes differ from profio.Save output")
	}
}

// File streams what Bytes reads, and an open file keeps its bytes when
// a Put replaces the key underneath it: the rename swaps the directory
// entry, not the open inode.
func TestFileSurvivesConcurrentPut(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("file")
	if _, _, err := s.File(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("File before Put: err = %v, want ErrNotFound", err)
	}
	if err := s.Put(k, testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	want, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	f, size, err := s.File(k)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size != int64(len(want)) {
		t.Fatalf("File size = %d, want %d", size, len(want))
	}
	if err := s.Put(k, testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	if now, err := s.Bytes(k); err != nil || bytes.Equal(now, want) {
		t.Fatalf("second Put did not replace the file (err %v)", err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("open file read %d bytes that differ from the %d it was opened with", len(got), len(want))
	}
}

func TestGetOrComputeTiers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("tiers")
	var computes atomic.Int64
	compute := func() (*core.Profile, error) {
		computes.Add(1)
		return testProfile(t, 1), nil
	}

	// First call: miss, computes and persists.
	_, cached, err := s.GetOrCompute(context.Background(), k, compute)
	if err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v", cached, err)
	}
	// Second call: memory hit.
	_, cached, err = s.GetOrCompute(context.Background(), k, compute)
	if err != nil || !cached {
		t.Fatalf("second call: cached=%v err=%v", cached, err)
	}
	// A fresh store over the same directory: disk hit.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, cached, err = s2.GetOrCompute(context.Background(), k, compute)
	if err != nil || !cached {
		t.Fatalf("fresh-store call: cached=%v err=%v", cached, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st, st2 := s.Stats(), s2.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st2.DiskHits != 1 {
		t.Fatalf("stats = %+v / %+v", st, st2)
	}
}

func TestGetOrComputeDedupsInflight(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("dedup")
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64
	owner := func() (*core.Profile, error) {
		computes.Add(1)
		close(started)
		<-release
		return testProfile(t, 1), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := s.GetOrCompute(context.Background(), k, owner); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// Ten duplicates arrive while the owner computes; all must share
	// its result without running compute again.
	const dups = 10
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
				t.Error("duplicate ran compute")
				return nil, errors.New("unreachable")
			})
			if err != nil || !cached {
				t.Errorf("duplicate: cached=%v err=%v", cached, err)
			}
		}()
	}
	// Let the duplicates queue up on the inflight call, then release.
	// The LRU is empty and the key is inflight, so every duplicate
	// must land in DedupWaits before it can block.
	for s.Stats().DedupWaits < dups {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if st := s.Stats(); st.DedupWaits != dups {
		t.Fatalf("DedupWaits = %d, want %d", st.DedupWaits, dups)
	}
}

// TestGetOrComputeCancelWhileComputing pins the single-flight
// cancellation contract (run it under -race): a waiter whose context
// dies while the owner computes abandons the wait with ctx.Err() and
// must NOT count as a dedup hit; the owner is unaffected and its result
// still serves later callers. Pre-fix the abandoned wait inflated
// DedupWaits (and so Hits()) for a result it never received.
func TestGetOrComputeCancelWhileComputing(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("cancelwait")
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			close(started)
			<-release
			return testProfile(t, 1), nil
		})
		ownerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, cached, err := s.GetOrCompute(ctx, k, func() (*core.Profile, error) {
			t.Error("canceled waiter ran compute")
			return nil, errors.New("unreachable")
		})
		if cached {
			t.Error("canceled waiter reported cached=true")
		}
		waiterDone <- err
	}()
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.DedupWaits != 0 || st.Hits() != 0 {
		t.Fatalf("abandoned wait counted as a hit: %+v", st)
	}

	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	_, cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		t.Error("post-owner call recomputed")
		return nil, errors.New("unreachable")
	})
	if err != nil || !cached {
		t.Fatalf("post-owner call: cached=%v err=%v", cached, err)
	}
}

// TestGetOrComputeWaiterRetriesAfterOwnerCancel: a waiter whose OWNER
// was cancelled retries the key itself instead of inheriting a
// cancellation that was never its own.
func TestGetOrComputeWaiterRetriesAfterOwnerCancel(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("ownercancel")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		// The owner's run dies mid-compute with its context's error.
		_, _, _ = s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
	}()
	<-started
	var recomputed atomic.Bool
	waiterDone := make(chan error, 1)
	go func() {
		_, cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			recomputed.Store(true)
			return testProfile(t, 1), nil
		})
		if cached {
			t.Error("retrying waiter reported cached=true")
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park on the owner
	close(release)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", err)
	}
	if !recomputed.Load() {
		t.Fatal("waiter did not retry after the owner's cancellation")
	}
}

// TestGetOrComputePanicCleansInflight: a panicking compute must not
// leak its in-flight entry (which would wedge every later call for the
// key behind a channel nobody closes). Parked waiters get an explicit
// aborted error, and the next call computes fresh.
func TestGetOrComputePanicCleansInflight(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("panicking")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic propagates to the caller
		_, _, _ = s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			close(started)
			<-release
			panic("compute blew up")
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	var waiterComputed atomic.Bool
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			waiterComputed.Store(true)
			return testProfile(t, 1), nil
		})
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park on the owner
	close(release)
	// A parked waiter sees the aborted error; a waiter that arrived
	// after cleanup computed fresh. Either way nothing may wedge.
	select {
	case err := <-waiterDone:
		if err != nil && !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("waiter after panicking owner: %v", err)
		}
		if err == nil && !waiterComputed.Load() {
			t.Fatal("waiter got a result nobody computed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter wedged behind a panicked owner")
	}
	// The in-flight table must be clean and the key computable again.
	s.mu.Lock()
	leaked := len(s.inflight)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d in-flight entries leaked after panic", leaked)
	}
	if _, _, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		return testProfile(t, 1), nil
	}); err != nil {
		t.Fatalf("key wedged after panicked compute: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile(t, 1)
	k1, k2, k3 := testKey("e1"), testKey("e2"), testKey("e3")
	for _, k := range []Key{k1, k2, k3} {
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// The evicted key is still on disk: Get reloads it.
	if _, err := s.Get(k1); err != nil {
		t.Fatalf("evicted key no longer loadable: %v", err)
	}
}

func TestCorruptFileRecomputedOver(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("corrupt")
	if err := os.WriteFile(s.Path(k), []byte("#numaprof-measurement-v2\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		return testProfile(t, 1), nil
	})
	if err != nil || cached {
		t.Fatalf("cached=%v err=%v, want fresh compute over corrupt file", cached, err)
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
	if _, err := s.Get(k); err != nil {
		t.Fatalf("recomputed file not loadable: %v", err)
	}
}

func TestKeysListing(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile(t, 1)
	want := []Key{testKey("k1"), testKey("k2"), testKey("k3")}
	for _, k := range want {
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	// Litter that must not be listed: temp-style files, wrong names,
	// and what older releases left beside the profiles (a checkpoints/
	// subdirectory of mid-cell blobs and an autotune.json sidecar). The
	// subdirectory holds a profile-named file so a listing that walked
	// into it would show.
	os.WriteFile(s.Path(Key("nothex"))+".junk", []byte("x"), 0o644)
	if err := os.MkdirAll(filepath.Join(s.Dir(), "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(s.Dir(), "checkpoints", string(testKey("k9"))+Ext), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(s.Dir(), "autotune.json"), []byte(`{"workloads":{}}`), 0o644)
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("Keys() = %v, want 3 keys", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not sorted: %v", keys)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("../../escape", testProfile(t, 1)); err == nil {
		t.Fatal("Put accepted a traversal key")
	}
	if _, _, err := s.GetOrCompute(context.Background(), "zz", nil); err == nil {
		t.Fatal("GetOrCompute accepted an invalid key")
	}
	if _, err := s.Bytes("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Bytes on invalid key: %v, want ErrNotFound", err)
	}
	if _, _, err := s.File("../../escape"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("File on invalid key: %v, want ErrNotFound", err)
	}
}
