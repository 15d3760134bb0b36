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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// testProfile runs a real (tiny) profiling job: the store must hold
// exactly what the daemon will put in it.
func testProfile(t testing.TB, iters int) *core.Profile {
	return analyze(t, workloads.NewBlackscholes(workloads.Params{Iters: iters}))
}

// luleshProfile runs one LULESH iteration, whose file (about 80 KB) is
// large enough that a call's fixed cost, about 1 KB, does not hide a
// copy of it.
func luleshProfile(t testing.TB) *core.Profile {
	return analyze(t, workloads.NewLULESH(workloads.Params{Iters: 1}))
}

func analyze(t testing.TB, app core.App) *core.Profile {
	t.Helper()
	m := topology.IvyBridge8()
	cfg := core.Config{
		Machine:     m,
		Threads:     4,
		Mechanism:   "IBS",
		CacheConfig: workloads.TunedCacheConfig(),
		MemParams:   workloads.MemParamsFor(m),
	}
	p, err := core.Analyze(cfg, app)
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
	cached, err := s.GetOrCompute(context.Background(), k, compute)
	if err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v", cached, err)
	}
	// Second call: memory hit.
	cached, err = s.GetOrCompute(context.Background(), k, compute)
	if err != nil || !cached {
		t.Fatalf("second call: cached=%v err=%v", cached, err)
	}
	// A fresh store over the same directory: disk hit.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = s2.GetOrCompute(context.Background(), k, compute)
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

// A failed compute stores nothing, so the next call for the key
// computes again instead of serving or waiting on the failure.
func TestGetOrComputeFailureStoresNothing(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("failing")
	boom := errors.New("compute failed")
	_, err = s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the compute's error", err)
	}
	if s.Has(k) {
		t.Fatal("failed compute left a profile in the store")
	}
	computes := 0
	cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		computes++
		return testProfile(t, 1), nil
	})
	if err != nil || cached || computes != 1 {
		t.Fatalf("next call: cached=%v err=%v computes=%d, want one fresh compute", cached, err, computes)
	}
	if !s.Has(k) {
		t.Fatal("recomputed profile not stored")
	}
	if st := s.Stats(); st.Misses != 2 || st.Saves != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 save", st)
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
		if _, err := s.GetOrCompute(context.Background(), k, owner); err != nil {
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
			cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
		_, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
		cached, err := s.GetOrCompute(ctx, k, func() (*core.Profile, error) {
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
	cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
		_, _ = s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
	}()
	<-started
	var recomputed atomic.Bool
	waiterDone := make(chan error, 1)
	go func() {
		cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
		_, _ = s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
			close(started)
			<-release
			panic("compute blew up")
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	var waiterComputed atomic.Bool
	go func() {
		_, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
	if _, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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
	cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
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

// decodes counts strict profio decodes in this process.
func decodes() uint64 { return telemetry.Default.Counter("profio_loads_total").Value() }

// verifiedStore opens a store with no memory cache over a fresh
// directory and stores p under k, then makes one disk hit, the strict
// load that records the file's digest.
func verifiedStore(t *testing.T, k Key, p *core.Profile) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, p); err != nil {
		t.Fatal(err)
	}
	before := decodes()
	if cached, err := s.GetOrCompute(context.Background(), k, nil); err != nil || !cached {
		t.Fatalf("first disk hit: cached=%v err=%v", cached, err)
	}
	if n := decodes() - before; n != 1 {
		t.Fatalf("first disk hit decoded %d times, want 1", n)
	}
	return s
}

// noCompute fails the test if a call that should hit runs compute.
func noCompute(t *testing.T) func() (*core.Profile, error) {
	return func() (*core.Profile, error) {
		t.Error("a disk hit ran compute")
		return nil, errors.New("unreachable")
	}
}

// Once a strict load has recorded a file's digest, a disk hit on the
// same bytes decodes nothing: it reads and hashes the file into a
// pooled buffer, so the typical hit allocates a small fraction of the
// file. The median hit is measured because the race detector makes
// sync.Pool drop a quarter of the buffers it is given.
func TestDiskHitVerifiesWithoutDecoding(t *testing.T) {
	k := testKey("verified")
	s := verifiedStore(t, k, luleshProfile(t))
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	const hits = 63
	allocs := make([]uint64, hits)
	before := decodes()
	var m0, m1 runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&m0)
		cached, err := s.GetOrCompute(context.Background(), k, noCompute(t))
		runtime.ReadMemStats(&m1)
		if err != nil || !cached {
			t.Fatalf("hit %d: cached=%v err=%v", i, cached, err)
		}
		allocs[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	if n := decodes() - before; n != 0 {
		t.Fatalf("%d verified disk hits decoded %d times, want 0", hits, n)
	}
	if st := s.Stats(); st.DiskHits != hits+1 || st.Misses != 0 || st.CorruptDropped != 0 {
		t.Fatalf("stats = %+v, want %d disk hits and nothing else", st, hits+1)
	}
	slices.Sort(allocs)
	median := allocs[hits/2]
	if limit := uint64(len(raw) / 4); median > limit {
		t.Fatalf("a verified disk hit on a %d-byte file allocated %d bytes in the median, want under %d", len(raw), median, limit)
	}
	t.Logf("a verified disk hit on a %d-byte file allocated %d bytes in the median", len(raw), median)
}

// A file whose bytes changed after its digest was recorded is loaded
// strictly again: one flipped byte fails that load, and the call drops
// the file and recomputes.
func TestDiskHitFlippedByteRecomputes(t *testing.T) {
	k := testKey("flipped")
	s := verifiedStore(t, k, testProfile(t, 1))
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(s.Path(k), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	computes := 0
	cached, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) {
		computes++
		return testProfile(t, 1), nil
	})
	if err != nil || cached || computes != 1 {
		t.Fatalf("cached=%v err=%v computes=%d, want one fresh compute over the flipped file", cached, err, computes)
	}
	if st := s.Stats(); st.CorruptDropped != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt drop and 1 miss", st)
	}
}

// Another spec's valid bytes under a key are not the bytes whose digest
// was recorded: the call loads them strictly, serves them as a hit and
// records their digest, so the next hit decodes nothing.
func TestDiskHitOtherValidBytesDecoded(t *testing.T) {
	k := testKey("replaced")
	s := verifiedStore(t, k, testProfile(t, 1))
	other := profileBytes(t, testProfile(t, 2))
	if err := os.WriteFile(s.Path(k), other, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 0} {
		before := decodes()
		cached, err := s.GetOrCompute(context.Background(), k, noCompute(t))
		if err != nil || !cached {
			t.Fatalf("call %d: cached=%v err=%v", i, cached, err)
		}
		if n := decodes() - before; n != want {
			t.Fatalf("call %d decoded %d times, want %d", i, n, want)
		}
	}
	if st := s.Stats(); st.CorruptDropped != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want no corrupt drop and no miss", st)
	}
	p, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profileBytes(t, p), other) {
		t.Fatal("the served profile is not the replacement file's")
	}
}

// A verified disk hit admits its key to the LRU without a profile: the
// next GetOrCompute is a memory hit that opens no file, and a Get on
// the key-only entry decodes once, then serves from memory.
func TestVerifiedDiskHitAdmitsKeyOnly(t *testing.T) {
	s, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	k, other := testKey("key-only"), testKey("other")
	for _, key := range []Key{k, other} {
		if err := s.Put(key, testProfile(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	// The one-entry LRU holds other. k's first disk hit decodes and
	// records its digest, other's disk hit evicts k, and k's second
	// disk hit is verified by digest.
	ctx := context.Background()
	before := decodes()
	for _, key := range []Key{k, other, k} {
		if cached, err := s.GetOrCompute(ctx, key, noCompute(t)); err != nil || !cached {
			t.Fatalf("disk hit: cached=%v err=%v", cached, err)
		}
	}
	if n := decodes() - before; n != 2 {
		t.Fatalf("three disk hits decoded %d times, want 2", n)
	}
	// With the file gone, only a hit that opens no file can succeed.
	if err := os.Remove(s.Path(k)); err != nil {
		t.Fatal(err)
	}
	if cached, err := s.GetOrCompute(ctx, k, noCompute(t)); err != nil || !cached {
		t.Fatalf("hit after a verified disk hit: cached=%v err=%v", cached, err)
	}
	if st := s.Stats(); st.MemHits != 1 || st.DiskHits != 3 {
		t.Fatalf("stats = %+v, want 1 memory hit and 3 disk hits", st)
	}
	if err := os.WriteFile(s.Path(k), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var first *core.Profile
	for i, want := range []uint64{1, 0} {
		before := decodes()
		p, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if n := decodes() - before; n != want {
			t.Fatalf("Get %d decoded %d times, want %d", i, n, want)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Fatal("the second Get did not serve the profile the first one decoded")
		}
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
	// A view file, written the way views are, sits beside its profile.
	text := func(*core.Profile, int) (string, error) { return "view", nil }
	if err := s.View(want[0], "text", 5, text, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.viewPath(want[0], "text", 5)); err != nil {
		t.Fatal(err)
	}
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
	if _, err := s.GetOrCompute(context.Background(), "zz", nil); err == nil {
		t.Fatal("GetOrCompute accepted an invalid key")
	}
	if _, err := s.Bytes("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Bytes on invalid key: %v, want ErrNotFound", err)
	}
	if _, _, err := s.File("../../escape"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("File on invalid key: %v, want ErrNotFound", err)
	}
	text := func(*core.Profile, int) (string, error) { return "view", nil }
	if err := s.View("../../escape", "text", 5, text, func([]byte) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View on invalid key: %v, want ErrNotFound", err)
	}
	for _, kind := range []string{"", "../text", "Text", "te/xt"} {
		if err := s.View(testKey("k"), kind, 5, text, func([]byte) {}); err == nil {
			t.Fatalf("View accepted the kind %q", kind)
		}
	}
}
