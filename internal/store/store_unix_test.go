//go:build unix

package store

import (
	"context"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Eight concurrent calls on a key that is on disk and not in memory all
// hit, and none computes: the owner of the first round decodes the
// file, the owner of the second verifies it by digest, and the seven
// calls that wait on each owner share its hit. The key's file is a FIFO
// while the calls start, so the owner's read blocks until every other
// call waits on it.
func TestConcurrentDiskHitsShareOwner(t *testing.T) {
	k := testKey("concurrent")
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 8
	for round, wantDecodes := range []uint64{1, 0} {
		if err := os.Remove(s.Path(k)); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mkfifo(s.Path(k), 0o644); err != nil {
			t.Fatal(err)
		}
		before, waits := decodes(), s.Stats().DedupWaits
		var wg sync.WaitGroup
		for range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cached, err := s.GetOrCompute(context.Background(), k, noCompute(t))
				if err != nil || !cached {
					t.Errorf("round %d: cached=%v err=%v, want a hit", round, cached, err)
				}
			}()
		}
		deadline := time.Now().Add(30 * time.Second)
		for s.Stats().DedupWaits < waits+calls-1 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d calls wait on the owner", round, s.Stats().DedupWaits-waits, calls-1)
			}
			runtime.Gosched()
		}
		// Opening the FIFO for writing lets the owner's open return.
		fifo, err := os.OpenFile(s.Path(k), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fifo.Write(raw); err != nil {
			t.Fatal(err)
		}
		fifo.Close()
		wg.Wait()
		if n := decodes() - before; n != wantDecodes {
			t.Fatalf("round %d decoded %d times, want %d", round, n, wantDecodes)
		}
	}
	if st := s.Stats(); st.DiskHits != 2 || st.DedupWaits != 2*(calls-1) || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 disk hits and %d dedup waits", st, 2*(calls-1))
	}
}
