package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/view"
)

// renderer renders the text view and counts its calls.
type renderer struct{ calls atomic.Int64 }

func (r *renderer) text(p *core.Profile, topVars int) (string, error) {
	r.calls.Add(1)
	return view.Text(p, topVars), nil
}

// fetch serves k's text view at five variables and returns a copy of
// its body.
func fetch(t *testing.T, s *Store, k Key, r *renderer) []byte {
	t.Helper()
	var body []byte
	if err := s.View(k, "text", 5, r.text, func(b []byte) { body = bytes.Clone(b) }); err != nil {
		t.Fatal(err)
	}
	return body
}

// viewStore opens a store with no memory cache, so every render
// decodes, and stores a profile under k.
func viewStore(t *testing.T, dir string, k Key) *Store {
	t.Helper()
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkRenders fails the test unless r rendered want times in all.
func checkRenders(t *testing.T, r *renderer, want int64, when string) {
	t.Helper()
	if n := r.calls.Load(); n != want {
		t.Fatalf("%s: %d renders in all, want %d", when, n, want)
	}
}

// The first fetch renders the view and writes its file; the next one
// serves the file's verified bytes: it decodes nothing, renders
// nothing, and returns the first fetch's bytes.
func TestViewRendersOnceThenServesItsFile(t *testing.T) {
	k := testKey("view")
	s := viewStore(t, t.TempDir(), k)
	var r renderer
	before := decodes()
	first := fetch(t, s, k, &r)
	if n := decodes() - before; n != 1 {
		t.Fatalf("first fetch decoded %d times, want 1", n)
	}
	p, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, []byte(view.Text(p, 5))) {
		t.Fatal("first fetch is not the rendered text view")
	}
	if onDisk, err := os.ReadFile(s.viewPath(k, "text", 5)); err != nil || !bytes.Equal(onDisk, first) {
		t.Fatalf("view file (err %v) does not hold the served bytes", err)
	}
	before = decodes()
	second := fetch(t, s, k, &r)
	if n := decodes() - before; n != 0 {
		t.Fatalf("second fetch decoded %d times, want 0", n)
	}
	checkRenders(t, &r, 1, "second fetch")
	if !bytes.Equal(second, first) {
		t.Fatal("second fetch differs from the first")
	}
	if st := s.Stats(); st.ViewRenders != 1 || st.ViewHits != 1 {
		t.Fatalf("stats = %+v, want 1 view render and 1 view hit", st)
	}
}

// A view file whose bytes changed on disk is rendered and written
// again, and the changed bytes are never served.
func TestViewChangedFileRerendered(t *testing.T) {
	k := testKey("changed")
	s := viewStore(t, t.TempDir(), k)
	var r renderer
	want := fetch(t, s, k, &r)
	path := s.viewPath(k, "text", 5)
	changed := bytes.Clone(want)
	changed[len(changed)/2] ^= 0x01
	for _, bad := range [][]byte{changed, want[:len(want)/2], nil} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		calls := r.calls.Load()
		if got := fetch(t, s, k, &r); !bytes.Equal(got, want) {
			t.Fatalf("served %d changed bytes", len(got))
		}
		checkRenders(t, &r, calls+1, "fetch over a changed file")
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, want) {
			t.Fatalf("view file not rewritten (err %v)", err)
		}
	}
}

// A fresh store on the same directory has recorded no view digest, so
// it renders a view once instead of trusting the file, then serves it.
func TestViewFreshStoreRendersOnce(t *testing.T) {
	dir, k := t.TempDir(), testKey("fresh")
	var r renderer
	want := fetch(t, viewStore(t, dir, k), k, &r)
	s2, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if got := fetch(t, s2, k, &r); !bytes.Equal(got, want) {
			t.Fatal("a fresh store served other bytes")
		}
	}
	checkRenders(t, &r, 2, "one fetch in each of two stores")
}

// A Put of the key, a corrupt drop, and other valid bytes under the key
// each forget its views: the next fetch renders again.
func TestViewForgottenOnPutCorruptDropAndNewBytes(t *testing.T) {
	k := testKey("forget")
	s := viewStore(t, t.TempDir(), k)
	raw, err := s.Bytes(k)
	if err != nil {
		t.Fatal(err)
	}
	var r renderer
	first := fetch(t, s, k, &r)
	steps := []struct {
		name  string
		apply func()
	}{
		{"Put", func() {
			if err := s.Put(k, testProfile(t, 1)); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt drop", func() {
			// A compute that fails stores nothing, so only the drop
			// itself can forget the views; the stored bytes then come
			// back whole.
			if err := os.WriteFile(s.Path(k), []byte("#numaprof-measurement-v2\ngarbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("compute failed")
			if _, err := s.GetOrCompute(context.Background(), k, func() (*core.Profile, error) { return nil, boom }); !errors.Is(err, boom) {
				t.Fatalf("GetOrCompute over a corrupt file: %v, want the compute's error", err)
			}
			if st := s.Stats(); st.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
			}
			if err := os.WriteFile(s.Path(k), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"other valid bytes", func() {
			if err := os.WriteFile(s.Path(k), profileBytes(t, testProfile(t, 2)), 0o644); err != nil {
				t.Fatal(err)
			}
			if cached, err := s.GetOrCompute(context.Background(), k, noCompute(t)); err != nil || !cached {
				t.Fatalf("disk hit on other valid bytes: cached=%v err=%v", cached, err)
			}
		}},
	}
	for _, step := range steps {
		step.apply()
		calls := r.calls.Load()
		got := fetch(t, s, k, &r)
		checkRenders(t, &r, calls+1, "fetch after "+step.name)
		p, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(view.Text(p, 5))) {
			t.Fatalf("after %s: the view is not the stored profile's", step.name)
		}
	}
	if got := fetch(t, s, k, &r); bytes.Equal(got, first) {
		t.Fatal("the view of other bytes equals the first profile's")
	}
}

// Concurrent first fetches of one view may each render, and all get
// the same bytes. Run it under -race.
func TestViewConcurrentFirstFetches(t *testing.T) {
	k := testKey("concurrent-view")
	s := viewStore(t, t.TempDir(), k)
	var r renderer
	const fetches = 8
	bodies := make([][]byte, fetches)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = fetch(t, s, k, &r)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("fetch %d got %d bytes that differ from fetch 0's %d", i, len(b), len(bodies[0]))
		}
	}
	calls := r.calls.Load()
	if calls < 1 || calls > fetches {
		t.Fatalf("%d concurrent fetches rendered %d times", fetches, calls)
	}
	if got := fetch(t, s, k, &r); !bytes.Equal(got, bodies[0]) {
		t.Fatal("the next fetch served other bytes")
	}
	checkRenders(t, &r, calls, "the fetch after the concurrent ones")
}

// A store that cannot write a view file still serves the rendered view,
// every time, and leaves no temp file behind.
func TestViewServedWhenItsFileCannotBeWritten(t *testing.T) {
	for name, block := range map[string]func(s *Store, k Key){
		// Renaming a file over a non-empty directory fails for every
		// user, root included.
		"path taken by a directory": func(s *Store, k Key) {
			path := s.viewPath(k, "text", 5)
			if err := os.MkdirAll(path+"/occupied", 0o755); err != nil {
				t.Fatal(err)
			}
		},
		"store directory removed": func(s *Store, _ Key) {
			if err := os.RemoveAll(s.Dir()); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			k := testKey("unwritable")
			// The memory cache keeps the profile for the removed directory.
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			p := testProfile(t, 1)
			if err := s.Put(k, p); err != nil {
				t.Fatal(err)
			}
			block(s, k)
			var r renderer
			want := []byte(view.Text(p, 5))
			for i := range 2 {
				if got := fetch(t, s, k, &r); !bytes.Equal(got, want) {
					t.Fatalf("fetch %d: %d bytes, want the %d-byte rendered view", i, len(got), len(want))
				}
			}
			checkRenders(t, &r, 2, "two fetches of an unwritable view")
			entries, _ := os.ReadDir(s.Dir())
			for _, e := range entries {
				if name := e.Name(); name != string(k)+Ext && name != string(k)+".text-5"+ViewExt {
					t.Errorf("left %s in the store", name)
				}
			}
		})
	}
}

// A verified view hit reads the file into a pooled buffer and hashes
// it, so the typical hit allocates a small fraction of the body on the
// store side. The median hit is measured because the race detector
// makes sync.Pool drop a quarter of the buffers it is given.
func TestViewHitAllocation(t *testing.T) {
	k := testKey("view-allocs")
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, luleshProfile(t)); err != nil {
		t.Fatal(err)
	}
	var r renderer
	body := fetch(t, s, k, &r)
	n := 0
	use := func(b []byte) { n = len(b) }
	const hits = 63
	allocs := make([]uint64, hits)
	var m0, m1 runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&m0)
		err := s.View(k, "text", 5, r.text, use)
		runtime.ReadMemStats(&m1)
		if err != nil || n != len(body) {
			t.Fatalf("hit %d: %d bytes, err %v", i, n, err)
		}
		allocs[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	checkRenders(t, &r, 1, "verified hits")
	slices.Sort(allocs)
	median := allocs[hits/2]
	if limit := uint64(len(body) / 4); median > limit {
		t.Fatalf("a verified hit on a %d-byte view allocated %d bytes in the median, want under %d", len(body), median, limit)
	}
	t.Logf("a verified hit on a %d-byte view allocated %d bytes in the median", len(body), median)
}
