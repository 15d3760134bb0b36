// Package store is the profile store behind the numad daemon: a
// content-addressed directory of .numaprof measurement files and the
// views rendered from them, fronted by an in-memory LRU of keys and a
// single-flight table that dedups identical in-flight computations.
//
// Keys are the SHA-256 of the canonical job spec (internal/server
// computes them), so two submissions of the same spec address the same
// file — the determinism contract of internal/sched guarantees the
// bytes would be identical anyway, the store just avoids paying for the
// run twice. Files are written via profio.SaveFile's temp+rename, so a
// key is present exactly when its bytes are whole: the store never
// serves a torn profile, even across a daemon crash.
//
// GetOrCompute makes sure a key's profile is stored and reports whether
// it already was; Get returns it decoded. A disk hit in GetOrCompute
// reads the file once and hashes it: bytes whose SHA-256 already passed
// a strict load under that key in this process are served without
// decoding and admit the key to the LRU alone, and any other bytes are
// strictly decoded, so a hit is reported exactly when a strict load of
// the file would succeed. An LRU entry holds a decoded profile only
// once something has read it: only the callers that read a profile pay
// for decoding it.
//
// View serves a rendered view (the text or HTML report) from a file
// beside the profile, rendered once per key and view per process: a
// read is served only if its bytes hash to the digest this process
// recorded when it wrote the file, and any other read renders the view
// again and rewrites the file.
//
// Concurrency contract: every method is safe for concurrent use.
// GetOrCompute guarantees at most one compute per key at a time
// (duplicates block and share the owner's result); a corrupt file found
// on disk is treated as absent and recomputed over, never served.
package store

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/telemetry"
)

// Ext is the measurement-file extension the store manages.
const Ext = ".numaprof"

// ViewExt is the extension of a rendered view file. A view file never
// ends in Ext, so Keys does not list it.
const ViewExt = ".view"

// ErrNotFound reports a key with no stored profile.
var ErrNotFound = errors.New("store: profile not found")

// Key addresses one profile: 64 hex chars of SHA-256.
type Key string

// Valid reports whether k is a well-formed key. Paths are built from
// keys, so this is also the path-traversal guard for keys arriving from
// the HTTP API.
func (k Key) Valid() bool {
	if len(k) != 64 {
		return false
	}
	for _, c := range k {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Stats are the store's monotonic counters, served by /metrics.
type Stats struct {
	// MemHits / DiskHits / Misses classify GetOrCompute outcomes:
	// served from the LRU, served from disk, or computed fresh. A disk
	// hit decodes only bytes no strict load has passed in this process.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// DedupWaits counts calls that found the same key already
	// computing and shared its result instead of recomputing.
	DedupWaits uint64 `json:"dedup_waits"`
	// Saves counts profiles persisted; Evictions counts LRU drops.
	Saves     uint64 `json:"saves"`
	Evictions uint64 `json:"evictions"`
	// CorruptDropped counts on-disk files that failed a strict load
	// and were recomputed over.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	// ViewHits counts views served from a verified view file;
	// ViewRenders counts views rendered because no such file was there.
	ViewHits    uint64 `json:"view_hits"`
	ViewRenders uint64 `json:"view_renders"`
}

// Hits is the total served without a fresh compute.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits + s.DedupWaits }

// call is one in-flight compute, shared by duplicate keys.
type call struct {
	done chan struct{}
	err  error
}

// lruEntry is one key in the memory cache: a key stored or verified on
// disk in this process, with its decoded profile once a reader has
// loaded it (p is nil until then).
type lruEntry struct {
	key          Key
	p            *core.Profile
	newer, older *lruEntry
}

// Store is the content-addressed profile store.
type Store struct {
	dir        string
	maxEntries int

	mu       sync.Mutex
	entries  map[Key]*lruEntry
	newest   *lruEntry
	oldest   *lruEntry
	inflight map[Key]*call
	// digests holds, per key, the SHA-256 of the last bytes read from
	// its file that passed a strict load in this process.
	digests map[Key][sha256.Size]byte
	// views holds, per key, the digests of the view files this process
	// wrote. Forgetting a key's views deletes its set, so a render of a
	// profile taken before the forget finds another set and records
	// nothing.
	views map[Key]*viewSet

	memHits, diskHits, misses    atomic.Uint64
	dedupWaits, saves, evictions atomic.Uint64
	corruptDropped               atomic.Uint64
	viewHits, viewRenders        atomic.Uint64
}

// viewSet is one key's view-file digests, by view.
type viewSet struct {
	sums map[viewID][sha256.Size]byte
}

// viewID names one view of a key: its kind and the topVars it was
// rendered with.
type viewID struct {
	kind    string
	topVars int
}

// DefaultCacheEntries is the LRU capacity when Open is given 0.
const DefaultCacheEntries = 128

// Open creates (if needed) and opens a store directory. cacheEntries
// bounds the LRU of keys stored or verified in this process, each with
// its decoded profile once something has read it: 0 means
// DefaultCacheEntries, negative disables the memory cache entirely: Get
// then decodes from disk every time, and GetOrCompute still serves a
// disk hit by digest.
func Open(dir string, cacheEntries int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if cacheEntries == 0 {
		cacheEntries = DefaultCacheEntries
	}
	return &Store{
		dir:        dir,
		maxEntries: cacheEntries,
		entries:    make(map[Key]*lruEntry),
		inflight:   make(map[Key]*call),
		digests:    make(map[Key][sha256.Size]byte),
		views:      make(map[Key]*viewSet),
	}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path a key addresses.
func (s *Store) Path(k Key) string { return filepath.Join(s.dir, string(k)+Ext) }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		MemHits:        s.memHits.Load(),
		DiskHits:       s.diskHits.Load(),
		Misses:         s.misses.Load(),
		DedupWaits:     s.dedupWaits.Load(),
		Saves:          s.saves.Load(),
		Evictions:      s.evictions.Load(),
		CorruptDropped: s.corruptDropped.Load(),
		ViewHits:       s.viewHits.Load(),
		ViewRenders:    s.viewRenders.Load(),
	}
}

// Has reports whether a key is resident in memory or on disk.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	_, inMem := s.entries[k]
	s.mu.Unlock()
	if inMem {
		return true
	}
	_, err := os.Stat(s.Path(k))
	return err == nil
}

// Get returns the decoded profile for a key — the LRU's profile first,
// then a strict disk load that records the bytes' digest and admits
// the profile to the LRU, filling a key-only entry — without touching
// the hit/miss counters (those account for job execution via
// GetOrCompute, not for views re-reading results). It is how a caller
// that reads the profile gets it. Returns ErrNotFound when the key has
// no stored profile.
func (s *Store) Get(k Key) (*core.Profile, error) {
	p, _, err := s.get(k)
	return p, err
}

// get is Get that also returns k's view set as it stood when the
// profile was taken, under the same lock: a forget after that replaces
// the set, so a view rendered from the profile is recorded only while
// the set still belongs to it.
func (s *Store) get(k Key) (*core.Profile, *viewSet, error) {
	if !k.Valid() {
		return nil, nil, ErrNotFound
	}
	s.mu.Lock()
	if e, ok := s.entries[k]; ok && e.p != nil {
		s.touch(e)
		p, vs := e.p, s.viewSetOf(k)
		s.mu.Unlock()
		return p, vs, nil
	}
	s.mu.Unlock()
	p, vs, err := s.load(k, true)
	if os.IsNotExist(err) {
		return nil, nil, ErrNotFound
	}
	return p, vs, err
}

// Bytes returns the raw measurement-file bytes for a key — what a
// client would have gotten from `numaprof -profile`, byte for byte.
func (s *Store) Bytes(k Key) ([]byte, error) {
	if !k.Valid() {
		return nil, ErrNotFound
	}
	b, err := os.ReadFile(s.Path(k))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return b, err
}

// File opens the measurement file for a key and returns it with its
// size, for callers that stream the bytes instead of holding them; the
// caller closes it. A concurrent Put replaces the file by rename, so the
// open descriptor still reads one whole file: the one File opened.
func (s *Store) File(k Key) (*os.File, int64, error) {
	if !k.Valid() {
		return nil, 0, ErrNotFound
	}
	f, err := os.Open(s.Path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, ErrNotFound
		}
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// Put persists a profile under a key (atomic temp+rename), admits it
// to the memory cache and forgets the key's views.
func (s *Store) Put(k Key, p *core.Profile) error {
	if !k.Valid() {
		return fmt.Errorf("store: invalid key %q", k)
	}
	if err := profio.SaveFile(s.Path(k), p); err != nil {
		return err
	}
	s.saves.Add(1)
	s.mu.Lock()
	s.cachePut(k, p)
	delete(s.views, k)
	s.mu.Unlock()
	return nil
}

// GetOrCompute makes sure a key's profile is stored, computing and
// persisting it if absent, and reports whether it was already there.
// It returns no profile: a caller that reads one calls Get. At most one
// compute per key runs at a time: duplicate calls block on the owner
// and share its outcome. cached reports whether the profile was served
// without running compute in this call — from memory, disk, or a
// deduped twin. A disk hit reads the file once: bytes whose digest
// passed a strict load under k in this process are served without
// decoding and admit k to the LRU without a profile, and other bytes
// are strictly decoded and, if they pass, admitted with their profile.
// A cancelled ctx abandons the wait (the owner's compute keeps running
// and still persists for the next caller); a waiter whose owner was
// cancelled retries rather than inheriting the cancellation.
func (s *Store) GetOrCompute(ctx context.Context, k Key, compute func() (*core.Profile, error)) (cached bool, err error) {
	if !k.Valid() {
		return false, fmt.Errorf("store: invalid key %q", k)
	}
	ctx, done := telemetry.Timed(ctx, "store.get_or_compute", telemetry.String("key", string(k)))
	defer done()
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok {
			s.touch(e)
			s.mu.Unlock()
			s.memHits.Add(1)
			return true, nil
		}
		if c, ok := s.inflight[k]; ok {
			s.mu.Unlock()
			// Count the wait before blocking so queued duplicates are
			// observable while the owner still computes; any exit that
			// does not actually share the owner's result uncounts itself
			// below — an abandoned or failed wait is not a hit.
			s.dedupWaits.Add(1)
			select {
			case <-c.done:
			case <-ctx.Done():
				s.dedupWaits.Add(^uint64(0))
				return false, ctx.Err()
			}
			if c.err != nil {
				s.dedupWaits.Add(^uint64(0))
				if errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
					continue // the owner was cancelled, not us: retry
				}
				return false, c.err
			}
			return true, nil
		}
		c := &call{done: make(chan struct{})}
		s.inflight[k] = c
		s.mu.Unlock()

		// The owner cleans up via defer so a panicking compute can never
		// leak the in-flight entry (which would wedge every later call
		// for this key behind a channel nobody will close). An owner
		// that did not record its finish died mid-call, so its waiters
		// get an error, not a hit.
		func() {
			finished := false
			defer func() {
				if !finished {
					c.err = fmt.Errorf("store: compute for %s aborted", k)
				}
				s.mu.Lock()
				delete(s.inflight, k)
				s.mu.Unlock()
				close(c.done)
			}()
			cached, err = s.fill(ctx, k, compute)
			c.err, finished = err, true
		}()
		return cached, err
	}
}

// fill is the owner path of GetOrCompute: disk, then compute+persist.
func (s *Store) fill(ctx context.Context, k Key, compute func() (*core.Profile, error)) (bool, error) {
	switch _, _, err := s.load(k, false); {
	case err == nil:
		s.diskHits.Add(1)
		return true, nil
	case !os.IsNotExist(err):
		// A file is there but strict-load fails: profio's atomic writes
		// make this external damage (bit rot, a hand-edited file), so
		// recompute over it rather than serving or failing on it.
		s.corruptDropped.Add(1)
		s.mu.Lock()
		delete(s.views, k)
		s.mu.Unlock()
		telemetry.Logger("store").Warn("dropping corrupt profile, recomputing",
			"key", string(k), "path", s.Path(k), "err", err.Error())
	}
	s.misses.Add(1)
	_, computeDone := telemetry.Timed(ctx, "store.compute", telemetry.String("key", string(k)))
	p, err := compute()
	computeDone()
	if err != nil {
		return false, err
	}
	if err := s.Put(k, p); err != nil {
		return false, err
	}
	return false, nil
}

// load reads k's file once, through profio.WithFileBytes, and hashes
// its bytes. If decode is false and the digest is the one recorded for
// k, the bytes have passed a strict load before: load admits k to the
// LRU without a profile and returns a nil profile without decoding.
// Otherwise it strictly decodes the same bytes and, on success, records
// their digest, admits the profile and returns it with k's view set. A
// digest other than the one recorded forgets k's views first, under
// the same lock. A missing file is an os.IsNotExist error.
func (s *Store) load(k Key, decode bool) (p *core.Profile, vs *viewSet, err error) {
	err = profio.WithFileBytes(s.Path(k), func(data []byte) error {
		sum := sha256.Sum256(data)
		if !decode {
			s.mu.Lock()
			known, ok := s.digests[k]
			verified := ok && known == sum
			if verified {
				s.cachePut(k, nil)
			}
			s.mu.Unlock()
			if verified {
				return nil
			}
		}
		var err error
		if p, err = profio.LoadBytes(data); err != nil {
			return err
		}
		s.mu.Lock()
		if known, ok := s.digests[k]; !ok || known != sum {
			s.digests[k] = sum
			delete(s.views, k)
		}
		s.cachePut(k, p)
		vs = s.viewSetOf(k)
		s.mu.Unlock()
		return nil
	})
	return p, vs, err
}

// View serves the view kind of k's profile, rendered with topVars, from
// a file beside the profile, <key>.<kind>-<topVars>.view. It reads
// the file into a pooled buffer and passes its bytes to use only if
// their SHA-256 is the digest this process recorded when it wrote the
// file. Anything else — no file, a digest this process never recorded
// (a fresh process), or bytes that changed — is a miss: View renders
// render(p, topVars) from Get's profile, writes the file by temp +
// rename, records its digest and passes the rendered bytes to use, so
// unverified bytes are never served. A file that cannot be written is
// logged and the rendered bytes are still served. Two concurrent misses
// may both render; the renders are identical and the rename is atomic.
// use must keep no reference into body. kind is lower-case letters.
func (s *Store) View(k Key, kind string, topVars int, render func(*core.Profile, int) (string, error), use func(body []byte)) error {
	if !k.Valid() {
		return ErrNotFound
	}
	if !validKind(kind) {
		return fmt.Errorf("store: invalid view kind %q", kind)
	}
	id, path := viewID{kind, topVars}, s.viewPath(k, kind, topVars)
	served := false
	// A read that fails (no file, most often) is a miss like any other.
	profio.WithFileBytes(path, func(data []byte) error {
		sum := sha256.Sum256(data)
		s.mu.Lock()
		if vs := s.views[k]; vs != nil {
			known, ok := vs.sums[id]
			served = ok && known == sum
		}
		s.mu.Unlock()
		if served {
			s.viewHits.Add(1)
			use(data)
		}
		return nil
	})
	if served {
		return nil
	}
	p, vs, err := s.get(k)
	if err != nil {
		return err
	}
	text, err := render(p, topVars)
	if err != nil {
		return err
	}
	s.viewRenders.Add(1)
	body := []byte(text)
	if err := writeView(path, body); err != nil {
		telemetry.Logger("store").Warn("view file not written, serving the rendered view",
			"key", string(k), "path", path, "err", err.Error())
	} else {
		sum := sha256.Sum256(body)
		s.mu.Lock()
		if s.views[k] == vs {
			if vs.sums == nil {
				vs.sums = make(map[viewID][sha256.Size]byte)
			}
			vs.sums[id] = sum
		}
		s.mu.Unlock()
	}
	use(body)
	return nil
}

// viewPath names the file of one view of k: <key>.<kind>-<topVars>.view.
func (s *Store) viewPath(k Key, kind string, topVars int) string {
	return filepath.Join(s.dir, string(k)+"."+kind+"-"+strconv.Itoa(topVars)+ViewExt)
}

// validKind reports whether a view kind is non-empty lower-case
// letters, which keeps it from naming a path outside the store.
func validKind(kind string) bool {
	for _, c := range kind {
		if c < 'a' || c > 'z' {
			return false
		}
	}
	return kind != ""
}

// writeView writes a view file by temp + rename, without a sync: a
// view file is verified on every read, and a fresh process renders it
// again before it serves it.
func writeView(path string, body []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(body); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Keys lists every stored key, sorted, from a directory scan.
func (s *Store) Keys() ([]Key, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []Key
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, Ext) {
			continue
		}
		k := Key(strings.TrimSuffix(name, Ext))
		if k.Valid() {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// Flush makes past renames durable by syncing the store directory.
// Writes are already atomic; this is the shutdown barrier.
func (s *Store) Flush() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// viewSetOf returns k's view set, making an empty one if k has none.
// Callers hold mu.
func (s *Store) viewSetOf(k Key) *viewSet {
	vs := s.views[k]
	if vs == nil {
		vs = new(viewSet)
		s.views[k] = vs
	}
	return vs
}

// cachePut admits k, evicting the oldest entry past capacity. A nil p
// admits the key alone and keeps any profile its entry already holds.
// Callers hold mu.
func (s *Store) cachePut(k Key, p *core.Profile) {
	if s.maxEntries < 0 {
		return
	}
	if e, ok := s.entries[k]; ok {
		if p != nil {
			e.p = p
		}
		s.touch(e)
		return
	}
	e := &lruEntry{key: k, p: p}
	s.entries[k] = e
	s.push(e)
	for len(s.entries) > s.maxEntries {
		old := s.oldest
		s.unlink(old)
		delete(s.entries, old.key)
		s.evictions.Add(1)
	}
}

// touch moves an entry to the newest end. Callers hold mu.
func (s *Store) touch(e *lruEntry) {
	if s.newest == e {
		return
	}
	s.unlink(e)
	s.push(e)
}

// push links e as newest. Callers hold mu.
func (s *Store) push(e *lruEntry) {
	e.older = s.newest
	e.newer = nil
	if s.newest != nil {
		s.newest.newer = e
	}
	s.newest = e
	if s.oldest == nil {
		s.oldest = e
	}
}

// unlink removes e from the recency list. Callers hold mu.
func (s *Store) unlink(e *lruEntry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		s.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		s.oldest = e.newer
	}
	e.newer, e.older = nil, nil
}
