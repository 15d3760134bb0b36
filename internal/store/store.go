// Package store is the profile store behind the numad daemon: a
// content-addressed directory of .numaprof measurement files fronted by
// an in-memory LRU of decoded profiles and a single-flight table that
// dedups identical in-flight computations.
//
// Keys are the SHA-256 of the canonical job spec (internal/server
// computes them), so two submissions of the same spec address the same
// file — the determinism contract of internal/sched guarantees the
// bytes would be identical anyway, the store just avoids paying for the
// run twice. Files are written via profio.SaveFile's temp+rename, so a
// key is present exactly when its bytes are whole: the store never
// serves a torn profile, even across a daemon crash.
//
// Concurrency contract: every method is safe for concurrent use.
// GetOrCompute guarantees at most one compute per key at a time
// (duplicates block and share the owner's result); a corrupt file found
// on disk is treated as absent and recomputed over, never served.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/profio"
	"repro/internal/telemetry"
)

// Ext is the measurement-file extension the store manages.
const Ext = ".numaprof"

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
	// served from the LRU, decoded from disk, or computed fresh.
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
}

// Hits is the total served without a fresh compute.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits + s.DedupWaits }

// call is one in-flight compute, shared by duplicate keys.
type call struct {
	done chan struct{}
	p    *core.Profile
	err  error
}

// lruEntry is one decoded profile in the memory cache.
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

	memHits, diskHits, misses    atomic.Uint64
	dedupWaits, saves, evictions atomic.Uint64
	corruptDropped               atomic.Uint64
}

// DefaultCacheEntries is the LRU capacity when Open is given 0.
const DefaultCacheEntries = 128

// Open creates (if needed) and opens a store directory. cacheEntries
// bounds the decoded-profile LRU: 0 means DefaultCacheEntries, negative
// disables the memory cache entirely (every hit decodes from disk).
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

// Get returns the decoded profile for a key — LRU first, then a strict
// disk load — without touching the hit/miss counters (those account for
// job execution via GetOrCompute, not for views re-reading results).
// Returns ErrNotFound when the key has no stored profile.
func (s *Store) Get(k Key) (*core.Profile, error) {
	if !k.Valid() {
		return nil, ErrNotFound
	}
	if p := s.cacheGet(k); p != nil {
		return p, nil
	}
	p, err := profio.LoadFile(s.Path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	s.cachePut(k, p)
	return p, nil
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

// Put persists a profile under a key (atomic temp+rename) and admits it
// to the memory cache.
func (s *Store) Put(k Key, p *core.Profile) error {
	if !k.Valid() {
		return fmt.Errorf("store: invalid key %q", k)
	}
	if err := profio.SaveFile(s.Path(k), p); err != nil {
		return err
	}
	s.saves.Add(1)
	s.cachePut(k, p)
	return nil
}

// GetOrCompute returns the profile for a key, computing and persisting
// it if absent. At most one compute per key runs at a time: duplicate
// calls block on the owner and share its result. cached reports whether
// the profile was served without running compute in this call — from
// memory, disk, or a deduped twin. A cancelled ctx abandons the wait
// (the owner's compute keeps running and still persists for the next
// caller); a waiter whose owner was cancelled retries rather than
// inheriting the cancellation.
func (s *Store) GetOrCompute(ctx context.Context, k Key, compute func() (*core.Profile, error)) (p *core.Profile, cached bool, err error) {
	if !k.Valid() {
		return nil, false, fmt.Errorf("store: invalid key %q", k)
	}
	ctx, done := telemetry.Timed(ctx, "store.get_or_compute", telemetry.String("key", string(k)))
	defer done()
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok {
			s.touch(e)
			s.mu.Unlock()
			s.memHits.Add(1)
			return e.p, true, nil
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
				return nil, false, ctx.Err()
			}
			if c.err != nil {
				s.dedupWaits.Add(^uint64(0))
				if errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
					continue // the owner was cancelled, not us: retry
				}
				return nil, false, c.err
			}
			return c.p, true, nil
		}
		c := &call{done: make(chan struct{})}
		s.inflight[k] = c
		s.mu.Unlock()

		// The owner cleans up via defer so a panicking compute can never
		// leak the in-flight entry (which would wedge every later call
		// for this key behind a channel nobody will close). Waiters on a
		// call that died without a result get an error, not a nil hit.
		func() {
			defer func() {
				if c.p == nil && c.err == nil {
					c.err = fmt.Errorf("store: compute for %s aborted", k)
				}
				s.mu.Lock()
				delete(s.inflight, k)
				s.mu.Unlock()
				close(c.done)
			}()
			p, cached, err = s.fill(ctx, k, compute)
			c.p, c.err = p, err
		}()
		return p, cached, err
	}
}

// fill is the owner path of GetOrCompute: disk, then compute+persist.
func (s *Store) fill(ctx context.Context, k Key, compute func() (*core.Profile, error)) (*core.Profile, bool, error) {
	switch p, err := profio.LoadFile(s.Path(k)); {
	case err == nil:
		s.diskHits.Add(1)
		s.cachePut(k, p)
		return p, true, nil
	case !os.IsNotExist(err):
		// A file is there but strict-load fails: profio's atomic writes
		// make this external damage (bit rot, a hand-edited file), so
		// recompute over it rather than serving or failing on it.
		s.corruptDropped.Add(1)
		telemetry.Logger("store").Warn("dropping corrupt profile, recomputing",
			"key", string(k), "path", s.Path(k), "err", err.Error())
	}
	s.misses.Add(1)
	_, computeDone := telemetry.Timed(ctx, "store.compute", telemetry.String("key", string(k)))
	p, err := compute()
	computeDone()
	if err != nil {
		return nil, false, err
	}
	if err := s.Put(k, p); err != nil {
		return nil, false, err
	}
	return p, false, nil
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

// cacheGet returns the cached decoded profile, bumping recency.
func (s *Store) cacheGet(k Key) *core.Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return nil
	}
	s.touch(e)
	return e.p
}

// cachePut admits a profile, evicting the oldest entry past capacity.
func (s *Store) cachePut(k Key, p *core.Profile) {
	if s.maxEntries < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.p = p
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
