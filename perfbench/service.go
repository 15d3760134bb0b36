package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmu"
	"repro/internal/profio"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads"
)

const (
	// serviceLRU is the daemon's decoded-profile LRU size, a deployment
	// setting chosen below the spec count so hits come from both the
	// memory and the disk tier.
	serviceLRU = 16
	// zipfS skews spec popularity: with 48 specs, about four in five
	// requests go to the 16 most popular.
	zipfS = 1.1
	// tracePhase is how long each untraced or traced phase of a traced
	// service run lasts (at most a quarter of the run); phases alternate
	// so trace.overhead compares ops made under the same store state.
	tracePhase = time.Second
	// journalProbes is how many side-journal appends a traced run times.
	journalProbes = 32
	// rssOps is the timed op at which the service reads its peak RSS.
	// numad keeps every job it has run, so RSS grows with the jobs served;
	// read at a fixed op count, it does not follow throughput. The
	// slowest baseline run makes several times this many ops.
	rssOps = 2000
)

// serviceSpecs are the K = 48 specs the daemon serves, in popularity
// order: 4 apps x 6 mechanisms x {baseline, interleave}. The order is
// fixed, not drawn from the seed, so every seed serves the same mix;
// the seed draws each client's requests.
func serviceSpecs() []profileSpec {
	var out []profileSpec
	for _, st := range []workloads.Strategy{workloads.Baseline, workloads.Interleave} {
		for _, mech := range pmu.Names() {
			for _, app := range profileApps {
				out = append(out, profileSpec{
					label: app + "/" + mech + "/" + string(st),
					spec:  server.Spec{Workload: app, Mechanism: mech, Strategy: string(st)},
				})
			}
		}
	}
	return out
}

// daemon is an in-process numad: the store in a fresh directory, an
// fsynced journal, server.New with the benchmark's worker count, and
// its HTTP API on a loopback port.
type daemon struct {
	dir    string
	st     *store.Store
	jl     *store.Journal
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan error, 1)}
	var err error
	if d.st, err = store.Open(dir, serviceLRU); err != nil {
		return nil, err
	}
	if d.jl, err = store.OpenJournal(filepath.Join(dir, store.JournalName), 0); err != nil {
		return nil, err
	}
	if d.srv, err = server.New(server.Options{Store: d.st, Workers: workers, Journal: d.jl}); err != nil {
		d.jl.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.jl.Close()
		return nil, err
	}
	d.srv.Start()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	return d, nil
}

// stop drains the daemon, closes its listener and journal, waits for
// every goroutine it started, and removes its directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if e := d.hs.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := d.jl.Close(); e != nil && err == nil {
		err = e
	}
	if e := os.RemoveAll(d.dir); e != nil && err == nil {
		err = e
	}
	return err
}

// client is one closed-loop service client with its own connection
// pool and its own seeded request stream.
type client struct {
	cl   *server.Client
	tr   *http.Transport
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newClient(url string, seed int64, specs int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	cl := server.NewClient(url)
	cl.HTTPClient = &http.Client{Transport: tr}
	// A refused submission surfaces as a failed op instead of being
	// retried out of sight.
	cl.Retries = -1
	rng := rand.New(rand.NewSource(seed))
	return &client{cl: cl, tr: tr, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(specs-1))}
}

// submitFollow is numad's submit-to-done path as a client sees it: the
// job is done when Follow delivers its terminal event.
func (c *client) submitFollow(ctx context.Context, sp *opSpan, spec server.Spec) (server.JobStatus, error) {
	var st server.JobStatus
	err := sp.layer("server.submit", func() (err error) {
		st, err = c.cl.Submit(ctx, spec)
		return err
	})
	if err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	err = sp.layer("server.wait", func() (err error) {
		st, err = c.cl.Follow(ctx, st.ID, nil)
		return err
	})
	if err == nil && st.State != server.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, err
}

// served is one timed op's outcome, checked after the timed phase.
type served struct {
	spec   int
	view   string
	sum    string // sha256 of the view body
	traced bool
	job    string
	op     int64
}

func runService(ctx context.Context, o options, rep *report) error {
	specs := serviceSpecs()
	fp, err := loadFingerprints()
	if err != nil {
		return err
	}
	var (
		d      *daemon
		misses uint64
	)
	defer func() {
		if d == nil {
			return
		}
		if err := d.stop(); err != nil {
			rep.fail("stop daemon: %v", err)
		}
	}()
	err = setUp(rep, func() error {
		if d != nil {
			// Each set-up starts a fresh daemon; the last one serves.
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		dir, err := os.MkdirTemp(o.dir, "store")
		if err != nil {
			return err
		}
		if d, err = startDaemon(dir); err != nil {
			return err
		}
		// The cold path: every spec submitted once by the two clients,
		// through queue, sched, Analyze, store.Put and the journal.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newClient(d.url, 0, len(specs))
				defer cl.tr.CloseIdleConnections()
				for i := c; i < len(specs) && errs[c] == nil; i += workers {
					_, errs[c] = cl.submitFollow(ctx, nil, specs[i].spec)
				}
			}(c)
		}
		wg.Wait()
		misses = d.st.Stats().Misses
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	if misses != uint64(len(specs)) {
		rep.fail("set-up: %d store misses, want exactly %d", misses, len(specs))
	}
	before := d.st.Stats()

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	clients := make([]*client, workers)
	for c := range clients {
		// Each client draws from its own stream: a shared stride would
		// lock both onto one key and turn hits into dedup waits.
		clients[c] = newClient(d.url, o.seed*workers+int64(c), len(specs))
		defer clients[c].tr.CloseIdleConnections()
	}
	var (
		mu               sync.Mutex // guards rep and the three below
		outcomes         []served
		rejected, failed int
		nextOp           atomic.Int64
	)
	loop := func(c *client, until time.Time, phase int, traced bool) {
		for time.Now().Before(until) {
			i := int(c.zipf.Uint64())
			view := "profile"
			if c.rng.Intn(2) == 1 {
				view = "text"
			}
			op := nextOp.Add(1)
			start := time.Now()
			sp := rec.begin(ctx, op, "op", traced)
			js, err := c.submitFollow(ctx, sp, specs[i].spec)
			var body []byte
			if err == nil {
				err = sp.layer("server.view_"+view, func() (err error) {
					if view == "profile" {
						body, err = c.cl.ProfileBytes(ctx, js.ID)
						return err
					}
					text, err := c.cl.Text(ctx, js.ID)
					body = []byte(text)
					return err
				})
			}
			sp.end()
			elapsed := time.Since(start)
			mu.Lock()
			rep.attempted++
			if rep.attempted == rssOps {
				rep.rssMB = peakRSSMB()
			}
			if err != nil {
				if js.ID == "" {
					rejected++
				} else {
					failed++
				}
				rep.failed++
				rep.fail("%s: %v", specs[i].label, err)
			} else {
				rep.samples = append(rep.samples, opSample{traced, ms(elapsed), phase / 2})
				outcomes = append(outcomes, served{i, view, sha(body), traced, js.ID, op})
			}
			mu.Unlock()
		}
	}

	length := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(length)
	for phase := 0; time.Now().Before(deadline); phase++ {
		until := deadline
		if o.trace {
			until = time.Now().Add(min(tracePhase, length/4))
		}
		traced := o.trace && phase%2 == 1
		rec.install(traced)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				loop(c, until, phase, traced)
			}(c)
		}
		wg.Wait()
		rec.install(false)
	}
	rep.timed = time.Since(start)
	after := d.st.Stats()
	if after.Misses != before.Misses {
		rep.fail("timed phase: %d store misses, want 0", after.Misses-before.Misses)
	}
	checkServed(fp, d, specs, outcomes, rep)
	if !o.trace {
		return nil
	}

	// Store counts per timed op, so they do not follow throughput.
	L := rep.layers
	perTimedOp := func(n uint64) float64 { return float64(n) / float64(rep.attempted) }
	L["store.mem_hits"] = perTimedOp(after.MemHits - before.MemHits)
	L["store.disk_hits"] = perTimedOp(after.DiskHits - before.DiskHits)
	L["store.dedup_waits"] = perTimedOp(after.DedupWaits - before.DedupWaits)
	L["store.evictions"] = perTimedOp(after.Evictions - before.Evictions)
	if hits := after.Hits() - before.Hits(); hits > 0 {
		L["store.mem_hit_ratio"] = float64(after.MemHits-before.MemHits) / float64(hits)
	}
	L["server.rejected"] = float64(rejected)
	L["server.failed"] = float64(failed)

	bench := rec.benchSpans()
	prog, err := rec.programSpans()
	if err != nil {
		return err
	}
	// A job's server-side spans share the lane of its server.job_run
	// span, which names the job; the job names the op.
	jobOp := map[string]int64{}
	for _, s := range outcomes {
		if s.traced {
			jobOp[s.job] = s.op
		}
	}
	laneOp := map[int64]int64{}
	for _, s := range prog {
		if s.Name == "server.job_run" {
			laneOp[s.Lane] = jobOp[s.Attrs["id"]]
		}
	}
	for i := range prog {
		prog[i].Op = laneOp[prog[i].Lane]
	}
	L["server.submit_ms"] = medianOf(perOp(bench, "server.submit"))
	L["server.wait_ms"] = medianOf(perOp(bench, "server.wait"))
	L["server.view_profile_ms"] = medianOf(perOp(bench, "server.view_profile"))
	L["server.view_text_ms"] = medianOf(perOp(bench, "server.view_text"))
	L["store.get_or_compute_ms"] = medianOf(perOp(prog, "store.get_or_compute"))
	var children []span
	for _, s := range bench {
		if s.Parent != 0 {
			children = append(children, s)
		}
	}
	L["trace.coverage"] = coverage(opsOf(bench, "op"), children)

	// Layer probes outside the ops, on the daemon's own directory.
	if L["store.journal_append_ms"], err = probeJournal(d.dir); err != nil {
		return err
	}
	if L["profio.load_ms"], err = probeLoads(d, specs); err != nil {
		return err
	}
	return writeTrace(o.traceOut, bench, prog)
}

// checkServed verifies every timed op's body: served profile bytes
// match the in-process fingerprint of the same spec, and served text
// matches the text rendered from those bytes after a decode whose
// re-encoding matches its pin. It checks only per-op outcomes that hold
// under any interleaving of the two clients.
func checkServed(fp *fingerprints, d *daemon, specs []profileSpec, outcomes []served, rep *report) {
	text := map[int]string{}
	for _, s := range outcomes {
		ps := specs[s.spec]
		if s.view == "profile" {
			if s.sum != fp.Profiles[ps.label] {
				rep.failed++
				rep.fail("%s: served profile sha256 %s, want %s", ps.label, s.sum, fp.Profiles[ps.label])
			}
			continue
		}
		want, ok := text[s.spec]
		if !ok {
			var err error
			if want, err = expectedText(fp, d, ps, rep); err != nil {
				rep.fail("%v", err)
			}
			text[s.spec] = want
		}
		if s.sum != want {
			rep.failed++
			rep.fail("%s: served text sha256 %s, want %s", ps.label, s.sum, want)
		}
	}
}

// expectedText is the sha256 of the text view a spec's stored bytes
// render to, after checking the bytes and their re-encoding against the
// fingerprints.
func expectedText(fp *fingerprints, d *daemon, ps profileSpec, rep *report) (string, error) {
	b, err := d.st.Bytes(ps.spec.Key())
	if err != nil {
		return "", fmt.Errorf("%s: stored bytes: %w", ps.label, err)
	}
	if sha(b) != fp.Profiles[ps.label] {
		return "", fmt.Errorf("%s: stored profile sha256 %s, want %s", ps.label, sha(b), fp.Profiles[ps.label])
	}
	p, err := profio.Load(bytes.NewReader(b))
	if err != nil {
		return "", fmt.Errorf("%s: decode: %w", ps.label, err)
	}
	if err := rep.reencode(fp, ps.label, p, b); err != nil {
		return "", err
	}
	return sha([]byte(renderText(p))), nil
}

// probeJournal times Journal.Append, fsync included, on a side journal
// in the daemon's directory, and returns the median in ms.
func probeJournal(dir string) (float64, error) {
	jl, err := store.OpenJournal(filepath.Join(dir, "perfbench-side.numadlog"), 0)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < journalProbes; i++ {
		rec := store.JournalRecord{ID: fmt.Sprintf("probe-%06d", i), State: "queued", Unix: time.Now().Unix()}
		start := time.Now()
		if err := jl.Append(rec); err != nil {
			jl.Close()
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), jl.Close()
}

// probeLoads times profio.LoadFile on the stored files of the specs
// ranked past the LRU, the keys the store evicts and reloads, and
// returns the median in ms.
func probeLoads(d *daemon, specs []profileSpec) (float64, error) {
	var times []float64
	for _, ps := range specs[serviceLRU:] {
		start := time.Now()
		if _, err := profio.LoadFile(d.st.Path(ps.spec.Key())); err != nil {
			return 0, fmt.Errorf("%s: %w", ps.label, err)
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}
