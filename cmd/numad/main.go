// Command numad is the profiling service daemon: the hpcrun → hpcprof
// → hpcviewer pipeline of the paper, run as a long-lived HTTP service
// instead of a batch tool. Clients POST job specs, numad executes them
// on a bounded worker pool, persists every profile in a
// content-addressed store (identical specs are served from cache), and
// serves status, text/HTML reports, raw measurement files, profile
// diffs, and operational metrics.
//
// Example session:
//
//	numad -addr :7077 -dir /var/lib/numad &
//	curl -s -X POST localhost:7077/api/v1/jobs \
//	     -d '{"workload":"lulesh","strategy":"baseline"}'
//	curl -s localhost:7077/api/v1/jobs/job-000001
//	curl -s 'localhost:7077/api/v1/jobs/job-000001?view=text'
//	curl -s localhost:7077/metrics
//
// Logging is structured (log/slog); -log-level (or $NUMAPROF_LOG)
// tunes it, including per-component: -log-level warn,server=debug.
// -debug-addr serves net/http/pprof on a separate listener, kept off
// the API address so operational profiling is never exposed to API
// clients by accident.
//
// SIGINT/SIGTERM shut the daemon down gracefully: new submissions get
// 503, the queued backlog runs to completion (bounded by
// -drain-timeout), and the store is flushed before exit.
//
// Durability: unless -journal=false, every job state transition is
// written ahead to <dir>/journal.numadlog. On startup the journal is
// replayed — finished jobs reappear terminal, interrupted ones are
// re-enqueued and resume from their per-cell checkpoints — so a crash
// (power cut, OOM kill, SIGKILL) never loses acknowledged work.
// Unparseable journal lines are quarantined to a side file, never
// silently dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// config is the daemon's parsed command line.
type config struct {
	addr         string
	debugAddr    string
	dir          string
	workers      int
	queueDepth   int
	cacheEntries int
	jobTimeout   time.Duration
	drainTimeout time.Duration
	top          int
	journal      bool
	retries      int
	snapEvery    int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7077", "listen address")
	flag.StringVar(&cfg.dir, "dir", "numad-data", "profile store directory")
	flag.IntVar(&cfg.workers, "workers", sched.Workers(), "worker pool size (concurrent profiling jobs)")
	flag.IntVar(&cfg.queueDepth, "queue", server.DefaultQueueDepth, "job queue bound; a full queue returns 429")
	flag.IntVar(&cfg.cacheEntries, "cache", store.DefaultCacheEntries, "memory-tier LRU entries: keys stored or verified on disk, each with its decoded profile once read (negative: disable)")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 0, "per-job deadline from submission (0: none); also arms deadline-aware load shedding")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for the backlog before cancelling it")
	flag.IntVar(&cfg.top, "top", 5, "variables the text/HTML views detail")
	flag.BoolVar(&cfg.journal, "journal", true, "write-ahead job journal in the store directory, replayed on startup to recover interrupted jobs")
	flag.IntVar(&cfg.retries, "retries", 0, "transient-failure retries per job (0: default 3; negative: disable)")
	flag.IntVar(&cfg.snapEvery, "snapshot-every", 0,
		"publish a live progress snapshot every N profiling epochs to /api/v1/jobs/{id}/events (0: lifecycle events only)")
	logLevel := flag.String("log-level", "",
		"log level spec, e.g. info or warn,server=debug (overrides $"+telemetry.LogEnvVar+")")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "",
		"serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	flag.Parse()

	if *logLevel != "" {
		if err := telemetry.SetLogSpec(*logLevel); err != nil {
			fmt.Fprintln(os.Stderr, "numad:", err)
			os.Exit(1)
		}
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "numad:", err)
		os.Exit(1)
	}
}

// debugHandler is the self-profiling mux: the standard pprof index and
// its profile endpoints (heap, goroutine, profile, trace, ...).
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// recoverJournal replays <dir>/journal.numadlog: quarantined lines are
// preserved to the side file, the journal is compacted to its terminal
// records, and a fresh append handle continuing the sequence is
// returned with the recovery for server.Recover.
func recoverJournal(dir string, logger *slog.Logger) (*store.Journal, *store.RecoveredJournal, error) {
	jpath := filepath.Join(dir, store.JournalName)
	rec, err := store.RecoverJournal(jpath)
	if err != nil {
		return nil, nil, err
	}
	if n := len(rec.Quarantined); n > 0 {
		qpath := filepath.Join(dir, store.QuarantineName)
		logger.Warn("journal damage quarantined", "records", n, "file", qpath)
		if err := store.AppendQuarantine(qpath, rec.Quarantined); err != nil {
			return nil, nil, fmt.Errorf("quarantine journal damage: %w", err)
		}
	}
	if err := store.CompactJournal(jpath, rec); err != nil {
		return nil, nil, err
	}
	jl, err := store.OpenJournal(jpath, rec.MaxSeq)
	if err != nil {
		return nil, nil, err
	}
	return jl, rec, nil
}

func run(cfg config) error {
	logger := telemetry.Logger("numad")
	st, err := store.Open(cfg.dir, cfg.cacheEntries)
	if err != nil {
		return err
	}
	var (
		jl  *store.Journal
		rec *store.RecoveredJournal
	)
	if cfg.journal {
		if jl, rec, err = recoverJournal(cfg.dir, logger); err != nil {
			return err
		}
		defer jl.Close()
	}
	srv, err := server.New(server.Options{
		Store:         st,
		Workers:       cfg.workers,
		QueueDepth:    cfg.queueDepth,
		JobTimeout:    cfg.jobTimeout,
		TopVars:       cfg.top,
		Journal:       jl,
		MaxRetries:    cfg.retries,
		SnapshotEvery: cfg.snapEvery,
	})
	if err != nil {
		return err
	}
	if rec != nil && len(rec.Jobs) > 0 {
		if err := srv.Recover(rec); err != nil {
			return fmt.Errorf("recover journal: %w", err)
		}
		logger.Info("journal replayed", "jobs", len(rec.Jobs),
			"resumed", len(rec.NonTerminal()), "quarantined", len(rec.Quarantined))
	}
	srv.Start()

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() {
		logger.Info("listening", "addr", cfg.addr, "store", cfg.dir,
			"workers", cfg.workers, "queue", cfg.queueDepth)
		errc <- httpSrv.ListenAndServe()
	}()

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: debugHandler()}
		go func() {
			logger.Info("pprof listening", "addr", cfg.debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", cfg.drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Drain the job queue first: Shutdown immediately flips the server
	// to draining (new submissions get 503) and, once the backlog ends,
	// closes every live event stream with a terminal `shutdown` event.
	// Only then can httpSrv.Shutdown finish — it waits for active
	// connections, and SSE handlers hold theirs open until their hub
	// closes.
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	logger.Info("drained, store flushed")
	return nil
}
