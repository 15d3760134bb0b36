// Service client: submit the same workload to a numad daemon under two
// placement strategies and let the service diff the resulting profiles.
// This is the paper's placement-comparison loop (profile, fix, compare)
// driven entirely through the daemon's HTTP API. With -advise it also
// closes the loop automatically: the daemon's optimizer diagnoses the
// first profile, re-runs every candidate remedy, and reports measured
// next to predicted speedups.
//
// With no flags it hosts a throwaway in-process daemon, so the demo
// runs with zero setup:
//
//	go run ./examples/service-client
//
// Point it at a real daemon to reuse its profile store (a repeated run
// is then served from cache — watch the "cache hit" column):
//
//	go run ./examples/service-client -addr http://localhost:7077
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running numad (empty: host a temporary in-process daemon)")
		workload = flag.String("workload", "blackscholes", "workload to compare")
		stratA   = flag.String("a", "baseline", "first placement strategy")
		stratB   = flag.String("b", "interleave", "second placement strategy")
		advise   = flag.Bool("advise", false, "also run the daemon's optimizer over the first profile")
	)
	flag.Parse()
	if err := run(*addr, *workload, *stratA, *stratB, *advise); err != nil {
		log.Fatal(err)
	}
}

func run(addr, workload, stratA, stratB string, advise bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if addr == "" {
		base, stop, err := hostDemoDaemon()
		if err != nil {
			return err
		}
		defer stop()
		addr = base
		fmt.Printf("hosting throwaway daemon at %s\n\n", addr)
	}
	c := server.NewClient(addr)

	// Submit both placements up front; the daemon's worker pool runs
	// them concurrently and the store dedups repeats.
	ids := make([]string, 2)
	for i, strat := range []string{stratA, stratB} {
		st, err := c.Submit(ctx, server.Spec{Workload: workload, Strategy: strat})
		if err != nil {
			return fmt.Errorf("submit %s/%s: %w", workload, strat, err)
		}
		ids[i] = st.ID
	}
	for i, strat := range []string{stratA, stratB} {
		st, err := c.Follow(ctx, ids[i], nil)
		if err != nil {
			return err
		}
		if st.State != server.StateDone {
			return fmt.Errorf("job %s (%s) ended %s: %s", st.ID, strat, st.State, st.Error)
		}
		fmt.Printf("%-12s job %s done  (cache hit: %v)\n", strat, st.ID, st.CacheHit)
	}

	// The daemon diffs the two stored profiles; the verdict line tells
	// you whether the placement change paid off.
	text, err := c.DiffText(ctx, ids[0], ids[1])
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(text)

	if advise {
		// Close the loop: Advise spawns an optimizer job over the first
		// profile (retried like any submit, deduped by content address),
		// and AdviseResult returns the ranked plan with measured vs
		// predicted speedup per remedy.
		st, err := c.Advise(ctx, ids[0])
		if err != nil {
			return fmt.Errorf("advise %s: %w", ids[0], err)
		}
		if st, err = c.Follow(ctx, st.ID, nil); err != nil {
			return err
		} else if st.State != server.StateDone {
			return fmt.Errorf("advise job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		rep, err := c.AdviseResult(ctx, st.ID)
		if err != nil {
			return err
		}
		fmt.Println()
		if rep.NoAdvice {
			fmt.Printf("optimizer: no advice (%s)\n", rep.Reason)
		} else {
			for _, r := range rep.Remedies {
				fmt.Printf("optimizer: %-22s predicted %+.1f%%  measured %+.1f%%\n",
					r.Kind, 100*r.Predicted, 100*r.Measured)
			}
			if rep.Best != nil {
				fmt.Printf("optimizer: best measured %s (%s) %+.1f%%\n",
					rep.Best.Kind, rep.Best.Transform.String(), 100*rep.Best.Measured)
			}
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	hits := m.Counters["store_mem_hits_total"] + m.Counters["store_disk_hits_total"] + m.Counters["store_dedup_waits_total"]
	fmt.Printf("\ndaemon totals: %d jobs done, %d store hits, %d jobs queued\n",
		m.Counters["jobs_done_total"], hits, m.Gauges["jobs_queued"])
	return nil
}

// hostDemoDaemon stands up a full numad (store, worker pool, HTTP API)
// on a loopback port, returning its base URL and a drain function.
func hostDemoDaemon() (string, func(), error) {
	dir, err := os.MkdirTemp("", "numad-demo-*")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return "", nil, err
	}
	srv, err := server.New(server.Options{Store: st})
	if err != nil {
		return "", nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		srv.Shutdown(ctx)
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
