// Package sched is the experiment scheduler: it fans independent
// (config, workload, mechanism) cells out across a bounded pool of
// worker goroutines and reassembles the results in input order.
//
// The paper's evaluation is a large cross-product — machines ×
// mechanisms × workloads for Table 2, strategies × machines for the
// Section 8 speedups — and every cell is one self-contained
// core.Run/core.Analyze: each run builds its own engine, address
// space, caches, and profiler, so cells share nothing mutable (the
// audit of the shared read-only state — isa.Program, topology.Machine
// — is documented on those types). That
// makes the sweeps embarrassingly parallel, the same observation that
// lets HPCToolkit merge independently collected per-thread profiles.
//
// Determinism contract: Map always assigns result i of cell i, cells
// never exchange data, and every per-cell RNG (omp.Dynamic seeds,
// faults.Plan seeds) is owned by the cell's own engine — so the result
// slice, and anything rendered or serialised from it, is byte-identical
// for any worker count, including 1. Only wall-clock changes.
//
// Failure contract: a failing (or panicking) cell never aborts its
// siblings. Map always runs all n cells and reports the failures
// afterwards as a *SweepError; the caller decides whether a failed
// cell degrades to a reported gap (Table 2 renders "ERR") or fails the
// sweep.
//
// Cancellation contract: MapCtx/MapWithCtx stop dispatching new cells
// once their context is cancelled — long-running services (the numad
// job daemon) abort a sweep without draining the whole input. Skipped
// cells fail with the context's error so the SweepError accounts for
// every index either way.
package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// EnvWorkers overrides the default worker count, so CI can run the
// whole test suite at a fixed parallelism (e.g. NUMAPROF_PARALLEL=1
// for the serial leg of the matrix) without threading a flag through
// every TestMain.
const EnvWorkers = "NUMAPROF_PARALLEL"

// workers holds the process-wide override; 0 means "use Default()".
var workers atomic.Int64

// Default returns the worker count used when no override is set:
// $NUMAPROF_PARALLEL if it parses as a positive integer, else
// runtime.GOMAXPROCS(0).
func Default() int {
	if s, ok := os.LookupEnv(EnvWorkers); ok {
		if v, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && v >= 1 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return Default()
}

// SetWorkers sets the process-wide worker count and returns the
// previous override (0 if none was set). n <= 0 clears the override,
// restoring Default(). Callers that set it temporarily should restore
// the returned value:
//
//	defer sched.SetWorkers(sched.SetWorkers(1))
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workers.Swap(int64(n)))
}

// CellError is one cell's failure, tagged with its input index. For a
// recovered panic, Stack carries the goroutine stack captured at the
// recover site; Error() deliberately excludes it (Table 2 renders the
// one-line message), so diagnosis goes through Stack or the error-level
// log runCell emits.
type CellError struct {
	Index int
	Err   error
	Stack string
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

func (e *CellError) Unwrap() error { return e.Err }

// SweepError aggregates every failed cell of one Map call. The
// surviving cells' results are still valid; Cells is ordered by index.
type SweepError struct {
	// Total is the sweep's cell count, so callers can distinguish a
	// partial failure (degrade to gaps) from a total one (give up).
	Total int
	Cells []*CellError
}

func (e *SweepError) Error() string {
	if len(e.Cells) == 1 {
		return fmt.Sprintf("1 of %d cells failed: %v", e.Total, e.Cells[0])
	}
	parts := make([]string, len(e.Cells))
	for i, c := range e.Cells {
		parts[i] = c.Error()
	}
	return fmt.Sprintf("%d of %d cells failed: %s", len(e.Cells), e.Total, strings.Join(parts, "; "))
}

// Unwrap exposes the per-cell errors to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c
	}
	return errs
}

// AllFailed reports whether no cell survived.
func (e *SweepError) AllFailed() bool { return e.Total > 0 && len(e.Cells) == e.Total }

// AsSweep extracts a *SweepError from a Map error, if it is one.
func AsSweep(err error) (*SweepError, bool) {
	se, ok := err.(*SweepError)
	return se, ok
}

// Map runs fn(0) … fn(n-1) on Workers() goroutines and returns the
// results in input order: results[i] is fn(i)'s value. All n cells
// always run; failures (including recovered panics) are collected into
// the returned *SweepError, and the corresponding result slots hold
// T's zero value. With one worker the cells run inline on the calling
// goroutine in index order — exactly the pre-scheduler serial path.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWith(Workers(), n, fn)
}

// MapWith is Map with an explicit worker count.
func MapWith[T any](nworkers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWithCtx(context.Background(), nworkers, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map under a context: once ctx is cancelled no further cells
// are dispatched. Cells already running finish (fn receives ctx and may
// return early itself); cells never dispatched fail with ctx's error,
// so the caller sees exactly which indices were skipped. Results keep
// Map's contract: results[i] is fn(i)'s value, zero for skipped cells.
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapWithCtx(ctx, Workers(), n, fn)
}

// MapWithCtx is MapCtx with an explicit worker count.
func MapWithCtx[T any](ctx context.Context, nworkers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if nworkers < 1 {
		nworkers = 1
	}
	if nworkers > n {
		nworkers = n
	}
	if nworkers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = runCell(ctx, i, fn)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nworkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					results[i], errs[i] = runCell(ctx, i, fn)
				}
			}()
		}
		wg.Wait()
	}
	sweep := &SweepError{Total: n}
	for i, err := range errs {
		if err != nil {
			ce := &CellError{Index: i, Err: err}
			var pe *panicErr
			if errors.As(err, &pe) {
				ce.Stack = string(pe.stack)
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				telemetry.Default.Counter("sched_cells_skipped_total").Inc()
			}
			sweep.Cells = append(sweep.Cells, ce)
		}
	}
	if len(sweep.Cells) == 0 {
		return results, nil
	}
	return results, sweep
}

// panicErr is a recovered cell panic. Error() keeps the exact one-line
// "panic: <value>" message the pre-telemetry scheduler produced (Table 2
// renders it, tests match it); the stack rides along separately and
// surfaces as CellError.Stack.
type panicErr struct {
	value any
	stack []byte
}

func (e *panicErr) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// runCell invokes one cell, converting a panic into that cell's error
// so a bad cell cannot take down the sweep (or, when parallel, the
// process). A failed cell's result is T's zero value, whatever fn
// returned beside its error. The serial path uses the same wrapper so
// -parallel 1 and -parallel N fail identically.
func runCell[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (result T, err error) {
	_, done := telemetry.Timed(ctx, "sched.cell", telemetry.Int("index", i))
	defer done()
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &panicErr{value: r, stack: stack}
			telemetry.Default.Counter("sched_cell_panics_total").Inc()
			telemetry.Logger("sched").Error("cell panicked",
				"index", i, "panic", fmt.Sprint(r), "stack", string(stack))
		}
		if err != nil {
			var zero T
			result = zero
			telemetry.Default.Counter("sched_cell_failures_total").Inc()
		}
	}()
	return fn(ctx, i)
}
