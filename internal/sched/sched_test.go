package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapInputOrder(t *testing.T) {
	for _, nworkers := range []int{1, 2, 8, 64} {
		res, err := MapWith(nworkers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", nworkers, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", nworkers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryCell(t *testing.T) {
	var ran atomic.Int64
	_, err := MapWith(4, 37, func(i int) (struct{}, error) {
		ran.Add(1)
		if i%5 == 0 {
			return struct{}{}, fmt.Errorf("boom %d", i)
		}
		return struct{}{}, nil
	})
	if got := ran.Load(); got != 37 {
		t.Fatalf("ran %d cells, want 37 (failures must not abort siblings)", got)
	}
	sweep, ok := AsSweep(err)
	if !ok {
		t.Fatalf("err = %T %v, want *SweepError", err, err)
	}
	if sweep.Total != 37 || len(sweep.Cells) != 8 {
		t.Fatalf("sweep = %d/%d failed, want 8/37", len(sweep.Cells), sweep.Total)
	}
	// Failures are reported in index order regardless of worker count.
	for k, c := range sweep.Cells {
		if c.Index != k*5 {
			t.Fatalf("cells[%d].Index = %d, want %d", k, c.Index, k*5)
		}
	}
	if sweep.AllFailed() {
		t.Fatal("AllFailed on a partial failure")
	}
}

// TestMapFailedCellSlotIsZero: a cell that returns a value beside its
// error leaves T's zero value in its slot, serially and in parallel.
func TestMapFailedCellSlotIsZero(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		got, err := MapWith(workers, 3, func(i int) (int, error) {
			if i == 1 {
				return 7, boom
			}
			return i + 10, nil
		})
		if sweep, ok := AsSweep(err); !ok || len(sweep.Cells) != 1 || sweep.Cells[0].Index != 1 {
			t.Fatalf("workers %d: err = %v, want cell 1 failed", workers, err)
		}
		if want := []int{10, 0, 12}; !slices.Equal(got, want) {
			t.Fatalf("workers %d: results = %v, want %v", workers, got, want)
		}
	}
}

func TestMapAllFailed(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapWith(3, 4, func(int) (int, error) { return 0, boom })
	sweep, ok := AsSweep(err)
	if !ok || !sweep.AllFailed() {
		t.Fatalf("want AllFailed sweep, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatal("errors.Is should reach the cell error through the sweep")
	}
}

func TestMapEmptySweep(t *testing.T) {
	res, err := Map(0, func(int) (int, error) { t.Fatal("cell ran"); return 0, nil })
	if err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
}

func TestMapSingleCellSweep(t *testing.T) {
	res, err := MapWith(8, 1, func(i int) (string, error) { return "only", nil })
	if err != nil || len(res) != 1 || res[0] != "only" {
		t.Fatalf("single cell: res=%v err=%v", res, err)
	}
}

func TestMapRecoversPanics(t *testing.T) {
	for _, nworkers := range []int{1, 4} {
		res, err := MapWith(nworkers, 3, func(i int) (int, error) {
			if i == 1 {
				panic("cell blew up")
			}
			return i + 10, nil
		})
		sweep, ok := AsSweep(err)
		if !ok || len(sweep.Cells) != 1 || sweep.Cells[0].Index != 1 {
			t.Fatalf("workers=%d: want one failed cell at index 1, got %v", nworkers, err)
		}
		if !strings.Contains(sweep.Cells[0].Err.Error(), "cell blew up") {
			t.Fatalf("workers=%d: panic message lost: %v", nworkers, sweep.Cells[0].Err)
		}
		// Survivors keep their results; the panicked slot is zero.
		if res[0] != 10 || res[1] != 0 || res[2] != 12 {
			t.Fatalf("workers=%d: res = %v", nworkers, res)
		}
	}
}

func TestCellErrorCarriesPanicStack(t *testing.T) {
	// The recovered stack must survive to the aggregated CellError —
	// it used to be silently dropped — and name the panic site.
	_, err := MapWith(2, 2, func(i int) (int, error) {
		if i == 1 {
			panic("with a stack")
		}
		return i, nil
	})
	sweep, ok := AsSweep(err)
	if !ok || len(sweep.Cells) != 1 {
		t.Fatalf("want one failed cell, got %v", err)
	}
	ce := sweep.Cells[0]
	if ce.Stack == "" {
		t.Fatal("CellError.Stack is empty for a panicked cell")
	}
	if !strings.Contains(ce.Stack, "TestCellErrorCarriesPanicStack") {
		t.Errorf("stack does not reach the panic site:\n%s", ce.Stack)
	}
	// The message format is load-bearing (Table 2 renders it): the
	// stack must not leak into Error().
	if got := ce.Err.Error(); got != "panic: with a stack" {
		t.Errorf("Error() = %q, want %q", got, "panic: with a stack")
	}
	// A plain error (no panic) must not fabricate a stack.
	_, err = MapWith(1, 1, func(i int) (int, error) { return 0, errors.New("plain") })
	sweep, _ = AsSweep(err)
	if sweep.Cells[0].Stack != "" {
		t.Errorf("plain error grew a stack: %q", sweep.Cells[0].Stack)
	}
}

func TestMapSerialPathStaysOnCallingGoroutine(t *testing.T) {
	// With one worker the cells must run inline and in order — the
	// pre-scheduler serial path, byte-for-byte.
	var order []int
	_, err := MapWith(1, 5, func(i int) (struct{}, error) {
		order = append(order, i) // would race if a goroutine were involved
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", Workers())
	}
	if got := SetWorkers(0); got != 3 {
		t.Fatalf("SetWorkers returned %d, want previous 3", got)
	}
	if Workers() < 1 {
		t.Fatalf("default Workers = %d, want >= 1", Workers())
	}
}

func TestWorkersClampedToCells(t *testing.T) {
	// More workers than cells must not deadlock or drop cells.
	res, err := MapWith(32, 2, func(i int) (int, error) { return i, nil })
	if err != nil || len(res) != 2 || res[0] != 0 || res[1] != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestSweepErrorMessage(t *testing.T) {
	_, err := MapWith(1, 3, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("late failure")
		}
		return i, nil
	})
	want := "1 of 3 cells failed: cell 2: late failure"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestMapCtxCancelStopsDispatch(t *testing.T) {
	// A sweep whose context is cancelled partway must stop dispatching
	// new cells: the already-dispatched cells finish, the rest fail
	// with the context's error instead of running.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 64
	var ran atomic.Int64
	res, err := MapWithCtx(ctx, 1, n, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 4 {
			cancel()
		}
		return i + 100, nil
	})
	if ran.Load() != 5 {
		t.Fatalf("ran %d cells, want 5 (dispatch must stop after the cancel)", ran.Load())
	}
	sweep, ok := AsSweep(err)
	if !ok {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if len(sweep.Cells) != n-5 {
		t.Fatalf("%d cells failed, want %d skipped", len(sweep.Cells), n-5)
	}
	for _, ce := range sweep.Cells {
		if !errors.Is(ce, context.Canceled) {
			t.Fatalf("cell %d error = %v, want context.Canceled", ce.Index, ce.Err)
		}
	}
	// Completed cells keep their results; skipped slots are zero.
	if res[0] != 100 || res[4] != 104 || res[5] != 0 {
		t.Fatalf("res[0,4,5] = %d,%d,%d", res[0], res[4], res[5])
	}
}

func TestMapCtxCancelParallel(t *testing.T) {
	// Parallel flavour: after cancel, workers drain indices without
	// running them; every skipped index reports context.Canceled and no
	// cell runs after all workers have observed the cancellation. The
	// canceller must be one of the first nworkers indices — those are
	// dispatched before any cell can block — or the sweep would park
	// every worker waiting for a cancel that never comes.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 200
	var ran atomic.Int64
	_, err := MapWithCtx(ctx, 4, n, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		<-ctx.Done() // park until every in-flight cell sees the cancel
		return i, nil
	})
	if ran.Load() >= n {
		t.Fatalf("all %d cells ran despite cancellation", n)
	}
	sweep, ok := AsSweep(err)
	if !ok {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	skipped := 0
	for _, ce := range sweep.Cells {
		if errors.Is(ce, context.Canceled) {
			skipped++
		}
	}
	if skipped != n-int(ran.Load()) {
		t.Fatalf("skipped %d, ran %d, n %d: accounting mismatch", skipped, ran.Load(), n)
	}
}

func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	// With a background context the ctx path is byte-identical to Map.
	a, errA := MapWith(3, 10, func(i int) (int, error) { return i * i, nil })
	b, errB := MapWithCtx(context.Background(), 3, 10, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	// An already-cancelled context runs nothing at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapWithCtx(ctx, 4, 8, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if ran.Load() != 0 {
		t.Fatalf("%d cells ran under a pre-cancelled context", ran.Load())
	}
	sweep, ok := AsSweep(err)
	if !ok || !sweep.AllFailed() {
		t.Fatalf("err = %v, want all-failed sweep", err)
	}
}
