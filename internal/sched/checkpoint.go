package sched

import (
	"context"

	"repro/internal/telemetry"
)

// Checkpoint is durable per-cell state for a resumable sweep. Lookup
// reports a previously completed cell's result; Save persists a freshly
// computed one. Implementations must be safe for concurrent use — cells
// of one sweep call Lookup and Save from Workers() goroutines at once.
//
// The checkpoint only ever stores *successful* cell results, so a
// recovered sweep re-runs exactly its failed or never-started cells,
// and the reassembled result slice stays byte-identical to an
// uninterrupted run (results[i] is the same value either way — the
// input-order contract does not care who computed it).
type Checkpoint[T any] interface {
	Lookup(i int) (T, bool)
	Save(i int, v T) error
}

// CheckpointFuncs adapts two closures into a Checkpoint, for callers
// (the numad server's store-backed cell checkpoint, tests) that do not
// want a named type.
type CheckpointFuncs[T any] struct {
	LookupFn func(i int) (T, bool)
	SaveFn   func(i int, v T) error
}

// Lookup implements Checkpoint.
func (c CheckpointFuncs[T]) Lookup(i int) (T, bool) {
	if c.LookupFn == nil {
		var zero T
		return zero, false
	}
	return c.LookupFn(i)
}

// Save implements Checkpoint.
func (c CheckpointFuncs[T]) Save(i int, v T) error {
	if c.SaveFn == nil {
		return nil
	}
	return c.SaveFn(i, v)
}

// MapCkptWithCtx is MapWithCtx with a checkpoint: cells already present
// in ck are replayed without running fn, freshly computed cells are
// saved as they finish (not at sweep end), so a crash mid-sweep loses
// at most the cells in flight. A nil ck degrades to plain MapWithCtx —
// the non-checkpointed hot path is untouched.
//
// A Save failure does not fail the cell: the computed result is still
// valid in memory and is returned; only resumability for that cell is
// lost. The failure is counted (sched_ckpt_save_failures_total) and
// logged so operators see the degraded durability.
func MapCkptWithCtx[T any](ctx context.Context, nworkers, n int, ck Checkpoint[T], fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ck == nil {
		return MapWithCtx(ctx, nworkers, n, fn)
	}
	return MapWithCtx(ctx, nworkers, n, func(ctx context.Context, i int) (T, error) {
		if v, ok := ck.Lookup(i); ok {
			telemetry.Default.Counter("sched_cells_replayed_total").Inc()
			return v, nil
		}
		v, err := fn(ctx, i)
		if err != nil {
			return v, err
		}
		telemetry.Default.Counter("sched_cells_recomputed_total").Inc()
		if serr := ck.Save(i, v); serr != nil {
			telemetry.Default.Counter("sched_ckpt_save_failures_total").Inc()
			telemetry.Logger("sched").Warn("checkpoint save failed",
				"index", i, "err", serr)
		}
		return v, nil
	})
}
