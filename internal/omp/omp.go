// Package omp is a miniature OpenMP-style runtime for simulated
// programs: serial sections on the master thread, parallel regions over
// the whole team, and work-shared loops with the schedules that produce
// the paper's access patterns (static block scheduling behind LULESH's
// staircase in Figure 3, round-robin plane assignment behind UMT2013's
// staggered pattern in Section 8.4).
//
// Every region brackets a proc.Engine region, so region entry/exit is
// visible to the profiler (for per-region address-centric analysis, the
// Figure 4 vs Figure 5 distinction) and region duration contributes to
// simulated program time.
package omp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/proc"
)

// Schedule assigns loop iterations to threads.
type Schedule interface {
	// Iterations returns the iteration indices thread tid executes,
	// in execution order, for a loop of n iterations over nthreads
	// threads.
	Iterations(n, nthreads, tid int) []int
	// Name identifies the schedule.
	Name() string
}

// Static is OpenMP's default schedule: thread t runs the contiguous
// block [t*n/T, (t+1)*n/T).
type Static struct{}

// Iterations implements Schedule.
func (Static) Iterations(n, nthreads, tid int) []int {
	lo := tid * n / nthreads
	hi := (tid + 1) * n / nthreads
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// Name implements Schedule.
func (Static) Name() string { return "static" }

// Cyclic deals chunks of the given size round-robin: thread t runs
// chunks t, t+T, t+2T, ... (OpenMP schedule(static, chunk)).
type Cyclic struct {
	Chunk int
}

// Iterations implements Schedule.
func (s Cyclic) Iterations(n, nthreads, tid int) []int {
	chunk := s.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	var out []int
	for start := tid * chunk; start < n; start += nthreads * chunk {
		for i := start; i < start+chunk && i < n; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Name implements Schedule.
func (s Cyclic) Name() string { return fmt.Sprintf("cyclic(%d)", s.Chunk) }

// Dynamic models OpenMP's schedule(dynamic): chunks are handed to
// threads in completion order, so the chunk-to-thread binding changes
// from region instance to region instance. The simulator reproduces
// that as a deterministic seeded shuffle of the chunk assignment — the
// "no fixed binding between threads and data" situation for which the
// paper recommends interleaved allocation over block-wise co-location
// (Section 2).
//
// Vary Seed per region instance (e.g. pass the timestep index) to model
// the binding churn of a real dynamic schedule.
type Dynamic struct {
	Chunk int
	Seed  uint64
}

// Iterations implements Schedule: chunks are dealt to a pseudo-random
// permutation of the threads, deterministically from Seed.
func (s Dynamic) Iterations(n, nthreads, tid int) []int {
	chunk := s.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	rng := s.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	var out []int
	for c := 0; c < nChunks; c++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		owner := int((rng >> 33) % uint64(nthreads))
		if owner != tid {
			continue
		}
		for i := c * chunk; i < (c+1)*chunk && i < n; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Name implements Schedule.
func (s Dynamic) Name() string { return fmt.Sprintf("dynamic(%d)", s.Chunk) }

// Serial runs body on the master thread (thread 0) as its own region —
// the sequential sections between parallel regions, including the
// single-threaded initialisation loops whose first touches cause most
// of the paper's bottlenecks.
func Serial(e *proc.Engine, fn isa.FuncID, name string, body func(c *proc.Ctx)) {
	master := e.Threads()[0]
	e.BeginRegion(name, []*proc.Thread{master})
	c := e.Ctx(0)
	c.Call(fn, 0, func() { body(c) })
	e.EndRegion()
}

// Parallel runs body once per team thread inside one region, with the
// region function pushed on each thread's call path (so samples inside
// attribute to "name" in the CCT, like OpenMP outlined functions such
// as hypre_BoomerAMGRelax._omp).
//
// Thread bodies are simulated sequentially in thread order; the
// engine's timing model accounts for their concurrency (region duration
// is the max, contention from their combined traffic).
func Parallel(e *proc.Engine, fn isa.FuncID, name string, body func(c *proc.Ctx, tid int)) {
	team := e.Threads()
	e.BeginRegion(name, team)
	for tid := range team {
		c := e.Ctx(tid)
		c.Call(fn, 0, func() { body(c, tid) })
	}
	e.EndRegion()
}

// ParallelFor runs a work-shared loop of n iterations under the given
// schedule (nil means Static). body receives the executing context and
// the iteration index.
func ParallelFor(e *proc.Engine, fn isa.FuncID, name string, n int, sched Schedule, body func(c *proc.Ctx, i int)) {
	if sched == nil {
		sched = Static{}
	}
	nthreads := e.NumThreads()
	Parallel(e, fn, name, func(c *proc.Ctx, tid int) {
		for _, i := range sched.Iterations(n, nthreads, tid) {
			body(c, i)
		}
	})
}
