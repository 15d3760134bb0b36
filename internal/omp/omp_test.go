package omp

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
)

func testEngine(threads int) (*proc.Engine, *isa.Program) {
	m := topology.New(topology.Config{
		Name: "t", NumDomains: 4, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB,
	})
	prog := isa.NewProgram("test")
	return proc.NewEngine(proc.Config{Machine: m, Program: prog, Threads: threads}), prog
}

func TestStaticSchedule(t *testing.T) {
	s := Static{}
	if got := s.Iterations(10, 4, 0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("tid 0: %v", got)
	}
	if got := s.Iterations(10, 4, 3); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Errorf("tid 3: %v", got)
	}
}

func TestCyclicSchedule(t *testing.T) {
	s := Cyclic{Chunk: 1}
	if got := s.Iterations(7, 3, 0); !reflect.DeepEqual(got, []int{0, 3, 6}) {
		t.Errorf("tid 0: %v", got)
	}
	if got := s.Iterations(7, 3, 2); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("tid 2: %v", got)
	}
	s2 := Cyclic{Chunk: 2}
	if got := s2.Iterations(10, 2, 0); !reflect.DeepEqual(got, []int{0, 1, 4, 5, 8, 9}) {
		t.Errorf("chunk 2 tid 0: %v", got)
	}
	// Chunk <= 0 defaults to 1.
	s3 := Cyclic{}
	if got := s3.Iterations(4, 2, 1); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("default chunk tid 1: %v", got)
	}
}

// Property: every schedule partitions [0, n) exactly — each iteration
// appears exactly once across threads.
func TestQuickSchedulesPartition(t *testing.T) {
	check := func(s Schedule) func(n, nt uint8) bool {
		return func(n, nt uint8) bool {
			nn := int(n % 100)
			tt := int(nt%16) + 1
			var all []int
			for tid := 0; tid < tt; tid++ {
				all = append(all, s.Iterations(nn, tt, tid)...)
			}
			sort.Ints(all)
			if len(all) != nn {
				return false
			}
			for i, v := range all {
				if v != i {
					return false
				}
			}
			return true
		}
	}
	for _, s := range []Schedule{Static{}, Cyclic{Chunk: 1}, Cyclic{Chunk: 3}} {
		if err := quick.Check(check(s), nil); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestSerialRunsMasterOnly(t *testing.T) {
	e, prog := testEngine(4)
	fn := prog.AddFunc("init", "main.c", 1)
	var ran []int
	Serial(e, fn, "init", func(c *proc.Ctx) {
		ran = append(ran, c.Thread().ID)
		c.Compute(10)
	})
	if !reflect.DeepEqual(ran, []int{0}) {
		t.Fatalf("ran on threads %v, want [0]", ran)
	}
	if e.TotalTime() != 10 {
		t.Fatalf("TotalTime = %v, want 10", e.TotalTime())
	}
}

func TestParallelRunsWholeTeam(t *testing.T) {
	e, prog := testEngine(4)
	fn := prog.AddFunc("work._omp", "main.c", 10)
	var ran []int
	var depths []int
	Parallel(e, fn, "work", func(c *proc.Ctx, tid int) {
		ran = append(ran, tid)
		depths = append(depths, c.Thread().Depth())
		c.Compute(5)
	})
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("ran = %v", ran)
	}
	for _, d := range depths {
		if d != 1 {
			t.Fatalf("depth inside region = %v, want 1 (region frame pushed)", depths)
		}
	}
	// All threads ran 5 cycles; region time is the max = 5.
	if e.TotalTime() != 5 {
		t.Fatalf("TotalTime = %v, want 5", e.TotalTime())
	}
}

func TestParallelForStaticCoversAllIterations(t *testing.T) {
	e, prog := testEngine(4)
	fn := prog.AddFunc("loop._omp", "main.c", 20)
	seen := make([]int, 100)
	owner := make([]int, 100)
	ParallelFor(e, fn, "loop", 100, Static{}, func(c *proc.Ctx, i int) {
		seen[i]++
		owner[i] = c.Thread().ID
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("iteration %d ran %d times", i, n)
		}
	}
	// Static: iteration ownership is block-contiguous and non-decreasing.
	for i := 1; i < 100; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static ownership not contiguous at %d: %d < %d", i, owner[i], owner[i-1])
		}
	}
}

func TestParallelForNilScheduleDefaultsToStatic(t *testing.T) {
	e, prog := testEngine(2)
	fn := prog.AddFunc("loop._omp", "main.c", 1)
	var count int
	ParallelFor(e, fn, "loop", 10, nil, func(c *proc.Ctx, i int) { count++ })
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
}

func TestRegionsAccumulateTime(t *testing.T) {
	e, prog := testEngine(2)
	fn := prog.AddFunc("f", "m.c", 1)
	Serial(e, fn, "a", func(c *proc.Ctx) { c.Compute(7) })
	Parallel(e, fn, "b", func(c *proc.Ctx, tid int) { c.Compute(3) })
	if e.TotalTime() != 10 {
		t.Fatalf("TotalTime = %v, want 10", e.TotalTime())
	}
}

func TestDynamicSchedulePartitions(t *testing.T) {
	// Dynamic is still a partition of [0, n) for any seed.
	for seed := uint64(0); seed < 8; seed++ {
		s := Dynamic{Chunk: 3, Seed: seed}
		seen := map[int]int{}
		for tid := 0; tid < 5; tid++ {
			for _, i := range s.Iterations(100, 5, tid) {
				seen[i]++
			}
		}
		if len(seen) != 100 {
			t.Fatalf("seed %d: covered %d of 100 iterations", seed, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: iteration %d ran %d times", seed, i, n)
			}
		}
	}
}

func TestDynamicBindingChurns(t *testing.T) {
	// Different seeds assign chunks to different threads — the binding
	// churn that makes block-wise placement useless and interleaving
	// appropriate (Section 2).
	a := Dynamic{Chunk: 1, Seed: 1}.Iterations(64, 4, 0)
	b := Dynamic{Chunk: 1, Seed: 2}.Iterations(64, 4, 0)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds should change thread 0's chunk set")
	}
	// The same seed is deterministic.
	c := Dynamic{Chunk: 1, Seed: 1}.Iterations(64, 4, 0)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("same seed must reproduce the assignment")
	}
}

func TestDynamicNameAndDefaults(t *testing.T) {
	if (Dynamic{Chunk: 4}).Name() != "dynamic(4)" {
		t.Error("name wrong")
	}
	// Chunk <= 0 defaults to 1 and still partitions.
	s := Dynamic{}
	total := 0
	for tid := 0; tid < 3; tid++ {
		total += len(s.Iterations(10, 3, tid))
	}
	if total != 10 {
		t.Fatalf("covered %d of 10", total)
	}
}
