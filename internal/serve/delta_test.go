package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
)

// deltaReq builds a DP request over the shared generator.
func deltaReq(seed int64, n int) Request {
	return Request{
		Tasks:  mustSet(seed, n),
		Proc:   speed.Proc{Model: power.Cubic(), SMax: 1},
		Solver: "DP",
	}
}

// mutateTail returns req with one near-tail task's penalty changed — the
// Zipf-trafficked "near miss" shape the delta path exists for.
func mutateTail(req Request, back int, bump float64) Request {
	ts := append([]task.Task(nil), req.Tasks.Tasks...)
	i := len(ts) - 1 - back
	ts[i].Penalty += bump
	req.Tasks.Tasks = ts
	return req
}

// TestDeltaSolveBitIdentical drives a stream of near-miss mutants through
// the engine and pins every response to a direct cold solve, bit for bit,
// across every request flavour the delta path sees.
func TestDeltaSolveBitIdentical(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	base := deltaReq(7, 120)
	if r := e.Solve(ctx, base); r.Err != nil {
		t.Fatal(r.Err)
	}
	for i := 0; i < 24; i++ {
		mut := mutateTail(base, i%8, 0.01*float64(i+1))
		if i%3 == 1 {
			// Appends must warm too.
			ts := append([]task.Task(nil), mut.Tasks.Tasks...)
			mut.Tasks.Tasks = append(ts, task.Task{ID: 100000 + i, Cycles: 5, Penalty: 1})
		}
		got := e.Solve(ctx, mut)
		if got.Err != nil {
			t.Fatalf("mutant %d: %v", i, got.Err)
		}
		if got.CacheHit {
			t.Fatalf("mutant %d unexpectedly hit the exact cache", i)
		}
		want, err := directSolve(t, mut, core.SolverSpec{})
		if err != nil {
			t.Fatalf("mutant %d: direct: %v", i, err)
		}
		if err := verify.BitIdenticalSolutions(got.Solution, want); err != nil {
			t.Fatalf("mutant %d: %v", i, err)
		}
		in := core.Instance{Tasks: mut.Tasks, Proc: mut.Proc}
		if err := verify.CheckSolution(in, got.Solution); err != nil {
			t.Fatalf("mutant %d: oracle: %v", i, err)
		}
	}
	st := e.Stats()
	if st.DeltaSolves == 0 {
		t.Fatal("no mutant took the delta path")
	}
	if st.DeltaParents == 0 {
		t.Fatal("no parent states registered")
	}
	t.Logf("delta solves: %d of 24 misses, parents resident: %d", st.DeltaSolves, st.DeltaParents)
}

// TestDeltaReset checks Reset clears the similarity index so cold
// benchmarks stay cold.
func TestDeltaReset(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	base := deltaReq(11, 80)
	if r := e.Solve(ctx, base); r.Err != nil {
		t.Fatal(r.Err)
	}
	if e.Stats().DeltaParents == 0 {
		t.Fatal("no parent registered before reset")
	}
	e.Reset()
	if got := e.Stats().DeltaParents; got != 0 {
		t.Fatalf("reset left %d parents resident", got)
	}
	mut := mutateTail(base, 0, 0.5)
	if r := e.Solve(ctx, mut); r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := e.Stats().DeltaSolves; got != 0 {
		t.Fatalf("post-reset miss was delta-warmed (%d)", got)
	}
}

// TestDeltaEviction checks the parent LRU respects its count budget.
func TestDeltaEviction(t *testing.T) {
	ctx := context.Background()
	e := New(Config{DeltaParents: 2})
	for seed := int64(0); seed < 6; seed++ {
		if r := e.Solve(ctx, deltaReq(100+seed, 40)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := e.Stats().DeltaParents; got > 2 {
		t.Fatalf("budget 2, %d parents resident", got)
	}
}

// TestDeltaConcurrentSharedParent hammers one parent with concurrent
// near-miss mutants: evolve=false warm starts are read-only, so every
// response must still be bit-identical to a direct solve (run with
// -race).
func TestDeltaConcurrentSharedParent(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	base := deltaReq(13, 100)
	if r := e.Solve(ctx, base); r.Err != nil {
		t.Fatal(r.Err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mut := mutateTail(base, g%4, 0.001*float64(g+1))
			got := e.Solve(ctx, mut)
			if got.Err != nil {
				errs <- got.Err
				return
			}
			want, err := directSolve(t, mut, core.SolverSpec{})
			if err != nil {
				errs <- err
				return
			}
			if err := verify.BitIdenticalSolutions(got.Solution, want); err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJumboPurge checks a jumbo request solves correctly and survives the
// post-solve scratch purge (the purge itself is a heap-size heuristic; the
// contract here is correctness before and after).
func TestJumboPurge(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	// 10⁴ unit tasks against a tight capacity keep the DP table narrow,
	// so the jumbo threshold is crossed without a jumbo-sized test bill.
	ts := make([]task.Task, jumboTasks)
	for i := range ts {
		ts[i] = task.Task{ID: i + 1, Cycles: 1 + int64(i%3), Penalty: float64(i%7) + 0.5}
	}
	jumbo := Request{
		Tasks:  task.Set{Tasks: ts, Deadline: 100},
		Proc:   speed.Proc{Model: power.Cubic(), SMax: 1},
		Solver: "DP",
	}
	if r := e.Solve(ctx, jumbo); r.Err != nil {
		t.Fatal(r.Err)
	}
	small := deltaReq(17, 30)
	got := e.Solve(ctx, small)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := directSolve(t, small, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BitIdenticalSolutions(got.Solution, want); err != nil {
		t.Fatal(err)
	}
}
