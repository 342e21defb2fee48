package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify/oracle"
)

// This file pins the warm-start contract of DPState/SolveFrom: a warm
// delta solve is bit-identical to a cold solve of the same instance, on
// every homogeneous corpus flavour, every delta shape (append, remove,
// modify, identical, front mutation), serial and row-parallel, read-only
// and evolving. Heterogeneous instances must fail identically to cold.

// warmVsCold cold-solves mutant and checks SolveFrom from st against it,
// bit for bit. wantWarm asserts whether the state had to be usable.
func warmVsCold(t *testing.T, name string, d DP, st *DPState, mutant Instance, wantWarm bool) {
	t.Helper()
	cold, coldStats, coldErr := DP{Workers: d.Workers}.SolveStats(mutant)
	warm, warmStats, ok, warmErr := d.SolveFrom(st, mutant, false)
	if (coldErr != nil) != (warmErr != nil && ok) || (!ok && warmErr == nil && coldErr != nil && wantWarm) {
		t.Fatalf("%s: error mismatch: cold %v, warm %v (ok=%v)", name, coldErr, warmErr, ok)
	}
	if warmErr != nil {
		if coldErr == nil {
			t.Fatalf("%s: warm failed where cold succeeded: %v", name, warmErr)
		}
		return
	}
	if !ok {
		if wantWarm {
			t.Fatalf("%s: expected a warm start, state declined", name)
		}
		return
	}
	if coldErr != nil {
		t.Fatalf("%s: warm succeeded where cold failed: %v", name, coldErr)
	}
	if err := oracle.BitIdenticalFrame(frameOf(warm), frameOf(cold)); err != nil {
		t.Fatalf("%s: warm vs cold: %v", name, err)
	}
	if warmStats.Rows > coldStats.Rows {
		t.Fatalf("%s: warm re-ran %d rows, cold ran %d", name, warmStats.Rows, coldStats.Rows)
	}
	if !st.sparse && warmStats.DenseRows != warmStats.Rows {
		t.Fatalf("%s: dense warm start reported %d dense rows of %d", name, warmStats.DenseRows, warmStats.Rows)
	}
}

// mutateTasks returns a deep copy of in with its task list replaced.
func withTasks(in Instance, ts []task.Task) Instance {
	in.Tasks.Tasks = ts
	return in
}

func cloneTasks(in Instance) []task.Task {
	return slices.Clone(in.Tasks.Tasks)
}

func maxTaskID(ts []task.Task) int {
	m := 0
	for _, t := range ts {
		if t.ID > m {
			m = t.ID
		}
	}
	return m
}

// TestDPStateDifferentialCorpus sweeps the delta shapes over the shared
// differential corpus, for serial and row-parallel solvers, two
// checkpoint strides, and both row representations (the cold reference
// stays dense, so sparse warm starts are pinned across representations).
func TestDPStateDifferentialCorpus(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, stride := range []int{3, 64} {
			for _, mode := range []SparseMode{SparseOff, SparseOn} {
				d := DP{Workers: workers, CheckpointStride: stride, Sparse: mode}
				t.Run(fmt.Sprintf("workers=%d/stride=%d/sparse=%d", workers, stride, mode), func(t *testing.T) {
					for _, c := range diffCorpus(t) {
						var st DPState
						parent, _, err := d.SolveCheckpoint(c.in, &st)
						if c.in.Heterogeneous() {
							if err != ErrHeterogeneous {
								t.Fatalf("%s: hetero parent: got %v, want ErrHeterogeneous", c.name, err)
							}
							if _, _, ok, ferr := d.SolveFrom(&st, c.in, false); ok || ferr != nil {
								t.Fatalf("%s: invalid state warmed: ok=%v err=%v", c.name, ok, ferr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: parent solve: %v", c.name, err)
						}
						coldRef, err := DP{Workers: workers}.Solve(c.in)
						if err != nil {
							t.Fatalf("%s: cold ref: %v", c.name, err)
						}
						if err := oracle.BitIdenticalFrame(frameOf(parent), frameOf(coldRef)); err != nil {
							t.Fatalf("%s: SolveCheckpoint vs Solve: %v", c.name, err)
						}

						ts := c.in.Tasks.Tasks
						n := len(ts)
						nextID := maxTaskID(ts) + 1
						rng := rand.New(rand.NewSource(int64(n)))

						// Identical re-solve: zero rows re-run.
						warmVsCold(t, c.name+"/identical", d, &st, c.in, true)

						// Append one and three tasks.
						app := cloneTasks(c.in)
						app = append(app, task.Task{ID: nextID, Cycles: 1 + rng.Int63n(30), Penalty: rng.Float64() * 5})
						warmVsCold(t, c.name+"/append1", d, &st, withTasks(c.in, app), true)
						for k := 0; k < 2; k++ {
							app = append(app, task.Task{ID: nextID + 1 + k, Cycles: 1 + rng.Int63n(30), Penalty: rng.Float64() * 5})
						}
						warmVsCold(t, c.name+"/append3", d, &st, withTasks(c.in, app), true)

						// Remove the tail task (divergence at n-1). Warmable
						// only when a checkpoint exists at or before row n-1 —
						// i.e. the stride fits inside the instance.
						tailWarm := stride <= n-1
						warmVsCold(t, c.name+"/remove-tail", d, &st, withTasks(c.in, cloneTasks(c.in)[:n-1]), tailWarm)

						// Modify the last task's penalty, then its cycles.
						mod := cloneTasks(c.in)
						mod[n-1].Penalty *= 1.75
						warmVsCold(t, c.name+"/modify-penalty", d, &st, withTasks(c.in, mod), tailWarm)
						mod = cloneTasks(c.in)
						mod[n-1].Cycles += 7
						warmVsCold(t, c.name+"/modify-cycles", d, &st, withTasks(c.in, mod), tailWarm)

						// Mutate the first task: divergence at row 0 precedes
						// every checkpoint, so the state must decline (the
						// caller cold-solves; nothing would be saved anyway).
						front := cloneTasks(c.in)
						front[0].Penalty += 0.5
						warmVsCold(t, c.name+"/modify-front", d, &st, withTasks(c.in, front), false)

						// A different deadline changes the grid capacity: the
						// state must decline, never serve stale rows.
						shrunk := c.in
						shrunk.Tasks.Tasks = cloneTasks(c.in)
						shrunk.Tasks.Deadline *= 0.5
						if _, _, ok, err := d.SolveFrom(&st, shrunk, false); ok && err == nil {
							if cap64 := DPGridCapacity(shrunk); cap64 != st.GridCapacity() {
								t.Fatalf("%s: warmed across capacity change", c.name)
							}
						}
					}
				})
			}
		}
	}
}

// TestDPStateEvolveStream drives one exclusively-owned state through an
// arrival/cancel/revise stream, checking every step against a cold solve.
func TestDPStateEvolveStream(t *testing.T) {
	procs := []struct {
		name string
		proc speed.Proc
	}{
		{"ideal-cubic", speed.Proc{Model: power.Cubic(), SMax: 1}},
		{"discrete-dormant", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 2}},
	}
	for _, pc := range procs {
		for _, mode := range []SparseMode{SparseOff, SparseOn} {
			t.Run(fmt.Sprintf("%s/sparse=%d", pc.name, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				d := DP{CheckpointStride: 8, Sparse: mode}
				var st DPState
				var ts []task.Task
				const deadline = 150
				for ev := 0; ev < 60; ev++ {
					switch {
					case len(ts) > 4 && ev%11 == 5:
						// Cancel a random task (divergence at its index).
						i := rng.Intn(len(ts))
						ts = append(ts[:i], ts[i+1:]...)
					case len(ts) > 2 && ev%7 == 3:
						// Revise a random task's penalty.
						i := rng.Intn(len(ts))
						ts[i].Penalty = rng.Float64() * 8
					default:
						ts = append(ts, task.Task{ID: ev + 1, Cycles: 1 + rng.Int63n(25), Penalty: rng.Float64() * 6})
					}
					in := Instance{Tasks: task.Set{Tasks: slices.Clone(ts), Deadline: deadline}, Proc: pc.proc}
					cold, err := DP{}.Solve(in)
					if err != nil {
						t.Fatalf("event %d: cold: %v", ev, err)
					}
					var warm Solution
					if st.Valid() {
						var ok bool
						warm, _, ok, err = d.SolveFrom(&st, in, true)
						if err == nil && !ok {
							warm, _, err = d.SolveCheckpoint(in, &st)
						}
					} else {
						warm, _, err = d.SolveCheckpoint(in, &st)
					}
					if err != nil {
						t.Fatalf("event %d: warm: %v", ev, err)
					}
					if err := oracle.BitIdenticalFrame(frameOf(warm), frameOf(cold)); err != nil {
						t.Fatalf("event %d (n=%d): %v", ev, len(ts), err)
					}
				}
			})
		}
	}
}

// TestDPStateRejectOnlyRows pins the stale-take-bit hazard: rows whose
// cycles exceed the grid capacity write no take bits, so a warm re-run
// over a previously-taken row must see cleared words, not the parent's.
func TestDPStateRejectOnlyRows(t *testing.T) {
	proc := speed.Proc{Model: power.Cubic(), SMax: 1}
	base := Instance{Tasks: task.Set{Tasks: []task.Task{
		{ID: 1, Cycles: 10, Penalty: 3},
		{ID: 2, Cycles: 12, Penalty: 4},
		{ID: 3, Cycles: 9, Penalty: 2.5},
		{ID: 4, Cycles: 11, Penalty: 5},
	}, Deadline: 40}, Proc: proc}
	d := DP{CheckpointStride: 2}
	var st DPState
	if _, _, err := d.SolveCheckpoint(base, &st); err != nil {
		t.Fatal(err)
	}
	// The mutant's task 3 can never fit: its row is reject-only where the
	// parent's row had take bits set.
	mut := cloneTasks(base)
	mut[2].Cycles = 1000
	warmVsCold(t, "reject-only-row", d, &st, withTasks(base, mut), true)
}

// TestDPStateStatsSavings asserts the point of the exercise: a tail
// mutation re-runs a small row suffix, not the whole table.
func TestDPStateStatsSavings(t *testing.T) {
	in := diffInstance(t, 42, 200, 1.5, speed.Proc{Model: power.Cubic(), SMax: 1}, false)
	d := DP{CheckpointStride: 16}
	var st DPState
	if _, _, err := d.SolveCheckpoint(in, &st); err != nil {
		t.Fatal(err)
	}
	mut := cloneTasks(in)
	mut[len(mut)-1].Penalty *= 2
	_, stats, ok, err := d.SolveFrom(&st, withTasks(in, mut), false)
	if err != nil || !ok {
		t.Fatalf("warm solve: ok=%v err=%v", ok, err)
	}
	if stats.Rows > 16 {
		t.Fatalf("tail mutation re-ran %d rows, want ≤ stride 16", stats.Rows)
	}
}

// TestPurgeSolverScratch checks solves stay correct across a pool purge
// (in-flight buffers returned to the fresh pools are simply adopted).
func TestPurgeSolverScratch(t *testing.T) {
	in := diffInstance(t, 5, 40, 1.4, speed.Proc{Model: power.Cubic(), SMax: 1}, false)
	before, err := DP{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	PurgeSolverScratch()
	after, err := DP{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.BitIdenticalFrame(frameOf(after), frameOf(before)); err != nil {
		t.Fatalf("solve changed across purge: %v", err)
	}
}
