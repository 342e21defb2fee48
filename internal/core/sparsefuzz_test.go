// Fuzz target for the sparse dominance-pruned DP rows: arbitrary
// instances are solved by the dense and sparse kernels under a shared
// state budget, serial and with two row-parallel workers. Wherever the
// dense grid is admitted, the sparse result must be bit-identical (and its
// breakpoint spend bounded by the dense cell spend); where only the sparse
// rows fit the budget, the EDF oracle must accept the sparse answer. A
// sparse-recorded checkpoint state is then pushed through the warm-start
// battery of deltafuzz_test.go, read-only and evolving.
package core_test

import (
	"fmt"
	"testing"

	"dvsreject/internal/core"
	"dvsreject/internal/verify"
)

// sparseFuzzBudget is deliberately tiny: the fuzz codec's grid tops out
// at 12 tasks × 401 workload levels ≈ 4.8k dense cells, so a 2k budget
// puts wide instances beyond the dense wall while most sparse row sets
// still fit — both sides of the switch get fuzzed.
const sparseFuzzBudget = 2048

func checkSparseDense(workers int, in core.Instance) error {
	// Unlimited budget: both kernels must solve and agree bit for bit.
	dense := core.DP{Sparse: core.SparseOff, Workers: workers}
	sparse := core.DP{Sparse: core.SparseOn, Workers: workers}
	dsol, dstats, derr := dense.SolveStats(in)
	ssol, sstats, serr := sparse.SolveStats(in)
	if (derr == nil) != (serr == nil) {
		return fmt.Errorf("sparse/dense error mismatch: dense %v, sparse %v", derr, serr)
	}
	if derr == nil {
		if err := verify.BitIdenticalSolutions(ssol, dsol); err != nil {
			return fmt.Errorf("sparse vs dense: %w", err)
		}
		if sstats.SparseCells+sstats.Cells > dstats.Cells {
			return fmt.Errorf("sparse spent %d breakpoints + %d dense cells, dense spent %d cells",
				sstats.SparseCells, sstats.Cells, dstats.Cells)
		}
	}

	// Tight shared budget: sparse work is bounded by dense work, so a
	// dense-admitted instance must also solve sparsely (bit-identically);
	// a dense-rejected one may still fit the sparse budget, in which case
	// the oracle is the only reference.
	denseT := core.DP{Sparse: core.SparseOff, MaxStates: sparseFuzzBudget, Workers: workers}
	sparseT := core.DP{Sparse: core.SparseOn, MaxStates: sparseFuzzBudget, Workers: workers}
	dsolT, derrT := denseT.Solve(in)
	ssolT, serrT := sparseT.Solve(in)
	switch {
	case derrT == nil:
		if serrT != nil {
			return fmt.Errorf("budget %d: sparse failed (%v) where dense solved", sparseFuzzBudget, serrT)
		}
		if err := verify.BitIdenticalSolutions(ssolT, dsolT); err != nil {
			return fmt.Errorf("budget %d: sparse vs dense: %w", sparseFuzzBudget, err)
		}
	case serrT == nil:
		if err := verify.CheckSolution(in, ssolT); err != nil {
			return fmt.Errorf("budget %d: beyond-wall sparse solve: %w", sparseFuzzBudget, err)
		}
	}

	// Warm-start battery over a sparse-recorded state.
	if serr != nil {
		return nil
	}
	return checkDeltaSolve(core.DP{CheckpointStride: 4, Sparse: core.SparseOn, Workers: workers}, in)
}

// FuzzSparseDense decodes arbitrary bytes into an instance and pins the
// sparse row kernel against the dense reference: bit-identity wherever
// both are admitted, oracle validity beyond the dense budget wall, and
// warm-start correctness over sparse-recorded states, serial and with two
// row-parallel workers.
func FuzzSparseDense(f *testing.F) {
	for _, s := range verify.SeedInstances() {
		if data, ok := verify.EncodeInstance(s.In); ok {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := verify.DecodeInstance(data)
		if !ok {
			t.Skip()
		}
		for _, workers := range []int{1, 2} {
			check := func(in core.Instance) error { return checkSparseDense(workers, in) }
			if err := check(in); err != nil {
				failShrunk(t, in, fmt.Errorf("workers=%d: %w", workers, err), check)
			}
		}
	})
}
