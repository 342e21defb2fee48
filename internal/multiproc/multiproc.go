// Package multiproc extends task rejection to M DVS processors under
// partitioned EDF — the composition of the target paper with the research
// group's multiprocessor LTF partitioning line, and the natural "future
// work" direction the overview paper sketches.
//
// A solution assigns every task to one of the M processors or rejects it;
// each processor independently runs its accepted workload at its own
// minimum-energy speed (internal/speed), and the objective remains total
// energy plus total rejection penalty. The single-processor hardness
// trivially carries over (M = 1), and partitioning adds bin-packing
// structure on top.
//
// The platform is a processor profile vector (HeteroInstance, hetero.go),
// which covers big.LITTLE-style two-type platforms. M identical processors
// (Instance) are the degenerate case: the identical-processor solvers in
// this file lift the instance with AsHetero and run the profile-vector
// solvers on it.
package multiproc

import (
	"fmt"

	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Instance is a multiprocessor rejection problem on M identical processors.
type Instance struct {
	Tasks task.Set
	Proc  speed.Proc // every processor is identical
	M     int        // number of processors, ≥ 1
}

// Validate checks the components. Heterogeneous power coefficients are not
// supported in the multiprocessor extension.
func (in Instance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if err := in.Proc.Validate(); err != nil {
		return err
	}
	if in.M < 1 {
		return fmt.Errorf("multiproc: M = %d, want ≥ 1", in.M)
	}
	for _, t := range in.Tasks.Tasks {
		if t.PowerCoeff() != 1 {
			return fmt.Errorf("multiproc: task %d has heterogeneous power coefficient", t.ID)
		}
	}
	return nil
}

// Solution is a partitioned admission decision with its cost breakdown.
type Solution struct {
	// PerProc[m] lists the task IDs accepted on processor m, ascending.
	PerProc  [][]int
	Rejected []int

	Energies []float64 // per-processor energy (including idle frames)
	Energy   float64   // Σ Energies
	Penalty  float64
	Cost     float64
}

// Assignment maps task ID → processor index, with -1 for rejected tasks.
type Assignment map[int]int

// Evaluate costs a full assignment exactly. Tasks absent from the map are
// rejected. It errors when any processor exceeds capacity.
func Evaluate(in Instance, assign Assignment) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return EvaluateHetero(AsHetero(in), assign)
}

// Solver is one multiprocessor admission/partitioning algorithm.
type Solver interface {
	Name() string
	Solve(in Instance) (Solution, error)
}

// LTFReject is HeteroLTFReject on M identical processors: tasks in
// non-increasing penalty density vi/ci, each tentatively placed on the
// least-loaded processor and accepted iff it fits there and its marginal
// energy on that processor is below its penalty.
type LTFReject struct{}

// Name implements Solver.
func (LTFReject) Name() string { return "LTF-REJECT" }

// Solve implements Solver.
func (LTFReject) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return HeteroLTFReject{}.Solve(AsHetero(in))
}

// LTFRejectLS is HeteroLTFRejectLS on M identical processors: LTFReject
// refined by steepest-descent local search over reject, admit, migrate,
// swap-in-out and cross-processor exchange moves.
type LTFRejectLS struct {
	// MaxIterations bounds the move count; 0 means 10·n.
	MaxIterations int
	// DisableExchange restricts the neighbourhood to single-task moves
	// (the pre-exchange behaviour, kept for ablation).
	DisableExchange bool
}

// Name implements Solver.
func (LTFRejectLS) Name() string { return "LTF-REJECT-LS" }

// Solve implements Solver.
func (g LTFRejectLS) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return HeteroLTFRejectLS{MaxIterations: g.MaxIterations, DisableExchange: g.DisableExchange}.Solve(AsHetero(in))
}

// Exhaustive is HeteroExhaustive on M identical processors: all (M+1)ⁿ
// assignments with the "first empty processor" symmetry reduction; exact
// for tiny instances (the experiment suite's optimum reference).
type Exhaustive struct {
	// MaxAssignments guards the search space; 0 means 5 million.
	MaxAssignments int64
	// Workers sets the parallel fan-out of Solve (see
	// HeteroExhaustive.Workers): 0 means GOMAXPROCS, 1 forces the serial
	// search, and the returned solution is identical either way.
	Workers int
}

// Name implements Solver.
func (Exhaustive) Name() string { return "OPT" }

// Solve implements Solver.
func (e Exhaustive) Solve(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return e.hetero().Solve(AsHetero(in))
}

// SolveStats is Solve plus the number of branch-and-bound nodes entered,
// always from the serial search so the count is deterministic.
func (e Exhaustive) SolveStats(in Instance) (Solution, int64, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, 0, err
	}
	return e.hetero().SolveStats(AsHetero(in))
}

func (e Exhaustive) hetero() HeteroExhaustive {
	return HeteroExhaustive{MaxAssignments: e.MaxAssignments, Workers: e.Workers}
}
