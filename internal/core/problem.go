// Package core implements the paper's contribution: energy-efficient
// real-time task scheduling with task rejection on a DVS processor.
//
// Problem (MIN-COST-REJECT). Given frame-based tasks τi with worst-case
// execution cycles ci and rejection penalties vi, a common deadline D and a
// DVS processor, choose an accepted subset A and a feasible speed
// assignment minimizing
//
//	cost(A) = E(A) + Σ_{τi ∉ A} vi,
//
// where every accepted task completes by D. Because the minimum-energy
// execution of an accepted set depends only on its total (effective)
// workload W — run at the slowest deadline-feasible, critical-speed-clamped
// speed — the combinatorial core is selecting A under the capacity
// constraint W(A) ≤ smax·D against the convex energy curve E(W). The
// problem is NP-hard (see hardness.go); the package provides exact solvers
// (branch-and-bound, pseudo-polynomial dynamic programming), a
// capacity-rounding approximation scheme, and the greedy heuristics the
// paper family evaluates.
package core

import (
	"errors"
	"fmt"
	"math"

	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Instance is one solvable problem: a frame-based task set plus the
// processor it is scheduled on.
type Instance struct {
	Tasks task.Set
	Proc  speed.Proc

	// FastPow opts the solvers into integer-exponent fast paths for the
	// dynamic-power exponentiations when α ∈ {2, 3} (s·s·s instead of
	// math.Pow(s, 3)). The products agree with math.Pow to the last ulp
	// or two but are NOT bit-identical on all inputs, so the flag is off
	// by default and excluded from the bit-identity contract; a tolerance
	// test bounds the drift instead.
	FastPow bool
}

// ErrHeterogeneous is returned by solvers that require homogeneous power
// characteristics (all task Rho unset or 1).
var ErrHeterogeneous = errors.New("core: solver requires homogeneous power characteristics")

// Validate checks the task set, the processor, and their combination.
// Heterogeneous power coefficients are only supported on ideal
// (continuous-speed) leakage-free processors, matching the scope of the
// effective-cycles analysis.
func (in Instance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if err := in.Proc.Validate(); err != nil {
		return err
	}
	return in.checkCombination(in.Heterogeneous())
}

// checkCombination enforces the task-set/processor compatibility rules
// given the precomputed heterogeneity flag. Shared by Validate and the
// evaluation-context init (which computes the flag once for both the check
// and the context).
func (in Instance) checkCombination(hetero bool) error {
	if !hetero {
		return nil
	}
	if in.Proc.Levels != nil {
		return fmt.Errorf("core: heterogeneous power characteristics require a continuous-speed processor")
	}
	if in.Proc.Model.Static() != 0 || in.Proc.DormantEnable {
		return fmt.Errorf("core: heterogeneous power characteristics require a leakage-free processor")
	}
	return nil
}

// Heterogeneous reports whether any task carries a non-trivial power
// coefficient.
func (in Instance) Heterogeneous() bool {
	for _, t := range in.Tasks.Tasks {
		if c := t.PowerCoeff(); c != 1 {
			return true
		}
	}
	return false
}

// Capacity returns the largest schedulable workload smax·D in true cycles.
func (in Instance) Capacity() float64 {
	return in.Proc.Capacity(in.Tasks.Deadline)
}

// Solution is a solved instance: the admission decision, the speed
// assignment for the accepted set, and the cost breakdown.
type Solution struct {
	Accepted []int // accepted task IDs, ascending
	Rejected []int // rejected task IDs, ascending

	Assignment speed.Assignment // speed assignment of the accepted workload
	// PerTaskSpeeds is set only for heterogeneous instances: the optimal
	// per-task execution speeds in Accepted order.
	PerTaskSpeeds []float64

	Energy  float64 // energy of executing the accepted set for one frame
	Penalty float64 // Σ penalties of rejected tasks
	Cost    float64 // Energy + Penalty
}

// AcceptedSet reports membership of a task ID in the accepted set.
func (s Solution) AcceptedSet() map[int]bool {
	m := make(map[int]bool, len(s.Accepted))
	for _, id := range s.Accepted {
		m[id] = true
	}
	return m
}

// Solver is one admission/scheduling algorithm.
type Solver interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Solve returns a feasible solution for the instance.
	Solve(in Instance) (Solution, error)
}

// Evaluate builds the full Solution for a given accepted ID set: it
// computes the optimal speed assignment of the accepted workload and the
// cost breakdown. It is the single source of truth all solvers (and tests)
// share. Accepting an over-capacity set returns speed.ErrInfeasible.
// Membership is checked against one O(n) id→index map instead of a linear
// ByID scan per accepted ID; solvers with a live evalCtx use the cached
// map via evalCtx.evaluate.
func Evaluate(in Instance, accepted []int) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	return evaluateIndexed(in, in.Tasks.Index(), in.Heterogeneous(), accepted)
}

// energyOf returns the energy of a homogeneous workload of w cycles, +Inf
// when infeasible. It is the E(W) curve the combinatorial solvers optimize
// against.
func (in Instance) energyOf(w float64) float64 {
	return in.Proc.Energy(w, in.Tasks.Deadline)
}

// Fits reports whether a workload of w true cycles is schedulable.
func (in Instance) Fits(w float64) bool {
	return w <= in.Capacity()*(1+1e-9)
}

// Cost of rejecting every task (the RejectAll anchor); useful as an upper
// bound. An empty frame still pays the idle-frame energy.
func (in Instance) rejectAllCost() float64 {
	idle := in.energyOf(0)
	if math.IsInf(idle, 1) {
		idle = 0
	}
	return in.Tasks.TotalPenalty() + idle
}

// item is the compact per-task view the combinatorial solvers work on.
type item struct {
	id int
	c  int64   // true cycles (feasibility)
	ce float64 // effective cycles ci·ρi^(1/α) (energy)
	v  float64 // rejection penalty
}

// items flattens the instance's tasks.
func (in Instance) items() []item {
	its := make([]item, 0, len(in.Tasks.Tasks))
	alpha := in.Proc.Model.Alpha
	for _, t := range in.Tasks.Tasks {
		it := item{id: t.ID, c: t.Cycles, v: t.Penalty}
		it.ce = float64(t.Cycles) * math.Pow(t.PowerCoeff(), 1/alpha)
		its = append(its, it)
	}
	return its
}

// surrogateEnergy estimates the energy of an accepted set from its
// effective workload. For homogeneous instances this is the exact curve
// E(W); for heterogeneous ones it is the unconstrained closed form
// Coeff·W̃^α/D^(α−1), a lower bound on the true (speed-clamped) energy.
// Solvers use it for incremental decisions and pruning; final solutions are
// always re-costed exactly by Evaluate.
func (in Instance) surrogateEnergy(wEff float64) float64 {
	if !in.Heterogeneous() {
		return in.energyOf(wEff)
	}
	d := in.Tasks.Deadline
	return in.Proc.Model.Coeff * math.Pow(wEff, in.Proc.Model.Alpha) / math.Pow(d, in.Proc.Model.Alpha-1)
}

// convexEnergy reports whether the surrogate energy curve is convex, which
// enables the stronger branch-and-bound pruning term. It holds for
// continuous-speed leakage-free processors (E(W) = Coeff·W^α/D^(α−1), plus
// an smin plateau which preserves convexity).
func (in Instance) convexEnergy() bool {
	return in.Proc.Levels == nil && in.Proc.Model.Static() == 0 && !in.Proc.DormantEnable
}
