package core

import (
	"fmt"
	"math"
)

// ApproxDP is the capacity-rounding approximation scheme: run the
// rejection DP on cycles rounded up to multiples of K = ⌈ε·C/(n+1)⌉
// (C = smax·D), shrinking the table from O(n·C) to O(n²/ε) cells.
//
// Guarantees:
//
//   - Feasibility is conservative: rounding cycles UP means every set the
//     scheme accepts fits the true capacity.
//   - The reported cost is exact (the chosen set is re-costed by Evaluate),
//     so the scheme never under-reports.
//   - Quality: relative to the exact DP, the scheme loses (a) up to (n+1)K
//     ≤ ε·C of usable capacity, and (b) energy over-estimation of at most
//     E(w+(n+1)K)−E(w) when comparing candidate sets. For the polynomial
//     energy curve both effects vanish linearly in ε; the test suite
//     enforces cost ≤ (1+5ε)·OPT + ε·E(C) on randomized instances and the
//     E4 experiment reports the measured ratio, which is far tighter in
//     practice.
//
// ε must be positive; values small enough that K = 1 reproduce the exact
// DP bit-for-bit.
type ApproxDP struct {
	Eps       float64
	MaxStates int64 // as in DP; 0 means the default
	// Workers chunks the table rows as in DP.Workers; 0 or 1 is serial,
	// any setting returns byte-identical results.
	Workers int
}

// Name implements Solver.
func (a ApproxDP) Name() string { return fmt.Sprintf("ApproxDP(ε=%g)", a.Eps) }

// Solve implements Solver. Heterogeneous instances are rejected, as in DP.
func (a ApproxDP) Solve(in Instance) (Solution, error) {
	sol, _, err := a.SolveStats(in)
	return sol, err
}

// SolveStats is Solve plus the table work counters.
func (a ApproxDP) SolveStats(in Instance) (Solution, DPStats, error) {
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return Solution{}, DPStats{}, err
	}
	defer ctx.release()
	if ctx.hetero {
		return Solution{}, DPStats{}, ErrHeterogeneous
	}
	if a.Eps <= 0 || math.IsNaN(a.Eps) {
		return Solution{}, DPStats{}, fmt.Errorf("core: ApproxDP ε = %v, want > 0", a.Eps)
	}
	its := ctx.items
	n := len(its)
	capTrue := ctx.capacity

	k := int64(math.Floor(a.Eps * capTrue / float64(n+1)))
	if k < 1 {
		k = 1
	}
	sc := getDPScratch()
	defer putDPScratch(sc)
	scaled := growItems(sc.scaled, n)
	sc.scaled = scaled
	for i, it := range its {
		scaled[i] = item{
			id: it.id,
			c:  (it.c + k - 1) / k, // ceil: conservative feasibility
			v:  it.v,
		}
	}
	capScaled := int64(math.Floor(capTrue * (1 + 1e-12) / float64(k)))

	limit := a.MaxStates
	if limit == 0 {
		limit = DefaultMaxDPStates
	}
	if work := int64(n) * (capScaled + 1); work > limit {
		return Solution{}, DPStats{}, fmt.Errorf("core: ApproxDP needs %d states, over the limit %d (raise ε)", work, limit)
	}

	accepted, st, err := solveDense(scaled, capScaled, ctx.energy, float64(k), ctx.fastEnergy, a.Workers, sc, nil)
	if err != nil {
		return Solution{}, st, err
	}
	sol, err := ctx.evaluate(accepted)
	return sol, st, err
}
