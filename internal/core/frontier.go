package core

import (
	"fmt"
	"math"
)

// FrontierPoint is one Pareto-optimal energy/penalty trade: no admission
// decision achieves both lower energy and lower penalty.
type FrontierPoint struct {
	Workload int64   // accepted cycles
	Energy   float64 // E(Workload)
	Penalty  float64 // minimum rejected penalty at that workload
	Cost     float64 // Energy + Penalty
}

// ParetoFrontier computes the exact energy-versus-penalty Pareto frontier
// of the instance from one DP pass: for every achievable accepted workload
// w the minimum rejected penalty f(w), reduced to the non-dominated points
// (energy strictly increasing, penalty strictly decreasing along the
// curve). The overall optimum is the frontier point with minimum Cost.
//
// This is the curve a deployer inspects to price SLAs: it answers "how
// much energy does the next unit of admitted work cost, and what penalty
// does it save" without committing to a single trade-off. Homogeneous
// instances only (as with DP).
func ParetoFrontier(in Instance) ([]FrontierPoint, error) {
	ctx, err := newEvalCtx(in)
	if err != nil {
		return nil, err
	}
	if ctx.hetero {
		return nil, ErrHeterogeneous
	}
	its := ctx.items
	cap64 := int64(math.Floor(ctx.capacity * (1 + 1e-12)))
	if work := int64(len(its)) * (cap64 + 1); work > DefaultMaxDPStates {
		return nil, fmt.Errorf("core: frontier needs %d states, over the limit %d", work, DefaultMaxDPStates)
	}
	width := cap64 + 1

	// The rows run through the shared dense row runner (dp.go); its
	// per-cell select equals the seed's math.Min(reject, accept) bit for
	// bit (no NaNs enter the table and tied values share their bits). The
	// take bits it records go to a single reused row, ignored here.
	sc := getDPScratch()
	defer putDPScratch(sc)
	r := denseRun{its: its, cap64: cap64}
	r.prev, r.cur = sc.denseRows(width)
	r.prev[0] = 0
	perRow := (width + 63) / 64
	sc.words = zeroedU64(sc.words, int(perRow))
	r.take = takeRows{words: sc.words, perRow: perRow}
	f := r.run(&DPStats{}, nil)

	// Non-dominated sweep: walk w upward (energy non-decreasing) and keep
	// points that strictly lower the penalty.
	var frontier []FrontierPoint
	bestPenalty := math.Inf(1)
	for w := int64(0); w < width; w++ {
		if math.IsInf(f[w], 1) || f[w] >= bestPenalty-costEps {
			continue
		}
		e := ctx.energy(float64(w))
		if math.IsInf(e, 1) {
			continue
		}
		bestPenalty = f[w]
		frontier = append(frontier, FrontierPoint{
			Workload: w,
			Energy:   e,
			Penalty:  f[w],
			Cost:     e + f[w],
		})
	}

	// E(w) can plateau (e.g. dormant-mode break-even regions): collapse
	// runs of equal energy to their lowest-penalty point, so every kept
	// point is strictly non-dominated.
	out := frontier[:0]
	for _, p := range frontier {
		if n := len(out); n > 0 && p.Energy <= out[n-1].Energy+costEps {
			out[n-1] = p // same energy, strictly lower penalty: replace
			continue
		}
		out = append(out, p)
	}
	return out, nil
}
