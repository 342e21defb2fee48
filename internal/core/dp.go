package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dvsreject/internal/conc"
)

// DP is the exact pseudo-polynomial solver: dynamic programming over the
// integer accepted workload. State f[w] is the minimum rejection penalty
// over decisions for the first i tasks whose accepted cycles total exactly
// w; the answer is min over w ≤ smax·D of E(w) + f[w]. Exact for every
// homogeneous instance flavour (the energy curve may be non-convex), in
// O(n·smax·D) time and O(n·smax·D) bits for reconstruction.
//
// The table is evaluated by the double-buffered row kernel (dpkernel.go)
// over only the reachable prefix of each row — at row i no workload above
// min(smax·D, Σ_{j≤i} c_j) is attainable, so the cells beyond it stay +Inf
// untouched. Both are exact reformulations of the seed's in-place
// descending update; outputs are byte-identical.
//
// Every exact-DP entry point runs its rows through one of two runners:
// denseRun (this file) folds dense rows from a restart point into a
// caller-given take window, and sparseRun (dpsparse.go) folds breakpoint
// rows and may hand off to denseRun mid-solve. A cold solve starts at row
// 0; SolveFrom starts at a DPState checkpoint (dpstate.go); ApproxDP,
// CostLowerBound and ParetoFrontier run the dense rows on other grids.
// One reconstruction walk reads each row's take bits from wherever the
// run left them.
type DP struct {
	// MaxStates bounds the table work: dense solves count n·(capacity+1)
	// grid cells (0 means DefaultMaxDPStates), sparse solves count actual
	// row breakpoints (0 means DefaultMaxSparseCells).
	MaxStates int64
	// Workers > 1 chunks each table row (and the monotone final scan)
	// across that many goroutines on the shared conc pool, with
	// word-aligned chunks and a deterministic reduction, so results stay
	// byte-identical to the serial evaluation. 0 or 1 keeps the serial
	// kernel — the default, since the rows are memory-bound and only
	// very wide tables amortize the per-row fan-out.
	Workers int
	// CheckpointStride is the row-snapshot interval of SolveCheckpoint:
	// a warm re-solve restarts at the last checkpoint at or before the
	// first divergent task, so smaller strides cut the warm-up replay at
	// the price of stride-proportional snapshot memory in the DPState.
	// 0 means DefaultCheckpointStride. Solve results never depend on it.
	CheckpointStride int
	// Sparse selects the row representation (dpsparse.go): SparseAuto
	// (the default) keeps the dense kernel for every grid the state
	// budget admits and switches to sparse dominance-pruned rows beyond
	// it; SparseOn forces sparse rows; SparseOff forces dense. All modes
	// return bit-identical solutions on instances they can solve.
	Sparse SparseMode
}

func (d DP) checkpointStride() int {
	if d.CheckpointStride > 0 {
		return d.CheckpointStride
	}
	return DefaultCheckpointStride
}

// Name implements Solver.
func (d DP) Name() string {
	if d.Sparse == SparseOn {
		return "DP-SPARSE"
	}
	return "DP"
}

// DefaultMaxDPStates is DP's work limit (n·capacity table cells).
const DefaultMaxDPStates = int64(1) << 28

// DPStats reports the table work of one rejection-DP run. Serial and
// row-parallel evaluations of the same instance report identical counts
// (the differential tests pin this alongside byte-identical outputs).
type DPStats struct {
	Rows  int64 // item rows processed
	Cells int64 // reachable dense table cells evaluated across all rows
	// SparseCells counts the breakpoints kept across sparse rows; zero on
	// a pure dense solve. DenseRows counts the rows the dense kernel
	// evaluated — equal to Rows on a dense solve, zero on a pure sparse
	// one, and in between when the adaptive switchover fired mid-run.
	SparseCells int64
	DenseRows   int64
}

// Solve implements Solver. It returns ErrHeterogeneous for instances with
// per-task power coefficients: their energy is not a function of a single
// integer workload.
func (d DP) Solve(in Instance) (Solution, error) {
	sol, _, err := d.SolveStats(in)
	return sol, err
}

// SolveStats is Solve plus the table work counters.
func (d DP) SolveStats(in Instance) (Solution, DPStats, error) {
	return d.solve(in, nil)
}

// solve is the shared implementation of SolveStats and SolveCheckpoint:
// rec, when non-nil, records the checkpointed row state of the run (see
// dpstate.go). Recording never changes a bit of the solution — the rows
// write their take bits into rec's table instead of pooled scratch, and
// the row hook copies snapshots out.
func (d DP) solve(in Instance, rec *DPState) (Solution, DPStats, error) {
	if rec != nil {
		rec.valid = false
	}
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return Solution{}, DPStats{}, err
	}
	defer ctx.release()
	if ctx.hetero {
		return Solution{}, DPStats{}, ErrHeterogeneous
	}
	cap64 := int64(math.Floor(ctx.capacity * (1 + 1e-12)))
	n := len(ctx.items)
	limit := d.denseLimit()
	sc := getDPScratch()
	defer putDPScratch(sc)
	var ids []int
	var st DPStats
	if d.Sparse == SparseOn || (d.Sparse == SparseAuto && n > 0 && cap64 >= 0 &&
		(cap64 >= limit || int64(n)*(cap64+1) > limit)) {
		ids, st, err = d.solveSparse(ctx, cap64, sc, rec)
	} else {
		if err := d.admitDense(n, cap64); err != nil {
			return Solution{}, DPStats{}, err
		}
		if rec != nil {
			rec.begin(cap64, d.checkpointStride(), ctx.items, false, false)
		}
		ids, st, err = solveDense(ctx.items, cap64, ctx.energy, 1, ctx.curve.Monotone(), d.Workers, sc, rec)
	}
	if err != nil {
		return Solution{}, st, err
	}
	if rec != nil {
		rec.valid = true
	}
	sol, err := ctx.evaluate(ids)
	return sol, st, err
}

// denseLimit is the dense grid-cell budget: MaxStates or its default.
func (d DP) denseLimit() int64 {
	if d.MaxStates != 0 {
		return d.MaxStates
	}
	return DefaultMaxDPStates
}

// admitDense refuses a dense grid of n rows over the state budget.
func (d DP) admitDense(n int, cap64 int64) error {
	if work := int64(n) * (cap64 + 1); work > d.denseLimit() {
		return denseStatesErr(work, n, cap64, d.denseLimit())
	}
	return nil
}

// ErrStateBudget is wrapped by every DP refusal caused by the state
// budget — a dense grid over MaxStates or a sparse row set past its
// breakpoint limit. Callers with a fallback tier (the serve engine's
// anytime route) match it with errors.Is; the full message still carries
// the numbers that produced the refusal.
var ErrStateBudget = errors.New("state budget exceeded")

// denseStatesErr reports a dense grid over the state budget with the
// numbers that produced it and the ways out.
func denseStatesErr(work int64, n int, cap64, limit int64) error {
	return fmt.Errorf("core: DP needs %d states (%d tasks × %d workload levels), over the limit %d (%w): use ApproxDP for an approximate solve, or sparse rows (DP.Sparse = SparseOn, solver %q) for an exact one", work, n, cap64+1, limit, ErrStateBudget, "DP-SPARSE")
}

// takeRows locates the take bits of a run of DP rows: a dense window of
// packed per-row bitsets (bit w of a row at words[w>>6]; 8× smaller than
// a [][]bool and friendlier to the cache on large grids), or, when sp is
// set, a sparse breakpoint arena (dpsparse.go). Item row i lives at
// window/arena row i-base.
type takeRows struct {
	words  []uint64
	perRow int64 // words per dense row
	stride int64 // words between consecutive dense rows; 0 reuses one row
	base   int
	sp     *sparseRows
}

// denseTake is the window of dense rows base, base+1, … packed back to
// back in words.
func denseTake(words []uint64, perRow int64, base int) takeRows {
	return takeRows{words: words, perRow: perRow, stride: perRow, base: base}
}

// row returns dense row i's take words, cell-indexed by w>>6.
func (t takeRows) row(i int) []uint64 {
	off := int64(i-t.base) * t.stride
	return t.words[off : off+t.perRow]
}

// taken reports row i's take bit at workload w; ok is false when a sparse
// row holds no cell at w.
func (t takeRows) taken(i int, w int64) (take, ok bool) {
	if t.sp == nil {
		return t.words[int64(i-t.base)*t.stride+w/64]&(1<<uint(w%64)) != 0, true
	}
	j := i - t.base
	rw := t.sp.row(j)
	k := sort.Search(len(rw), func(x int) bool { return rw[x] >= w })
	if k == len(rw) || rw[k] != w {
		return false, false
	}
	return t.sp.take(j, k), true
}

// reconstruct walks the rows back from the selected final workload w,
// reading rows at or above split from hi and the rows below it from lo,
// and returns the accepted IDs (in sc.ids, last row first).
func reconstruct(sc *dpScratch, its []item, w int64, split int, hi, lo takeRows) ([]int, error) {
	ids := sc.ids[:0]
	for i := len(its) - 1; i >= 0; i-- {
		src := hi
		if i < split {
			src = lo
		}
		take, ok := src.taken(i, w)
		if !ok {
			return nil, fmt.Errorf("core: DP reconstruction lost workload %d at row %d", w, i)
		}
		if take {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	sc.ids = ids
	if w != 0 {
		return nil, fmt.Errorf("core: DP reconstruction left workload %d", w)
	}
	return ids, nil
}

// errNoWorkload reports a final row with no finite cell.
var errNoWorkload = errors.New("core: DP found no feasible workload")

// denseRun is the dense row runner: it folds items[row:] into the
// double-buffered rows from a restart point — row items already folded
// in, the row's finite prefix prev[0:reach+1] loaded and +Inf above —
// writing each row's take bits into the take window. Cold solves start at
// row 0; warm starts restore a checkpoint; the sparse switchover scatters
// its last breakpoint row.
type denseRun struct {
	its     []item
	cap64   int64
	workers int
	row     int
	reach   int64
	prev    []float64
	cur     []float64 // second row buffer, +Inf filled
	take    takeRows  // receives the take bits of rows ≥ row, pre-zeroed
}

// run folds the remaining rows and returns the final row. onRow, when
// non-nil, observes the finished row after each item: rows is the number
// of items folded in so far and f[0:reach+1] holds the finite prefix. The
// checkpoint recorder (dpstate.go) snapshots here; f must not be retained.
// (The hook is an argument, not a field: the row-parallel closure leaks
// the run, and a leaked hook would cost every recorded solve an alloc.)
func (r denseRun) run(st *DPStats, onRow func(rows int, f []float64, reach int64)) []float64 {
	prev, cur, reach := r.prev, r.cur, r.reach
	workers := max(r.workers, 1)
	for i := r.row; i < len(r.its); i++ {
		st.Rows++
		st.DenseRows++
		c, v := r.its[i].c, r.its[i].v
		if c > r.cap64 {
			// Can never be accepted: pay the penalty on every path. The
			// row's take bits stay zero.
			dpRejectRange(prev, cur, v, 0, reach+1)
		} else {
			reach = min(reach+c, r.cap64)
			hi := reach + 1
			rowBits := r.take.row(i)
			if workers > 1 && hi >= int64(64*workers) {
				// Word-aligned chunks own disjoint take words and disjoint
				// cur cells; every read is from prev, so chunk order is
				// unobservable and the row equals its serial evaluation.
				chunk := (hi + int64(workers) - 1) / int64(workers)
				chunk = (chunk + 63) &^ 63
				nch := int((hi + chunk - 1) / chunk)
				conc.ForEach(nch, workers, func(k int) (struct{}, error) {
					lo := int64(k) * chunk
					dpRowRange(prev, cur, rowBits, c, v, lo, min(lo+chunk, hi))
					return struct{}{}, nil
				})
			} else {
				dpRowRange(prev, cur, rowBits, c, v, 0, hi)
			}
		}
		st.Cells += reach + 1
		prev, cur = cur, prev
		if onRow != nil {
			onRow(i+1, prev, reach)
		}
	}
	return prev
}

// solve runs the remaining rows (see run), picks the best final workload
// level against energy(scale·w) and reconstructs the accepted IDs, reading
// rows below the restart point from below. monotone declares the energy curve
// non-decreasing in w, unlocking the pruned final scan of minCostWorkload
// (chunked across the workers when there are several); pass false for
// curves with dormant break-evens or discrete ladders.
func (r denseRun) solve(energy func(float64) float64, scale float64, monotone bool, below takeRows, sc *dpScratch, st *DPStats, onRow func(rows int, f []float64, reach int64)) ([]int, error) {
	f := r.run(st, onRow)
	var bestW int64
	if r.workers > 1 && monotone {
		bestW, _ = minCostWorkloadParallel(f, energy, scale, r.workers)
	} else {
		bestW, _ = minCostWorkload(f, energy, scale, monotone)
	}
	if bestW < 0 {
		return nil, errNoWorkload
	}
	return reconstruct(sc, r.its, bestW, r.row, r.take, below)
}

// solveDense is the cold dense solve behind DP, ApproxDP and
// CostLowerBound: min energy(scale·w) + Σ rejected v over subsets with
// Σ item.c ≤ cap64. Callers pass items whose c field is already expressed
// in DP grid units; scale converts grid units back to true cycles for the
// energy evaluation (1 for the exact DP). workers > 1 chunks rows and the
// monotone final scan; any setting returns byte-identical results. rec,
// when non-nil, has been begun for this run (DPState.begin): the rows
// write their take bits straight into its table and its noteRow hook
// records the checkpoints. It returns the accepted IDs.
func solveDense(its []item, cap64 int64, energy func(float64) float64, scale float64, monotone bool, workers int, sc *dpScratch, rec *DPState) ([]int, DPStats, error) {
	var st DPStats
	if cap64 < 0 {
		return nil, st, fmt.Errorf("core: negative DP capacity %d", cap64)
	}
	r := denseRun{its: its, cap64: cap64, workers: workers}
	r.prev, r.cur = sc.denseRows(cap64 + 1)
	r.prev[0] = 0
	var onRow func(int, []float64, int64)
	if rec != nil {
		r.take, onRow = denseTake(rec.words, rec.perRow, 0), rec.noteRow
	} else {
		perRow := (cap64 + 64) / 64
		sc.words = zeroedU64(sc.words, int(int64(len(its))*perRow))
		r.take = denseTake(sc.words, perRow, 0)
	}
	ids, err := r.solve(energy, scale, monotone, r.take, sc, &st, onRow)
	return ids, st, err
}
