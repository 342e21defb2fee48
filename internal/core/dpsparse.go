package core

import "fmt"

// This file holds the sparse DP rows: the breakpoint arena that records
// them (sparseRows), the one-item row step over the merge kernel of
// dpsparsekernel.go (sparseStep), and sparseRun, the sparse row runner
// that cold sparse solves and sparse warm starts share. Its adaptive
// switchover hands the rest of a cold solve to the dense runner of dp.go.

// SparseMode selects the DP row representation.
type SparseMode uint8

const (
	// SparseAuto (the zero value) keeps the dense kernel whenever the
	// dense grid fits the state budget and switches to sparse rows only
	// for instances the dense admission check would reject — existing
	// dense-regime callers keep today's kernels, bit for bit.
	SparseAuto SparseMode = iota
	// SparseOff forces the dense kernel; over-budget grids error.
	SparseOff
	// SparseOn forces sparse rows (with the adaptive dense switchover).
	SparseOn
)

// DefaultMaxSparseCells is the sparse solver's work limit — row
// breakpoints summed across all rows — when MaxStates is 0. A sparse
// breakpoint retains ~17 bytes (workload, take bit, transient value)
// against the dense cell's single bit, so the default budget is smaller
// than DefaultMaxDPStates while still covering grids the dense kernel
// could never admit.
const DefaultMaxSparseCells = int64(1) << 24

// sparseRows is the reconstruction record of a sparse solve: one arena of
// ascending workload breakpoints holding every row back to back, plus a
// per-row packed take bitset indexed by cell position (not workload — the
// whole point is that workloads are too wide to index by). It replaces the
// dense takeTable and doubles as the row state of a sparse DPState.
type sparseRows struct {
	ws     []int64  // kept workloads, row-major
	off    []int64  // len rows+1; row i occupies ws[off[i]:off[i+1]]
	bits   []uint64 // take bits, word-aligned per row
	bitOff []int64  // len rows+1; row i's words at bits[bitOff[i]:bitOff[i+1]]
}

// begin truncates the record to its first keep rows (0 starts fresh),
// retaining the arenas for reuse.
func (r *sparseRows) begin(keep int) {
	if keep <= 0 || len(r.off) == 0 {
		if cap(r.off) == 0 {
			r.off = make([]int64, 1, 16)
			r.bitOff = make([]int64, 1, 16)
		} else {
			r.off = r.off[:1]
			r.bitOff = r.bitOff[:1]
			r.off[0], r.bitOff[0] = 0, 0
		}
		r.ws = r.ws[:0]
		r.bits = r.bits[:0]
		return
	}
	r.off = r.off[:keep+1]
	r.bitOff = r.bitOff[:keep+1]
	r.ws = r.ws[:r.off[keep]]
	r.bits = r.bits[:r.bitOff[keep]]
}

// grow extends the arenas for one row of at most maxLen cells, returning
// the row's workload slice and zeroed take words; commit fixes the actual
// length. Growth doubles, so an append-per-row run copies amortized O(1)
// words per cell.
func (r *sparseRows) grow(maxLen int) ([]int64, []uint64) {
	base := r.off[len(r.off)-1]
	need := base + int64(maxLen)
	if int64(cap(r.ws)) < need {
		nw := make([]int64, need, max(need, 2*int64(cap(r.ws))))
		copy(nw, r.ws)
		r.ws = nw
	} else {
		r.ws = r.ws[:need]
	}
	wbase := r.bitOff[len(r.bitOff)-1]
	wneed := wbase + int64(maxLen+63)/64
	if int64(cap(r.bits)) < wneed {
		nb := make([]uint64, wneed, max(wneed, 2*int64(cap(r.bits))))
		copy(nb, r.bits)
		r.bits = nb
	} else {
		r.bits = r.bits[:wneed]
	}
	bits := r.bits[wbase:wneed]
	clear(bits)
	return r.ws[base:need], bits
}

// commit appends the row grown last at its actual cell count.
func (r *sparseRows) commit(n int) {
	base := r.off[len(r.off)-1]
	r.off = append(r.off, base+int64(n))
	r.ws = r.ws[:base+int64(n)]
	wbase := r.bitOff[len(r.bitOff)-1]
	r.bitOff = append(r.bitOff, wbase+int64(n+63)/64)
	r.bits = r.bits[:wbase+int64(n+63)/64]
}

// row returns row i's kept workloads, ascending.
func (r *sparseRows) row(i int) []int64 { return r.ws[r.off[i]:r.off[i+1]] }

// take reports row i's take bit at cell index k.
func (r *sparseRows) take(i, k int) bool {
	return r.bits[r.bitOff[i]+int64(k>>6)]&(1<<uint(k&63)) != 0
}

// memoryBytes is the record's retained heap.
func (r *sparseRows) memoryBytes() int64 {
	return int64(len(r.ws))*8 + int64(len(r.bits))*8 + int64(len(r.off))*8 + int64(len(r.bitOff))*8
}

// sparseStep folds one item into the sparse row (prevW, prevF), appending
// the produced row to rows with buf as the value buffer. It returns the
// new row views, the (possibly regrown) buffer, and the cell count — -1
// when the row overflows the remaining breakpoint budget.
func sparseStep(rows *sparseRows, prevW []int64, prevF []float64, buf []float64, it item, cap64 int64, prune bool, budget int64) ([]int64, []float64, []float64, int) {
	if it.c > cap64 {
		// Never acceptable: every path pays the penalty. The add runs cell
		// by cell so the float summation order matches dpRejectRange — an
		// accumulated offset would reassociate the sums.
		k := len(prevW)
		outW, _ := rows.grow(k)
		buf = growF64(buf, k)
		for j, w := range prevW {
			outW[j] = w
			buf[j] = prevF[j] + it.v
		}
		rows.commit(k)
		return outW, buf[:k], buf, k
	}
	maxOut := 2 * len(prevW)
	if m := budget + 1; int64(maxOut) > m {
		maxOut = int(m)
	}
	outW, bits := rows.grow(maxOut)
	buf = growF64(buf, maxOut)
	k := sparseMergeRow(prevW, prevF, it.c, it.v, cap64, prune, outW, buf[:maxOut], bits)
	if k < 0 {
		return nil, nil, buf, -1
	}
	rows.commit(k)
	return outW[:k], buf[:k], buf, k
}

func sparseBudgetErr(limit int64, row, n int) error {
	return fmt.Errorf("core: sparse DP passed %d row breakpoints by row %d/%d (%w); raise MaxStates or use ApproxDP", limit, row, n, ErrStateBudget)
}

// sparseLimit is the sparse breakpoint budget: MaxStates or its default.
func (d DP) sparseLimit() int64 {
	if d.MaxStates != 0 {
		return d.MaxStates
	}
	return DefaultMaxSparseCells
}

// sparseRun is the sparse row runner: it folds the instance's items[row:]
// into the breakpoint arena from a restart row — row items already folded
// in — writing item row i at arena row i-base. spent counts the
// breakpoints already charged to the budget: the retained prefix rows of
// a warm start, so a warm re-run spends what a cold solve of the same
// instance would have.
type sparseRun struct {
	cap64 int64
	row   int
	rows  *sparseRows
	base  int
	spent int64
	prune bool // dominance-prune to the penalty frontier (monotone curve)
	// switchover lets the run hand off to the dense runner (cold unrecorded
	// solves only: a DPState keeps one representation).
	switchover bool
}

// solve runs the remaining rows from the restart row's breakpoints (ws,
// fs) under d's breakpoint budget, scans the final row against the
// instance's energy curve and reconstructs the accepted IDs, reading rows
// below the restart point from below. onRow, when non-nil, observes each
// finished row (the checkpoint recorder's breakpoint snapshots; ws and fs
// must not be retained). The restart row is an argument, not a field: the
// hook leaks the rows it is handed, and a leaked run would drag its
// arena's DPState to the heap.
//
// Adaptive switchover: once row occupancy crosses 1/8 of the grid the
// dense kernel's branch-free cells are cheaper than merge breakpoints, so
// when the remaining dense table also fits the state budget the sparse
// row is scattered into an Inf-filled dense row and the dense runner
// finishes the solve, AVX2 and row-parallel chunking included. Pruned
// holes read +Inf: a dominated cell's descendants are themselves
// dominated, so the final scan's frontier filter drops every cell the
// holes could distort before it is ever costed. Reconstruction stitches
// the dense take window onto the sparse prefix.
func (r sparseRun) solve(d DP, ctx *evalCtx, ws []int64, fs []float64, below takeRows, sc *dpScratch, st *DPStats, onRow func(rows int, ws []int64, fs []float64)) ([]int, error) {
	its := ctx.items
	n := len(its)
	limit := d.sparseLimit()
	width := r.cap64 + 1
	arena := takeRows{sp: r.rows, base: r.base}
	bufA, bufB := sc.spF, sc.spF2
	defer func() { sc.spF, sc.spF2 = bufA, bufB }()
	for i := r.row; i < n; i++ {
		st.Rows++
		var wrote []float64
		var k int
		ws, fs, wrote, k = sparseStep(r.rows, ws, fs, bufA, its[i], r.cap64, r.prune, limit-r.spent)
		bufA, bufB = bufB, wrote
		if k >= 0 {
			r.spent += int64(k)
			st.SparseCells += int64(k)
		}
		if k < 0 || r.spent > limit {
			return nil, sparseBudgetErr(limit, i+1, n)
		}
		if onRow != nil {
			onRow(i+1, ws, fs)
		}
		if r.switchover && i+1 < n && int64(len(ws))*8 > width && int64(n-i-1)*width <= d.denseLimit() {
			dr := denseRun{its: its, cap64: r.cap64, workers: d.Workers, row: i + 1, reach: ws[len(ws)-1]}
			dr.prev, dr.cur = sc.denseRows(width)
			for j, w := range ws {
				dr.prev[w] = fs[j]
			}
			perRow := (width + 63) / 64
			sc.words = zeroedU64(sc.words, int(int64(n-i-1)*perRow))
			dr.take = denseTake(sc.words, perRow, i+1)
			return dr.solve(ctx.energy, 1, ctx.fastEnergy, arena, sc, st, nil)
		}
	}
	bestW, _ := minCostWorkloadSparse(ws, fs, ctx.energy, 1, ctx.fastEnergy)
	if bestW < 0 {
		return nil, errNoWorkload
	}
	return reconstruct(sc, its, bestW, r.row, arena, below)
}

// solveSparse is the cold sparse solve of DP.solve: rows carry only finite
// cells (only the dominance frontier when the energy curve is monotone),
// MaxStates budgets actual breakpoints instead of grid area, and
// reconstruction walks per-row breakpoint lists instead of the packed
// dense take table. Results are bit-identical to the dense kernel on
// every instance both can solve — the differential corpus and
// FuzzSparseDense pin this.
func (d DP) solveSparse(ctx *evalCtx, cap64 int64, sc *dpScratch, rec *DPState) ([]int, DPStats, error) {
	var st DPStats
	if cap64 < 0 {
		return nil, st, fmt.Errorf("core: negative DP capacity %d", cap64)
	}
	// Row 0: the empty prefix reaches only workload 0 at zero penalty.
	w0 := [1]int64{0}
	f0 := [1]float64{0}
	r := sparseRun{cap64: cap64, rows: &sc.spRec, prune: ctx.fastEnergy, switchover: rec == nil}
	var onRow func(int, []int64, []float64)
	if rec != nil {
		rec.begin(cap64, d.checkpointStride(), ctx.items, true, r.prune)
		r.rows, onRow = &rec.sp, rec.noteSparseRow
	}
	r.rows.begin(0)
	ids, err := r.solve(d, ctx, w0[:], f0[:], takeRows{}, sc, &st, onRow)
	return ids, st, err
}

// warmSparse re-runs a sparse state's rows from checkpoint k with the
// recording's own pruning decision. The evolve path truncates st's arena
// and appends in place; the read-only path writes the re-run rows to a
// scratch arena and reconstructs the untouched prefix rows from st's.
func (d DP) warmSparse(ctx *evalCtx, st *DPState, k int, evolve bool, sc *dpScratch, stats *DPStats) ([]int, error) {
	// The snapshot is read-only on both paths (evolve truncates the row
	// arena, never the snapshot buffers), so it serves as the restart row
	// directly.
	snap := st.spSnaps[k]
	r := sparseRun{cap64: st.cap64, row: snap.row, rows: &sc.spRec, base: snap.row, spent: st.sp.off[snap.row], prune: st.pruned}
	var onRow func(int, []int64, []float64)
	if evolve {
		r.rows, r.base, onRow = &st.sp, 0, st.noteSparseRow
		r.rows.begin(snap.row)
	} else {
		r.rows.begin(0)
	}
	return r.solve(d, ctx, snap.ws, snap.fs, takeRows{sp: &st.sp}, sc, stats, onRow)
}
