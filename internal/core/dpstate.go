package core

import "math"

// DefaultCheckpointStride is the row-snapshot interval of SolveCheckpoint
// when DP.CheckpointStride is 0.
const DefaultCheckpointStride = 64

// DPState is the checkpointed row state of one rejection-DP solve: the
// packed take-bit table of every row (the dpkernel layout, written in
// place by the recording run) plus f-row snapshots every CheckpointStride
// rows and at the final row. SolveFrom warm-starts a later solve from it,
// re-running only the rows at or after the first task where the two
// instances diverge: it restores the checkpoint and hands the remaining
// rows to the same row runner a cold solve uses (dp.go, dpsparse.go), so
// a warm solve is a cold solve that starts later.
//
// The key validity fact: a DP row depends only on the (cycles, penalty)
// bit patterns of the item prefix and on the integer grid capacity — not
// on the energy curve, the processor's power model, task IDs or FastPow,
// all of which enter only the final workload scan and the solution
// evaluation, which SolveFrom performs fresh against its own instance.
// Two instances sharing the grid capacity and an item prefix therefore
// share those rows bit-for-bit.
//
// A state records either dense or sparse rows, matching the kernel that
// produced it (DP.Sparse), never a mix: dense states hold the packed take
// table plus f-row snapshots, sparse states hold the breakpoint arenas of
// dpsparse.go plus (workload, value) breakpoint snapshots. One extra
// validity caveat applies to sparse states whose rows were dominance-
// pruned (recorded under a monotone energy curve): such rows carry only
// the penalty frontier, which is exact only for monotone final scans, so
// SolveFrom declines non-monotone instances instead of warm-starting them.
//
// The zero value is ready for SolveCheckpoint. A state being read by
// SolveFrom(..., evolve=false) is never written and may serve any number
// of concurrent readers; evolve=true mutates the state in place and
// requires exclusive ownership.
type DPState struct {
	valid  bool
	n      int   // item rows recorded
	cap64  int64 // integer grid capacity the table was built on
	stride int
	perRow int64 // take-table words per row, (cap64+1+63)/64
	items  []item
	words  []uint64  // packed take bits, rows 0..n-1
	snaps  []dpSnap  // ascending by row; last row always snapshotted
	snapF  []float64 // the snapshots' f-prefixes, back to back in row order

	sparse  bool // rows recorded by the sparse kernel
	pruned  bool // sparse rows carry only the dominance frontier
	sp      sparseRows
	spSnaps []sparseSnap // ascending by row; last row always snapshotted
}

// sparseSnap is one sparse row snapshot: the kept (workload, value)
// breakpoints after `row` items have been folded in.
type sparseSnap struct {
	row int
	ws  []int64
	fs  []float64
}

// dpSnap is one f-row snapshot: the finite prefix after `row` items have
// been folded in, at snapF[off:off+reach+1]. Cells above reach were never
// written and are +Inf.
type dpSnap struct {
	row   int
	reach int64
	off   int64
}

// Valid reports whether the state holds a completed recorded solve.
func (st *DPState) Valid() bool { return st != nil && st.valid }

// Rows returns the number of item rows recorded.
func (st *DPState) Rows() int { return st.n }

// GridCapacity returns the integer workload capacity the table was built
// on — the warm-start compatibility key (see DPGridCapacity).
func (st *DPState) GridCapacity() int64 { return st.cap64 }

// Reset invalidates the state, keeping its buffers for reuse.
func (st *DPState) Reset() { st.valid = false }

// AppendSnapshotRows appends the checkpointed row numbers in ascending
// order — the prefix lengths a warm solve can restart from with zero
// replay. The serve-layer similarity index registers its hash-chain keys
// at exactly these rows.
func (st *DPState) AppendSnapshotRows(buf []int) []int {
	for k := 0; k < st.snapCount(); k++ {
		buf = append(buf, st.snapRow(k))
	}
	return buf
}

// MemoryBytes estimates the state's retained heap: the take table, the
// snapshots and the item copy. Cache budgets evict on it.
func (st *DPState) MemoryBytes() int64 {
	if st.sparse {
		b := st.sp.memoryBytes()
		for _, s := range st.spSnaps {
			b += int64(len(s.ws))*8 + int64(len(s.fs))*8
		}
		return b + int64(len(st.items))*32
	}
	return int64(len(st.words))*8 + int64(len(st.snapF))*8 + int64(len(st.items))*32
}

// begin resets the state for a fresh recording of items, keeping backing
// arrays. A dense recording zeroes a take table for the run to write into
// and sizes the snapshot arena exactly — a row's reach is the capped
// prefix sum of the cycles that fit, so every checkpoint's length is known
// up front; a sparse one has the run write the row arenas (st.sp) in
// place. The state turns valid once the run has succeeded.
func (st *DPState) begin(cap64 int64, stride int, items []item, sparse, pruned bool) {
	n := len(items)
	st.valid = false
	st.sparse, st.pruned = sparse, pruned
	st.cap64, st.stride, st.n = cap64, stride, n
	st.items = append(st.items[:0], items...)
	st.perRow = 0
	st.snaps = st.snaps[:0]
	st.spSnaps = st.spSnaps[:0]
	k := n/stride + 1
	if sparse {
		if cap(st.spSnaps) < k {
			st.spSnaps = make([]sparseSnap, 0, k)
		}
		return
	}
	if cap(st.snaps) < k {
		st.snaps = make([]dpSnap, 0, k)
	}
	var reach, total int64
	for i, it := range items {
		if it.c <= cap64 {
			reach = min(reach+it.c, cap64)
		}
		if (i+1)%stride == 0 || i+1 == n {
			total += reach + 1
		}
	}
	st.snapF = growF64(st.snapF, int(total))[:0]
	st.perRow = (cap64 + 64) / 64
	st.words = zeroedU64(st.words, int(int64(n)*st.perRow))
}

// noteRow is the dense runner's row hook: snapshot f[0:reach+1] on the
// stride grid and at the final row.
func (st *DPState) noteRow(rows int, f []float64, reach int64) {
	if rows%st.stride != 0 && rows != st.n {
		return
	}
	st.snaps = append(st.snaps, dpSnap{row: rows, reach: reach, off: int64(len(st.snapF))})
	st.snapF = append(st.snapF, f[:reach+1]...)
}

// noteSparseRow is the sparse runner's row hook: snapshot the breakpoints
// on the stride grid and at the final row.
func (st *DPState) noteSparseRow(rows int, ws []int64, fs []float64) {
	if rows%st.stride != 0 && rows != st.n {
		return
	}
	// Reuse the buffers of a previously truncated snapshot slot.
	var s sparseSnap
	if len(st.spSnaps) < cap(st.spSnaps) {
		s = st.spSnaps[:len(st.spSnaps)+1][len(st.spSnaps)]
	}
	s.row = rows
	s.ws = append(s.ws[:0], ws...)
	s.fs = append(s.fs[:0], fs...)
	st.spSnaps = append(st.spSnaps, s)
}

// snapRow returns the row of checkpoint k in the state's representation.
func (st *DPState) snapRow(k int) int {
	if st.sparse {
		return st.spSnaps[k].row
	}
	return st.snaps[k].row
}

// snapCount is the number of recorded checkpoints.
func (st *DPState) snapCount() int {
	if st.sparse {
		return len(st.spSnaps)
	}
	return len(st.snaps)
}

// restart picks the warm-start point for items: the latest checkpoint at
// or before the first row where items diverge from the recorded prefix.
// Only the (c, v) bit patterns participate — IDs label the reconstruction
// but never steer the table. It returns the checkpoint index, or -1 when
// the divergence precedes every checkpoint.
func (st *DPState) restart(items []item) int {
	div := 0
	for lim := min(len(items), st.n); div < lim; div++ {
		a, b := items[div], st.items[div]
		if a.c != b.c || math.Float64bits(a.v) != math.Float64bits(b.v) {
			break
		}
	}
	k := st.snapCount() - 1
	for k >= 0 && st.snapRow(k) > div {
		k--
	}
	return k
}

// evolve prepares an exclusively owned state to be advanced in place to
// describe items from checkpoint k on: later checkpoints are dropped (the
// run's row hook re-records them against the new row count) and the item
// prefix is adopted. A failed run leaves the state invalid.
func (st *DPState) evolve(k, stride int, items []item) {
	st.stride = stride
	if st.sparse {
		st.spSnaps = st.spSnaps[:k+1]
	} else {
		st.snaps = st.snaps[:k+1]
		s := st.snaps[k]
		st.snapF = st.snapF[:s.off+s.reach+1]
	}
	st.items = append(st.items[:0], items...)
	st.n = len(items)
}

// ensureRows grows the take table to hold n rows, preserving the first
// keep rows and zeroing the rest. Growth doubles so an append-per-event
// stream stays amortized O(1) words copied per row.
func (st *DPState) ensureRows(n, keep int) {
	need := int64(n) * st.perRow
	if int64(cap(st.words)) < need {
		newCap := need
		if c := 2 * int64(cap(st.words)); c > newCap {
			newCap = c
		}
		nw := make([]uint64, need, newCap)
		copy(nw, st.words[:int64(keep)*st.perRow])
		st.words = nw
		return
	}
	st.words = st.words[:need]
	clear(st.words[int64(keep)*st.perRow:])
}

// DPGridCapacity returns the integer workload capacity DP grids the
// instance on — two instances can share checkpointed row state only when
// this value (and the item prefix) matches. Returns -1 when the capacity
// is not a representable grid (such instances fail validation in any
// solve); -1 never equals a recorded state's capacity.
func DPGridCapacity(in Instance) int64 {
	c := math.Floor(in.Capacity() * (1 + 1e-12))
	if math.IsNaN(c) || c < 0 || c >= float64(math.MaxInt64) {
		return -1
	}
	return int64(c)
}

// SolveCheckpoint is SolveStats recording the run's checkpointed row state
// into st for later SolveFrom warm starts. The solution is bit-identical
// to Solve; on error st is left invalid.
func (d DP) SolveCheckpoint(in Instance, st *DPState) (Solution, DPStats, error) {
	return d.solve(in, st)
}

// SolveFrom solves in warm-started from the recorded state of a previous
// solve: it finds the first task where in diverges from the recorded item
// prefix (comparing cycles and penalty bit patterns; IDs and the
// processor's power model don't enter the table), restores the last
// checkpoint at or before it, and re-runs only the remaining rows on the
// state's own row runner. The final workload scan and the solution
// evaluation always use in's own energy curve, so the result is
// bit-identical to a cold d.Solve(in) — the differential corpus,
// FuzzDeltaSolve and FuzzSparseDense pin this.
//
// ok=false means the state cannot warm this instance (invalid state,
// different grid capacity, divergence before the first checkpoint, or
// pruned sparse rows under a non-monotone curve); the caller should
// cold-solve. A non-nil error is the same failure a cold solve would
// report. The returned DPStats counts only the re-run rows — the measure
// of work saved.
//
// evolve=false treats st as read-only (safe for concurrent SolveFrom
// calls sharing one parent); evolve=true requires exclusive ownership and
// advances st in place to describe in, appending fresh checkpoints, so an
// event stream pays only its divergence suffix per step.
func (d DP) SolveFrom(st *DPState, in Instance, evolve bool) (sol Solution, stats DPStats, ok bool, err error) {
	if !st.Valid() {
		return Solution{}, stats, false, nil
	}
	ctx, err := newPooledEvalCtx(in)
	if err != nil {
		return Solution{}, stats, false, err
	}
	defer ctx.release()
	if ctx.hetero {
		return Solution{}, stats, false, ErrHeterogeneous
	}
	cap64 := int64(math.Floor(ctx.capacity * (1 + 1e-12)))
	if cap64 != st.cap64 {
		return Solution{}, stats, false, nil
	}
	// Pruned sparse rows carry only the dominance frontier, which is exact
	// only under a monotone final scan; a non-monotone instance must
	// cold-solve.
	if st.sparse && st.pruned && !ctx.curve.Monotone() {
		return Solution{}, stats, false, nil
	}
	// Sparse states re-run under the breakpoint budget; the dense grid-area
	// admission applies to dense states only.
	items := ctx.items
	if !st.sparse {
		if err := d.admitDense(len(items), cap64); err != nil {
			return Solution{}, stats, false, err
		}
	}
	k := st.restart(items)
	if k < 0 {
		return Solution{}, stats, false, nil
	}
	if evolve {
		st.evolve(k, d.checkpointStride(), items)
	}
	sc := getDPScratch()
	defer putDPScratch(sc)
	var ids []int
	if st.sparse {
		ids, err = d.warmSparse(ctx, st, k, evolve, sc, &stats)
	} else {
		ids, err = d.warmDense(ctx, st, k, evolve, sc, &stats)
	}
	if err != nil {
		if evolve {
			st.valid = false
		}
		return Solution{}, stats, true, err
	}
	sol, err = ctx.evaluate(ids)
	return sol, stats, true, err
}

// warmDense re-runs a dense state's rows from checkpoint k. The evolve
// path writes take bits in place into st's table; the read-only path
// writes a compact window of the re-run rows into pooled scratch and
// reconstructs the untouched prefix rows from st's table.
func (d DP) warmDense(ctx *evalCtx, st *DPState, k int, evolve bool, sc *dpScratch, stats *DPStats) ([]int, error) {
	snap := st.snaps[k]
	n := len(ctx.items)
	r := denseRun{its: ctx.items, cap64: st.cap64, workers: d.Workers, row: snap.row, reach: snap.reach}
	// Cells beyond the snapshot's reach must read +Inf exactly as they did
	// mid-cold-run.
	r.prev, r.cur = sc.denseRows(st.cap64 + 1)
	copy(r.prev, st.snapF[snap.off:snap.off+snap.reach+1])
	var onRow func(int, []float64, int64)
	if evolve {
		st.ensureRows(n, snap.row)
		r.take, onRow = denseTake(st.words, st.perRow, 0), st.noteRow
	} else {
		sc.words = zeroedU64(sc.words, int(int64(n-snap.row)*st.perRow))
		r.take = denseTake(sc.words, st.perRow, snap.row)
	}
	return r.solve(ctx.energy, 1, ctx.curve.Monotone(), denseTake(st.words, st.perRow, 0), sc, stats, onRow)
}
