// The delta path: when a request misses the fingerprint cache, a second,
// structural index can still locate a solved near-duplicate — a parent
// whose task prefix matches the newcomer bit-for-bit — and warm-start the
// DP from its checkpointed row state instead of cold-solving.
//
// The index key is a sorted-prefix hash chain: a rolling 64-bit hash of
// the (cycles, penalty) bit patterns of tasks 1..r, seeded with the DP
// grid capacity. A parent registers its chain value at every checkpointed
// row; a miss probes its own chain from the full length downward and
// warm-starts from the deepest parent found. Hash collisions are
// harmless: core.DP.SolveFrom re-verifies the prefix exactly and either
// restarts earlier or declines, so the index is purely an accelerator —
// served solutions stay bit-identical to cold solves.
package serve

import (
	"container/list"
	"math"
	"sync"

	"dvsreject/internal/core"
	"dvsreject/internal/task"
)

const (
	defaultDeltaParents = 16
	defaultDeltaBytes   = 64 << 20
	// jumboTasks is the request size past which the engine purges the
	// core solver pools after solving: one n≥10⁴ request grows the pooled
	// DP rows and eval contexts to megabytes, and without the purge every
	// later small solve drags them through GC cycles.
	jumboTasks = 10000
)

// chainKey addresses one (grid capacity, prefix length, prefix hash)
// point of the similarity index.
type chainKey struct {
	cap int64
	row int
	h   uint64
}

// deltaParent is one registered DPState with the keys it is filed under.
type deltaParent struct {
	st    *core.DPState
	keys  []chainKey
	elem  *list.Element
	bytes int64
}

// deltaIndex is the LRU of warm parents. Lookups share parents across
// goroutines — SolveFrom with evolve=false never writes the state — so
// the mutex guards only the map and recency list.
type deltaIndex struct {
	mu         sync.Mutex
	maxParents int
	maxBytes   int64
	bytes      int64
	lru        *list.List // *deltaParent; front = most recent
	byKey      map[chainKey]*deltaParent
}

func newDeltaIndex(maxParents int) *deltaIndex {
	if maxParents <= 0 {
		maxParents = defaultDeltaParents
	}
	return &deltaIndex{
		maxParents: maxParents,
		maxBytes:   defaultDeltaBytes,
		lru:        list.New(),
		byKey:      make(map[chainKey]*deltaParent),
	}
}

// deltaMix folds one 64-bit word into the rolling hash: FNV-style prime
// multiply followed by an xor-shift finisher so consecutive rows spread
// across the key map even when the folded words differ in few bits.
func deltaMix(h, x uint64) uint64 {
	h ^= x
	h *= 1099511628211
	h ^= h >> 29
	return h
}

// deltaChain fills buf with the prefix hash chain of the task list:
// buf[r-1] covers tasks[0:r]. Only the fields that steer DP rows
// participate — cycles and penalty bit patterns, plus the grid capacity
// as the seed. IDs, the power model and FastPow are excluded on purpose:
// row state is independent of them (see core.DPState).
func deltaChain(buf []uint64, tasks []task.Task, cap64 int64) []uint64 {
	h := deltaMix(14695981039346656037, uint64(cap64))
	buf = buf[:0]
	for _, t := range tasks {
		h = deltaMix(h, uint64(t.Cycles))
		h = deltaMix(h, math.Float64bits(t.Penalty))
		buf = append(buf, h)
	}
	return buf
}

// lookup returns the warm parent with the deepest registered prefix of
// chain, or nil. It probes every row in the window (n-stride, n] — where
// an append/remove/modify-tail parent's final row lands — then walks the
// checkpoint grid downward a bounded number of steps.
func (di *deltaIndex) lookup(cap64 int64, chain []uint64, stride int) *core.DPState {
	if len(chain) == 0 {
		return nil
	}
	n := len(chain)
	probe := func(row int) *core.DPState {
		di.mu.Lock()
		defer di.mu.Unlock()
		p, ok := di.byKey[chainKey{cap: cap64, row: row, h: chain[row-1]}]
		if !ok {
			return nil
		}
		di.lru.MoveToFront(p.elem)
		return p.st
	}
	lo := n - stride
	if lo < 0 {
		lo = 0
	}
	for row := n; row > lo; row-- {
		if st := probe(row); st != nil {
			return st
		}
	}
	// Deeper mutations: only grid rows are registered, so step by stride.
	row := lo / stride * stride
	for steps := 0; row >= 1 && steps < 16; row, steps = row-stride, steps+1 {
		if st := probe(row); st != nil {
			return st
		}
	}
	return nil
}

// register files a freshly recorded state under its checkpoint rows'
// chain values, evicting least-recently-used parents past the budgets.
func (di *deltaIndex) register(st *core.DPState, cap64 int64, chain []uint64) {
	if !st.Valid() {
		return
	}
	rows := st.AppendSnapshotRows(nil)
	p := &deltaParent{st: st, bytes: st.MemoryBytes()}
	for _, r := range rows {
		if r < 1 || r > len(chain) {
			continue
		}
		p.keys = append(p.keys, chainKey{cap: cap64, row: r, h: chain[r-1]})
	}
	if len(p.keys) == 0 {
		return
	}

	di.mu.Lock()
	defer di.mu.Unlock()
	p.elem = di.lru.PushFront(p)
	di.bytes += p.bytes
	for _, k := range p.keys {
		di.byKey[k] = p
	}
	for (di.lru.Len() > di.maxParents || di.bytes > di.maxBytes) && di.lru.Len() > 1 {
		back := di.lru.Back()
		old := back.Value.(*deltaParent)
		di.lru.Remove(back)
		di.bytes -= old.bytes
		for _, k := range old.keys {
			if di.byKey[k] == old {
				delete(di.byKey, k)
			}
		}
	}
}

// clear empties the index (Engine.Reset — benchmarks measuring cold
// solves must not be warm-started behind their back).
func (di *deltaIndex) clear() {
	di.mu.Lock()
	defer di.mu.Unlock()
	di.lru.Init()
	di.byKey = make(map[chainKey]*deltaParent)
	di.bytes = 0
}

// parents returns the resident parent count.
func (di *deltaIndex) parents() int {
	di.mu.Lock()
	defer di.mu.Unlock()
	return di.lru.Len()
}
