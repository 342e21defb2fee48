// Partitioned rejection on a processor profile vector: M processors, each
// with its own speed/power description (the two-type big.LITTLE setting of
// the Thammawichai & Kerrigan line, generalized to arbitrary vectors). A
// solution assigns every task to one processor or rejects it; each
// processor runs its accepted workload at its own minimum-energy speed,
// and the objective remains total energy plus total rejection penalty.
// The identical-processor solvers in multiproc.go run these solvers on the
// all-equal vector AsHetero builds.
package multiproc

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"dvsreject/internal/conc"
	"dvsreject/internal/core"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// HeteroInstance is a rejection problem on M processors with per-processor
// speed/power profiles. M is implicit: len(Procs).
type HeteroInstance struct {
	Tasks task.Set
	Procs []speed.Proc
}

// M returns the processor count.
func (in HeteroInstance) M() int { return len(in.Procs) }

// Validate checks the components. Per-task power coefficients remain
// unsupported in the multiprocessor extension (heterogeneity lives in the
// processor vector here, not the tasks).
func (in HeteroInstance) Validate() error {
	if err := in.Tasks.Validate(); err != nil {
		return err
	}
	if len(in.Procs) == 0 {
		return fmt.Errorf("multiproc: hetero instance has no processors")
	}
	for m, p := range in.Procs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("multiproc: processor %d: %w", m, err)
		}
	}
	for _, t := range in.Tasks.Tasks {
		if t.PowerCoeff() != 1 {
			return fmt.Errorf("multiproc: task %d has heterogeneous power coefficient", t.ID)
		}
	}
	return nil
}

// AsHetero lifts an identical-processor instance into the profile-vector
// form: M copies of the same profile.
func AsHetero(in Instance) HeteroInstance {
	procs := make([]speed.Proc, in.M)
	for m := range procs {
		procs[m] = in.Proc
	}
	return HeteroInstance{Tasks: in.Tasks, Procs: procs}
}

// procsEqual reports bit-level equality of two processor descriptions —
// the grouping relation of the exhaustive search's symmetry reduction.
func procsEqual(a, b speed.Proc) bool {
	return a.Model == b.Model &&
		a.SMin == b.SMin && a.SMax == b.SMax &&
		a.DormantEnable == b.DormantEnable && a.Esw == b.Esw &&
		slices.Equal(a.Levels, b.Levels)
}

// heteroProc is one processor's per-solve state.
type heteroProc struct {
	curve speed.Curve
	// group is the index of the first processor equal to this one — the
	// symmetry group key (group == own index for group leaders).
	group int
}

// heteroCtx is the per-solve evaluation context: the validated instance
// and one heteroProc per processor. Equal processors share their group
// leader's curve (and with it a discrete ladder's power memo). Immutable
// after construction; safe for concurrent use by parallel search workers.
type heteroCtx struct {
	in    HeteroInstance
	procs []heteroProc
}

func newHeteroCtx(in HeteroInstance) (*heteroCtx, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	c := &heteroCtx{in: in, procs: make([]heteroProc, in.M())}
	for i, p := range in.Procs {
		hp := &c.procs[i]
		hp.group = i
		for j := 0; j < i; j++ {
			if c.procs[j].group == j && procsEqual(in.Procs[j], p) {
				*hp = c.procs[j]
				break
			}
		}
		if hp.group == i {
			hp.curve = speed.NewCurve(p, in.Tasks.Deadline, false)
		}
	}
	return c, nil
}

// energyAt returns processor m's frame energy at an integer workload,
// identical to in.Procs[m].Energy(float64(w), in.Tasks.Deadline).
func (c *heteroCtx) energyAt(m int, w int64) float64 { return c.procs[m].curve.Energy(float64(w)) }

// overloads reports whether w cycles exceed processor m's capacity, with
// a 1e-9 relative float slack (the curve's Fits threshold).
func (c *heteroCtx) overloads(m int, w int64) bool { return !c.procs[m].curve.Fits(float64(w)) }

// evaluate costs a position vector (pos[i] = processor of task i, -1 when
// rejected) on a validated instance.
func evaluate(in HeteroInstance, pos []int) (Solution, error) {
	mCount := in.M()
	sol := Solution{
		PerProc:  make([][]int, mCount),
		Energies: make([]float64, mCount),
	}
	loads := make([]int64, mCount)
	for i, t := range in.Tasks.Tasks {
		m := pos[i]
		if m < 0 {
			sol.Rejected = append(sol.Rejected, t.ID)
			sol.Penalty += t.Penalty
			continue
		}
		sol.PerProc[m] = append(sol.PerProc[m], t.ID)
		loads[m] += t.Cycles
	}
	for m := 0; m < mCount; m++ {
		slices.Sort(sol.PerProc[m])
		a, err := in.Procs[m].Assign(float64(loads[m]), in.Tasks.Deadline)
		if err != nil {
			return Solution{}, fmt.Errorf("multiproc: processor %d: %w", m, err)
		}
		sol.Energies[m] = a.Total
		sol.Energy += a.Total
	}
	slices.Sort(sol.Rejected)
	sol.Cost = sol.Energy + sol.Penalty
	return sol, nil
}

// EvaluateHetero costs a full assignment exactly on the heterogeneous
// instance. Tasks absent from the map (or mapped to a negative index) are
// rejected. It errors on out-of-range processor indices, on assignments
// referencing task IDs the instance does not contain, and when any
// processor exceeds its own capacity.
func EvaluateHetero(in HeteroInstance, assign Assignment) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	pos := make([]int, len(in.Tasks.Tasks))
	known := 0
	for i, t := range in.Tasks.Tasks {
		m, ok := assign[t.ID]
		if ok {
			known++
		}
		if !ok || m < 0 {
			pos[i] = -1
			continue
		}
		if m >= in.M() {
			return Solution{}, fmt.Errorf("multiproc: task %d assigned to processor %d of %d", t.ID, m, in.M())
		}
		pos[i] = m
	}
	if known != len(assign) {
		return Solution{}, fmt.Errorf("multiproc: assignment references %d unknown task IDs", len(assign)-known)
	}
	return evaluate(in, pos)
}

// HeteroSolver is one heterogeneous admission/partitioning algorithm.
type HeteroSolver interface {
	Name() string
	Solve(in HeteroInstance) (Solution, error)
}

// HeteroSolverByName resolves the heterogeneous solver registry. The
// serve engine and the CLI route requests through it.
func HeteroSolverByName(name string) (HeteroSolver, bool) {
	switch name {
	case "HETERO-PART":
		return HeteroPartition{}, true
	case "HETERO-LTF":
		return HeteroLTFReject{}, true
	case "HETERO-LS":
		return HeteroLTFRejectLS{}, true
	case "HETERO-OPT":
		return HeteroExhaustive{}, true
	}
	return nil, false
}

// HeteroSolverNames lists the registry in presentation order.
func HeteroSolverNames() []string {
	return []string{"HETERO-PART", "HETERO-LTF", "HETERO-LS", "HETERO-OPT"}
}

// densityOrder returns the task indices in non-increasing penalty density
// vi/ci, ties kept in input order.
func densityOrder(tasks []task.Task) []int {
	ord := make([]int, len(tasks))
	for i := range ord {
		ord[i] = i
	}
	denser := func(a, b int) bool {
		return tasks[a].Penalty*float64(tasks[b].Cycles) > tasks[b].Penalty*float64(tasks[a].Cycles)
	}
	slices.SortStableFunc(ord, func(a, b int) int {
		switch {
		case denser(a, b):
			return -1
		case denser(b, a):
			return 1
		}
		return 0
	})
	return ord
}

// HeteroLTFReject is the Largest-Task-First-style constructive heuristic
// with admission control: tasks in non-increasing penalty density, each
// tentatively placed on the least-loaded processor that has room for it
// (lowest index among equal loads), and accepted iff its marginal energy
// there is below its penalty.
type HeteroLTFReject struct{}

// Name implements HeteroSolver.
func (HeteroLTFReject) Name() string { return "HETERO-LTF" }

// Solve implements HeteroSolver.
func (HeteroLTFReject) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	pos, _ := c.heteroLTFReject()
	return evaluate(c.in, pos)
}

// heteroLTFReject runs the constructive pass. It returns pos[i] = processor
// of task i (-1 when rejected) together with the per-processor loads, the
// warm start of the local search.
func (c *heteroCtx) heteroLTFReject() (pos []int, loads []int64) {
	tasks := c.in.Tasks.Tasks
	loads = make([]int64, len(c.procs))
	pos = make([]int, len(tasks))
	for i := range pos {
		pos[i] = -1
	}
	for _, ti := range densityOrder(tasks) {
		t := tasks[ti]
		m := -1
		for k, w := range loads {
			if (m < 0 || w < loads[m]) && !c.overloads(k, w+t.Cycles) {
				m = k
			}
		}
		if m < 0 {
			continue
		}
		w := loads[m]
		marginal := c.energyAt(m, w+t.Cycles) - c.energyAt(m, w)
		if marginal < t.Penalty {
			pos[ti] = m
			loads[m] += t.Cycles
		}
	}
	return pos, loads
}

// HeteroLTFRejectLS refines HeteroLTFReject with steepest-descent local
// search over five move kinds: reject an accepted task, admit a rejected
// task onto its best processor, migrate an accepted task to another
// processor, swap an accepted task out for a rejected one, and exchange
// two accepted tasks across processors (the move that repairs the load
// balance convexity rewards but density-ordered placement misses). Every
// energy probe goes through the touched processor's own curve.
type HeteroLTFRejectLS struct {
	// MaxIterations bounds the move count; 0 means 10·n.
	MaxIterations int
	// DisableExchange restricts the neighbourhood to single-task moves
	// (the pre-exchange behaviour, kept for ablation).
	DisableExchange bool
}

// Name implements HeteroSolver.
func (HeteroLTFRejectLS) Name() string { return "HETERO-LS" }

// Solve implements HeteroSolver. Move evaluation is incremental: the
// energy of every processor at its current load is cached across the
// whole sweep (loads only change when a move is applied), so probing a
// move costs only the energies of the one or two touched processors at
// their changed loads — O(1) closed-form probes on continuous-speed
// processors — instead of re-pricing untouched processors.
func (g HeteroLTFRejectLS) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	pos, loads := c.heteroLTFReject()
	limit := g.MaxIterations
	if limit == 0 {
		limit = 10 * len(in.Tasks.Tasks)
	}
	tasks := in.Tasks.Tasks
	mCount := in.M()

	// procE[m] = energyAt(m, loads[m]), refreshed after each applied move.
	procE := make([]float64, mCount)
	for m := range procE {
		procE[m] = c.energyAt(m, loads[m])
	}
	// addE[ti·M+m] = energyAt(m, loads[m]+cycles(ti)), the "task ti lands
	// on processor m" probe shared by the migrate, admit and swap moves —
	// +Inf when the task does not fit there, so every gain built on it is
	// -Inf or NaN and never beats bestGain: those moves need no capacity
	// check of their own. Loads only change when a move is applied, so the
	// table is refilled once per iteration; a task's own processor is
	// never probed and left stale.
	addE := make([]float64, len(tasks)*mCount)

	for iter := 0; iter < limit; iter++ {
		for ti, t := range tasks {
			row := addE[ti*mCount : (ti+1)*mCount]
			for m := range row {
				switch w := loads[m] + t.Cycles; {
				case m == pos[ti]:
				case c.overloads(m, w):
					row[m] = math.Inf(1)
				default:
					row[m] = c.energyAt(m, w)
				}
			}
		}
		bestGain := 1e-9
		var apply func()
		for ti := range tasks {
			t := tasks[ti]
			ti := ti
			cur := pos[ti]
			if cur >= 0 {
				// Reject.
				removed := c.energyAt(cur, loads[cur]-t.Cycles)
				gain := procE[cur] - removed - t.Penalty
				if gain > bestGain {
					bestGain = gain
					m := cur
					apply = func() { pos[ti] = -1; loads[m] -= t.Cycles }
				}
				// Migrate.
				for m := 0; m < mCount; m++ {
					if m == cur {
						continue
					}
					gain := procE[cur] + procE[m] -
						removed - addE[ti*mCount+m]
					if gain > bestGain {
						bestGain = gain
						from, to := cur, m
						apply = func() {
							pos[ti] = to
							loads[from] -= t.Cycles
							loads[to] += t.Cycles
						}
					}
				}
			} else {
				// Admit onto the best processor.
				for m := 0; m < mCount; m++ {
					gain := t.Penalty - (addE[ti*mCount+m] - procE[m])
					if gain > bestGain {
						bestGain = gain
						to := m
						apply = func() { pos[ti] = to; loads[to] += t.Cycles }
					}
				}
			}
		}

		// Swap an accepted task out for a rejected one (possibly on a
		// different processor) — the compound admission repair no pair of
		// single moves reaches when both halves are individually losing.
		if !g.DisableExchange {
			for oi := range tasks {
				mo := pos[oi]
				if mo < 0 {
					continue
				}
				out := tasks[oi]
				oi := oi
				// Both terms of the out-processor's energy delta are
				// invariant across the inner loops.
				outDelta := procE[mo] - c.energyAt(mo, loads[mo]-out.Cycles)
				for ii := range tasks {
					if pos[ii] >= 0 {
						continue
					}
					inc := tasks[ii]
					ii := ii
					for m := 0; m < mCount; m++ {
						gain := inc.Penalty - out.Penalty
						if m == mo {
							load := loads[mo] - out.Cycles + inc.Cycles
							if c.overloads(mo, load) {
								continue
							}
							gain += procE[mo] - c.energyAt(mo, load)
						} else {
							gain += outDelta
							gain += procE[m] - addE[ii*mCount+m]
						}
						if gain > bestGain {
							bestGain = gain
							mo, m := mo, m
							apply = func() {
								pos[oi] = -1
								loads[mo] -= out.Cycles
								pos[ii] = m
								loads[m] += inc.Cycles
							}
						}
					}
				}
			}
		}

		// Exchange two accepted tasks across processors.
		if !g.DisableExchange {
			for ai := range tasks {
				ma := pos[ai]
				if ma < 0 {
					continue
				}
				a := tasks[ai]
				ai := ai
				for bi := range tasks {
					mb := pos[bi]
					b := tasks[bi]
					if mb < 0 || a.ID >= b.ID || ma == mb {
						continue
					}
					bi := bi
					newA := loads[ma] - a.Cycles + b.Cycles
					newB := loads[mb] - b.Cycles + a.Cycles
					if c.overloads(ma, newA) || c.overloads(mb, newB) {
						continue
					}
					gain := procE[ma] + procE[mb] - c.energyAt(ma, newA) - c.energyAt(mb, newB)
					if gain > bestGain {
						bestGain = gain
						ma, mb, newA, newB := ma, mb, newA, newB
						apply = func() {
							pos[ai], pos[bi] = mb, ma
							loads[ma], loads[mb] = newA, newB
						}
					}
				}
			}
		}

		if apply == nil {
			break
		}
		apply()
		for m := range procE {
			procE[m] = c.energyAt(m, loads[m])
		}
	}
	return evaluate(c.in, pos)
}

// HeteroExhaustive enumerates all (M+1)ⁿ assignments by branch and bound,
// with a symmetry reduction over groups of equal processors: among the
// empty processors of one group only the first is tried. Exact for tiny
// instances (the experiment suite's optimum reference).
type HeteroExhaustive struct {
	// MaxAssignments guards the search space; 0 means 5 million.
	MaxAssignments int64
	// Workers sets the parallel fan-out of Solve: the top of the search
	// tree is split into prefix subtrees that a worker pool explores
	// concurrently against a shared atomic incumbent bound. 0 means
	// GOMAXPROCS, 1 forces the serial search. The returned solution is
	// identical either way; SolveStats always searches serially so its
	// node counts stay deterministic.
	Workers int
}

// Name implements HeteroSolver.
func (HeteroExhaustive) Name() string { return "HETERO-OPT" }

// Solve implements HeteroSolver.
func (e HeteroExhaustive) Solve(in HeteroInstance) (Solution, error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		sol, _, err := e.SolveStats(in)
		return sol, err
	}
	c, err := e.prepare(in)
	if err != nil {
		return Solution{}, err
	}
	return c.searchParallel(workers)
}

// SolveStats is Solve plus the number of branch-and-bound nodes entered —
// the instrumentation the search-ablation experiments and the differential
// tests read. The search is always serial here, keeping the node counts
// deterministic and comparable across runs.
func (e HeteroExhaustive) SolveStats(in HeteroInstance) (Solution, int64, error) {
	c, err := e.prepare(in)
	if err != nil {
		return Solution{}, 0, err
	}
	s := newHeteroSearcher(c)
	s.dfs(0, 0)
	sol, err := s.finish()
	return sol, s.nodes, err
}

// prepare validates the instance and checks the assignment-count guard —
// the work shared by the serial and parallel drivers.
func (e HeteroExhaustive) prepare(in HeteroInstance) (*heteroCtx, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return nil, err
	}
	limit := e.MaxAssignments
	if limit == 0 {
		limit = 5_000_000
	}
	total := int64(1)
	for range in.Tasks.Tasks {
		total *= int64(in.M() + 1)
		if total > limit {
			return nil, fmt.Errorf("multiproc: exhaustive search needs %d+ assignments, over the limit %d", total, limit)
		}
	}
	return c, nil
}

// placements appends to dst the processors a task of the given cycles may
// join from loads, in index order: every processor with room for it,
// except that among the empty processors of one symmetry group only the
// first is tried (placements on the others are permutations of it). tried
// is all-false scratch of length M and is left all-false.
func (c *heteroCtx) placements(dst []int, loads []int64, cycles int64, tried []bool) []int {
	for m, w := range loads {
		if w == 0 {
			g := c.procs[m].group
			if tried[g] {
				continue
			}
			tried[g] = true
		}
		if c.overloads(m, w+cycles) {
			continue
		}
		dst = append(dst, m)
	}
	clear(tried)
	return dst
}

// searchParallel fans the top of the search tree out to a worker pool: the
// first splitDepth placement decisions enumerate prefix subtrees in serial
// DFS visit order (the same placements as the serial search, no bound
// pruning), workers explore them concurrently sharing an atomic incumbent
// cost, and the per-subtree winners are folded back in DFS order under the
// serial improvement rule — so the returned solution matches the serial
// search.
func (c *heteroCtx) searchParallel(workers int) (Solution, error) {
	tasks := c.in.Tasks.Tasks
	mCount := len(c.procs)

	// Split deep enough to keep every worker busy (≥4 subtrees each), but
	// never to the leaves; each level multiplies the prefix count by up to
	// M+1 (M placements + reject), so a shallow split suffices.
	splitDepth, count := 0, 1
	for splitDepth < len(tasks)-1 && splitDepth < 8 && count < 4*workers {
		splitDepth++
		count *= mCount + 1
	}
	if splitDepth == 0 {
		s := newHeteroSearcher(c)
		s.dfs(0, 0)
		return s.finish()
	}

	type prefix struct {
		loads   []int64
		choice  []int
		penalty float64
	}
	var prefixes []prefix
	loads := make([]int64, mCount)
	choice := make([]int, splitDepth)
	cand := make([]int, splitDepth*mCount)
	tried := make([]bool, mCount)
	var enumerate func(i int, penalty float64)
	enumerate = func(i int, penalty float64) {
		if i == splitDepth {
			prefixes = append(prefixes, prefix{
				loads: slices.Clone(loads), choice: slices.Clone(choice), penalty: penalty,
			})
			return
		}
		t := tasks[i]
		for _, m := range c.placements(cand[i*mCount:i*mCount:(i+1)*mCount], loads, t.Cycles, tried) {
			loads[m] += t.Cycles
			choice[i] = m
			enumerate(i+1, penalty)
			loads[m] -= t.Cycles
		}
		choice[i] = -1
		enumerate(i+1, penalty+t.Penalty)
	}
	enumerate(0, 0)

	// The shared incumbent: the best cost any worker has proven so far,
	// maintained with a CAS-min over its float bits.
	var shared atomic.Uint64
	shared.Store(math.Float64bits(math.Inf(1)))

	// The subtree searches never fail, so neither does ForEach.
	winners, _ := conc.ForEach(len(prefixes), workers, func(i int) (*heteroSearcher, error) {
		p := prefixes[i]
		s := newHeteroSearcher(c)
		s.shared = &shared
		s.setLoads(p.loads)
		copy(s.choice, p.choice)
		s.dfs(splitDepth, p.penalty)
		return s, nil
	})

	// Fold the subtree winners in DFS order with the serial improvement
	// rule.
	best := winners[0]
	for _, s := range winners[1:] {
		if s.bestCost < best.bestCost-1e-12 {
			best = s
		}
	}
	return best.finish()
}

// heteroSearcher is one branch-and-bound search state: the serial search
// uses a single instance, the parallel search one per subtree (plus the
// shared incumbent they prune against).
type heteroSearcher struct {
	c      *heteroCtx
	loads  []int64
	procE  []float64 // procE[m] = energyAt(m, loads[m])
	choice []int     // -1 reject, else processor
	// cand[i·M:(i+1)·M] holds the placements of task i at its current
	// node; tried is the placements scratch.
	cand  []int
	tried []bool

	bestCost float64
	best     []int // the incumbent's choice vector
	nodes    int64

	// shared, when non-nil (parallel mode), is the cross-worker incumbent
	// cost as float bits; workers prune against it and publish their own
	// improvements into it.
	shared *atomic.Uint64
}

func newHeteroSearcher(c *heteroCtx) *heteroSearcher {
	n, mCount := len(c.in.Tasks.Tasks), len(c.procs)
	s := &heteroSearcher{
		c:        c,
		loads:    make([]int64, mCount),
		procE:    make([]float64, mCount),
		choice:   make([]int, n),
		cand:     make([]int, n*mCount),
		tried:    make([]bool, mCount),
		bestCost: math.Inf(1),
		best:     make([]int, n),
	}
	for m := range s.procE {
		s.procE[m] = c.energyAt(m, 0)
	}
	return s
}

// setLoads starts the search from the given per-processor loads.
func (s *heteroSearcher) setLoads(loads []int64) {
	copy(s.loads, loads)
	for m, w := range s.loads {
		s.procE[m] = s.c.energyAt(m, w)
	}
}

// pruned reports whether a node whose partial cost is pc (a lower bound on
// every leaf below it) cannot improve the result. The local incumbent uses
// the serial rule (pc within 1e-12 of it never strictly improves). The
// shared cross-worker incumbent is applied with the margin reversed —
// prune only when pc exceeds it by more than 1e-12 — so a subtree whose
// best leaf exactly ties another worker's published cost still finds that
// leaf: subtree winners are then independent of publish timing, and the
// DFS-ordered fold resolves exact ties the way the serial search does.
func (s *heteroSearcher) pruned(pc float64) bool {
	if pc >= s.bestCost-1e-12 {
		return true
	}
	return s.shared != nil && pc >= math.Float64frombits(s.shared.Load())+1e-12
}

// publish records an improved incumbent, CAS-minning it into the shared
// bound in parallel mode.
func (s *heteroSearcher) publish(cost float64) {
	if s.shared == nil {
		return
	}
	for {
		old := s.shared.Load()
		if math.Float64frombits(old) <= cost {
			return
		}
		if s.shared.CompareAndSwap(old, math.Float64bits(cost)) {
			return
		}
	}
}

// dfs explores placements for tasks[i:], with penalty the accumulated
// rejection penalty of the prefix.
func (s *heteroSearcher) dfs(i int, penalty float64) {
	s.nodes++
	// Bound: current energy + current penalty (both only grow).
	var energy float64
	for _, e := range s.procE {
		energy += e
	}
	if s.pruned(energy + penalty) {
		return
	}
	if i == len(s.choice) {
		s.bestCost = energy + penalty
		copy(s.best, s.choice)
		s.publish(s.bestCost)
		return
	}
	t := s.c.in.Tasks.Tasks[i]
	mCount := len(s.loads)
	for _, m := range s.c.placements(s.cand[i*mCount:i*mCount:(i+1)*mCount], s.loads, t.Cycles, s.tried) {
		e := s.procE[m]
		s.loads[m] += t.Cycles
		s.procE[m] = s.c.energyAt(m, s.loads[m])
		s.choice[i] = m
		s.dfs(i+1, penalty)
		s.loads[m] -= t.Cycles
		s.procE[m] = e
	}
	s.choice[i] = -1
	s.dfs(i+1, penalty+t.Penalty)
}

// finish evaluates the incumbent; a search that reached no leaf errors.
func (s *heteroSearcher) finish() (Solution, error) {
	if math.IsInf(s.bestCost, 1) {
		return Solution{}, fmt.Errorf("multiproc: exhaustive search found no solution")
	}
	return evaluate(s.c.in, s.best)
}

// HeteroPartition is the partition-then-reject solver: every task gets a
// candidate *owner* processor, the per-processor accept/reject subproblem
// is solved *optimally* by the single-processor rejection DP (dense or
// sparse rows), and a bounded best-improvement move search re-solves the
// two affected processors when migrating a task's ownership lowers the
// total cost.
// Two ownership seeds are refined and the cheaper result kept: a
// penalty-density/normalized-load constructive pass, and the
// HeteroLTFRejectLS solution — whose accept set each per-processor DP can
// always reproduce, so HETERO-PART never costs more than HETERO-LS.
type HeteroPartition struct {
	// MaxStates bounds each per-processor DP; 0 means the core default.
	MaxStates int64
	// MaxPasses bounds the ownership-move passes per seed; 0 means 4.
	MaxPasses int
}

// heteroSwapLimit caps the task count for HeteroPartition's O(n²)
// pairwise owner-swap pass; larger instances refine with migrations only.
const heteroSwapLimit = 64

// Name implements HeteroSolver.
func (HeteroPartition) Name() string { return "HETERO-PART" }

// Solve implements HeteroSolver.
func (h HeteroPartition) Solve(in HeteroInstance) (Solution, error) {
	c, err := newHeteroCtx(in)
	if err != nil {
		return Solution{}, err
	}
	tasks := in.Tasks.Tasks
	mCount := in.M()

	// Per-processor optimal accept/reject via the rejection DP. Empty
	// ownership short-circuits to the idle-energy solution.
	dp := core.DP{MaxStates: h.MaxStates}
	solveProc := func(m int, owned []int) (core.Solution, error) {
		if len(owned) == 0 {
			idle := c.energyAt(m, 0)
			return core.Solution{Energy: idle, Cost: idle}, nil
		}
		sub := task.Set{Deadline: in.Tasks.Deadline, Tasks: make([]task.Task, 0, len(owned))}
		for _, ti := range owned {
			sub.Tasks = append(sub.Tasks, tasks[ti])
		}
		return dp.Solve(core.Instance{Tasks: sub, Proc: in.Procs[m]})
	}

	// refine solves each processor's DP on the seed ownership, then runs
	// bounded best-improvement move passes — migrating one task's ownership
	// re-solves only the two touched processors. On small instances each
	// pass also tries pairwise owner swaps (the coordinated exchanges that
	// single migrations cannot reach); the O(n²) swap scan is skipped past
	// heteroSwapLimit tasks to keep large serve solves at O(n·M) DP calls.
	passes := h.MaxPasses
	if passes == 0 {
		passes = 4
	}
	doSwaps := len(tasks) <= heteroSwapLimit
	refine := func(owner []int) ([]core.Solution, float64, error) {
		owned := make([][]int, mCount)
		for ti, m := range owner {
			owned[m] = append(owned[m], ti)
		}
		procSols := make([]core.Solution, mCount)
		for m := 0; m < mCount; m++ {
			sol, err := solveProc(m, owned[m])
			if err != nil {
				return nil, 0, err
			}
			procSols[m] = sol
		}
		for pass := 0; pass < passes; pass++ {
			improved := false
			for ti := range tasks {
				from := owner[ti]
				fromOwned := slices.DeleteFunc(slices.Clone(owned[from]), func(x int) bool { return x == ti })
				fromSol, err := solveProc(from, fromOwned)
				if err != nil {
					return nil, 0, err
				}
				bestDelta := -1e-9
				bestTo := -1
				var bestToSol core.Solution
				for to := 0; to < mCount; to++ {
					if to == from {
						continue
					}
					toSol, err := solveProc(to, append(slices.Clone(owned[to]), ti))
					if err != nil {
						return nil, 0, err
					}
					delta := (fromSol.Cost + toSol.Cost) - (procSols[from].Cost + procSols[to].Cost)
					if delta < bestDelta {
						bestDelta, bestTo, bestToSol = delta, to, toSol
					}
				}
				if bestTo >= 0 {
					owned[bestTo] = append(owned[bestTo], ti)
					owned[from] = fromOwned
					owner[ti] = bestTo
					procSols[from], procSols[bestTo] = fromSol, bestToSol
					improved = true
				}
			}
			for ti := 0; doSwaps && ti < len(tasks); ti++ {
				for tj := ti + 1; tj < len(tasks); tj++ {
					pa, pb := owner[ti], owner[tj]
					if pa == pb {
						continue
					}
					aOwned := slices.DeleteFunc(slices.Clone(owned[pa]), func(x int) bool { return x == ti })
					aOwned = append(aOwned, tj)
					bOwned := slices.DeleteFunc(slices.Clone(owned[pb]), func(x int) bool { return x == tj })
					bOwned = append(bOwned, ti)
					aSol, err := solveProc(pa, aOwned)
					if err != nil {
						return nil, 0, err
					}
					bSol, err := solveProc(pb, bOwned)
					if err != nil {
						return nil, 0, err
					}
					delta := (aSol.Cost + bSol.Cost) - (procSols[pa].Cost + procSols[pb].Cost)
					if delta < -1e-9 {
						owned[pa], owned[pb] = aOwned, bOwned
						owner[ti], owner[tj] = pb, pa
						procSols[pa], procSols[pb] = aSol, bSol
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		total := 0.0
		for _, s := range procSols {
			total += s.Cost
		}
		return procSols, total, nil
	}

	// Seed A: tasks in non-increasing penalty density, each owned by the
	// processor with the smallest projected normalized load (load+c)/cap —
	// the big.LITTLE generalization of least-loaded. Ownership never
	// rejects; the DP does, so overflow here is fine.
	ord := densityOrder(tasks)
	caps := make([]float64, mCount)
	for m, p := range in.Procs {
		caps[m] = math.Max(p.Capacity(in.Tasks.Deadline), 1)
	}
	normalizedOwner := func(owner []int, loads []int64, ti int) int {
		t := tasks[ti]
		best, bestScore := 0, math.Inf(1)
		for m := 0; m < mCount; m++ {
			score := float64(loads[m]+t.Cycles) / caps[m]
			if score < bestScore {
				best, bestScore = m, score
			}
		}
		owner[ti] = best
		loads[best] += t.Cycles
		return best
	}
	ownerA := make([]int, len(tasks))
	loadsA := make([]int64, mCount)
	for _, ti := range ord {
		normalizedOwner(ownerA, loadsA, ti)
	}
	solsA, costA, err := refine(ownerA)
	if err != nil {
		return Solution{}, err
	}

	// Seed B: ownership from the local-search solution — accepted tasks
	// keep their processor, rejected ones fall back to the normalized-load
	// rule in density order. The per-processor DP can always reproduce the
	// LS accept set, so the refined cost never exceeds HETERO-LS.
	byID := make(map[int]int, len(tasks))
	for i, t := range tasks {
		byID[t.ID] = i
	}
	lsSol, err := (HeteroLTFRejectLS{}).Solve(in)
	if err != nil {
		return Solution{}, err
	}
	ownerB := make([]int, len(tasks))
	for i := range ownerB {
		ownerB[i] = -1
	}
	loadsB := make([]int64, mCount)
	for m, ids := range lsSol.PerProc {
		for _, id := range ids {
			ti := byID[id]
			ownerB[ti] = m
			loadsB[m] += tasks[ti].Cycles
		}
	}
	for _, ti := range ord {
		if ownerB[ti] < 0 {
			normalizedOwner(ownerB, loadsB, ti)
		}
	}
	solsB, costB, err := refine(ownerB)
	if err != nil {
		return Solution{}, err
	}

	// Seed C: sequential DP cascade — processors in descending capacity
	// order each run the rejection DP on the still-unowned tasks and keep
	// what they accept; the leftovers fall back to the normalized-load
	// rule. Finds tight packings the load-balancing seeds miss.
	procOrd := make([]int, mCount)
	for i := range procOrd {
		procOrd[i] = i
	}
	sort.Slice(procOrd, func(a, b int) bool {
		ca, cb := caps[procOrd[a]], caps[procOrd[b]]
		if ca != cb {
			return ca > cb
		}
		return procOrd[a] < procOrd[b]
	})
	ownerC := make([]int, len(tasks))
	for i := range ownerC {
		ownerC[i] = -1
	}
	remaining := make([]int, len(tasks))
	copy(remaining, ord)
	for _, m := range procOrd {
		if len(remaining) == 0 {
			break
		}
		sol, err := solveProc(m, remaining)
		if err != nil {
			return Solution{}, err
		}
		next := remaining[:0]
		accepted := make(map[int]bool, len(sol.Accepted))
		for _, id := range sol.Accepted {
			accepted[id] = true
		}
		for _, ti := range remaining {
			if accepted[tasks[ti].ID] {
				ownerC[ti] = m
			} else {
				next = append(next, ti)
			}
		}
		remaining = next
	}
	loadsC := make([]int64, mCount)
	for ti, m := range ownerC {
		if m >= 0 {
			loadsC[m] += tasks[ti].Cycles
		}
	}
	for _, ti := range ord {
		if ownerC[ti] < 0 {
			normalizedOwner(ownerC, loadsC, ti)
		}
	}
	solsC, costC, err := refine(ownerC)
	if err != nil {
		return Solution{}, err
	}

	procSols, bestCost := solsA, costA
	if costB < bestCost {
		procSols, bestCost = solsB, costB
	}
	if costC < bestCost {
		procSols = solsC
	}

	// Assemble the positions from each processor's accepted set.
	pos := make([]int, len(tasks))
	for i := range pos {
		pos[i] = -1
	}
	for m, ps := range procSols {
		for _, id := range ps.Accepted {
			pos[byID[id]] = m
		}
	}
	return evaluate(c.in, pos)
}

// DefaultHeteroLowerBoundStates mirrors core.DefaultLowerBoundStates for
// the pooled heterogeneous relaxation.
const DefaultHeteroLowerBoundStates = int64(1) << 20

// HeteroLowerBound returns a certified lower bound on the optimal
// heterogeneous partitioned-rejection cost of in, by solving a pooled
// convex relaxation exactly on a floor-scaled grid:
//
//  1. cycles are floor-scaled by an integer k chosen so the grid fits
//     maxStates (≤ 0 means DefaultHeteroLowerBoundStates), as in
//     core.CostLowerBound — every truly feasible accepted set stays
//     feasible in the scaled grid, and zero-scaled tasks are accepted for
//     free (both only lower the bound);
//  2. the M per-processor energy curves are pooled into one grid curve
//     Φ(t) = min over integer splits Σ_m j_m = t of Σ_m E_m(k·j_m). With
//     each E_m convex and nondecreasing (continuous speeds, dormancy
//     disabled — required, as in core.CostLowerBound), the discrete
//     inf-convolution is the ascending merge of the per-processor
//     marginal increments; a suffix-min pass per processor keeps the
//     merge a certified lower bound even under float jitter in the
//     marginals;
//  3. a real split's per-processor floors each lose strictly less than
//     one grid cell, so the relaxation prices a scaled workload t at
//     Φ(max(t−(M−1), 0)) — the certification offset;
//  4. an accept/reject DP over the scaled cycles against that pooled
//     curve yields the bound.
//
// With M = 1 and k = 1 the bound equals the exact single-processor DP
// optimum. Discrete speed ladders and dormant-enabled processors are
// refused (their E(w) can dip, breaking both monotonicity and the
// marginal merge).
func HeteroLowerBound(in HeteroInstance, maxStates int64) (float64, error) {
	if maxStates <= 0 {
		maxStates = DefaultHeteroLowerBoundStates
	}
	if err := in.Validate(); err != nil {
		return 0, err
	}
	d := in.Tasks.Deadline
	mCount := in.M()
	for m, p := range in.Procs {
		if p.Levels != nil || p.DormantEnable {
			return 0, fmt.Errorf("multiproc: hetero lower bound needs monotone convex energy curves (continuous speeds, dormancy disabled; processor %d)", m)
		}
	}

	// Integer per-processor capacities, with the evaluator's float slack.
	caps := make([]int64, mCount)
	var capTotal int64
	for m, p := range in.Procs {
		caps[m] = int64(math.Floor(p.Capacity(d) * (1 + 1e-9)))
		if caps[m] < 0 {
			return 0, fmt.Errorf("multiproc: negative capacity on processor %d", m)
		}
		capTotal += caps[m]
	}

	curves := make([]speed.Curve, mCount)
	idle := 0.0
	for m, p := range in.Procs {
		curves[m] = speed.NewCurve(p, d, false)
		idle += curves[m].Energy(0)
	}

	n := int64(len(in.Tasks.Tasks))
	if n == 0 {
		return idle, nil
	}
	per := maxStates/n - 1
	if per < 1 {
		return 0, fmt.Errorf("multiproc: hetero lower-bound state budget %d too small for %d tasks", maxStates, n)
	}
	k := int64(1)
	if capTotal > per {
		k = (capTotal + per - 1) / per
	}

	// Pooled grid curve: ascending merge of per-processor marginal
	// increments over the scaled grid, suffix-min'd so each stream is
	// genuinely nondecreasing (float jitter can otherwise let the greedy
	// merge pick a non-minimal prefix selection).
	lims := make([]int64, mCount)
	var gridT int64
	for m := range caps {
		lims[m] = caps[m] / k
		gridT += lims[m]
	}
	margs := make([][]float64, mCount)
	for m := range margs {
		mg := make([]float64, lims[m])
		for j := int64(0); j < lims[m]; j++ {
			mg[j] = curves[m].Energy(float64((j+1)*k)) - curves[m].Energy(float64(j*k))
		}
		for j := int64(len(mg)) - 2; j >= 0; j-- {
			if mg[j] > mg[j+1] {
				mg[j] = mg[j+1]
			}
		}
		margs[m] = mg
	}
	phi := make([]float64, gridT+1)
	phi[0] = idle
	heads := make([]int64, mCount)
	for t := int64(1); t <= gridT; t++ {
		best, bestV := -1, math.Inf(1)
		for m := 0; m < mCount; m++ {
			if heads[m] < lims[m] && margs[m][heads[m]] < bestV {
				best, bestV = m, margs[m][heads[m]]
			}
		}
		heads[best]++
		phi[t] = phi[t-1] + bestV
	}

	// Floor-scale the tasks, dropping the free (⌊c/k⌋ = 0) ones.
	type scaled struct {
		c int64
		v float64
	}
	items := make([]scaled, 0, n)
	var sumScaled int64
	for _, t := range in.Tasks.Tasks {
		sc := t.Cycles / k
		if sc == 0 {
			continue
		}
		items = append(items, scaled{c: sc, v: t.Penalty})
		sumScaled += sc
	}
	if len(items) == 0 {
		return idle, nil
	}

	// Accept/reject DP against the pooled curve. The reachable scaled
	// total is bounded by gridT + (M−1): a feasible real split floors to
	// Σ_m j_m ≥ t − (M−1), so any heavier t is infeasible for real too.
	shift := int64(mCount - 1)
	width := sumScaled
	if width > gridT+shift {
		width = gridT + shift
	}
	dp := make([]float64, width+1)
	for t := int64(1); t <= width; t++ {
		dp[t] = math.Inf(1)
	}
	for _, it := range items {
		for t := width; t >= 0; t-- {
			keep := math.Inf(1)
			if t >= it.c && !math.IsInf(dp[t-it.c], 1) {
				keep = dp[t-it.c]
			}
			rej := dp[t] + it.v
			if keep < rej {
				dp[t] = keep
			} else {
				dp[t] = rej
			}
		}
	}
	best := math.Inf(1)
	for t := int64(0); t <= width; t++ {
		if math.IsInf(dp[t], 1) {
			continue
		}
		g := t - shift
		if g < 0 {
			g = 0
		}
		if g > gridT {
			g = gridT
		}
		if v := phi[g] + dp[t]; v < best {
			best = v
		}
	}
	return best, nil
}

// HeteroResult is a heterogeneous solve with its certified optimality
// context, mirroring the anytime tier's gap reporting.
type HeteroResult struct {
	Solution
	// LowerBound is the certified HeteroLowerBound of the instance; only
	// meaningful when Gap ≥ 0.
	LowerBound float64
	// Gap is (Cost − LowerBound)/Cost, clamped at 0 — so 0 means proven
	// optimal. Negative when no lower bound was available (discrete
	// ladders, dormant processors).
	Gap float64
}

// SolveHeteroCertified runs s and attaches the certified optimality gap.
// A declined lower bound (non-convex processor flavours) is not an error:
// the result carries Gap = −1.
func SolveHeteroCertified(in HeteroInstance, s HeteroSolver) (HeteroResult, error) {
	sol, err := s.Solve(in)
	if err != nil {
		return HeteroResult{}, err
	}
	res := HeteroResult{Solution: sol, Gap: -1}
	lb, err := HeteroLowerBound(in, 0)
	if err != nil {
		return res, nil
	}
	res.LowerBound = lb
	switch {
	case sol.Cost <= 0:
		res.Gap = 0
	default:
		res.Gap = math.Max(0, (sol.Cost-lb)/sol.Cost)
	}
	return res, nil
}
