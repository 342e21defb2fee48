package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/verify/oracle"
)

// This file pins the optimized solver hot paths to reference
// implementations that follow the pre-optimization code shape: every
// energy probe goes through the Instance methods (surrogateEnergy, Fits,
// energyOf, Evaluate) with no caching, no closed forms, no pruned scans
// and no parallelism. On a corpus of random instances spanning every
// flavour — homogeneous, heterogeneous, leakage, discrete speeds, dormant
// mode — the production solvers must return the same accepted set and the
// same cost, and the branch-and-bound must explore the same node count.

// diffInstance draws one corpus instance; hetero toggles per-task power
// coefficients.
func diffInstance(t *testing.T, seed int64, n int, load float64, proc speed.Proc, hetero bool) Instance {
	t.Helper()
	set, err := gen.Frame(rand.New(rand.NewSource(seed)), gen.Config{
		N: n, Load: load, Deadline: 200, SMax: proc.MaxSpeed(),
		Penalty: gen.PenaltyModel(seed % 3), HeteroRho: hetero,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Instance{Tasks: set, Proc: proc}
}

type diffCase struct {
	name string
	in   Instance
}

// diffCorpus builds the ~50-instance differential corpus: six processor
// flavours × nine seeds, sizes 6–14, loads 0.6–2.0.
func diffCorpus(t *testing.T) []diffCase {
	t.Helper()
	flavors := []struct {
		name   string
		proc   speed.Proc
		hetero bool
	}{
		{"ideal-cubic", speed.Proc{Model: power.Cubic(), SMax: 1}, false},
		{"leaky-disable", speed.Proc{Model: power.XScale(), SMax: 1}, false},
		{"leaky-dormant", speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 2}, false},
		{"discrete-xscale", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels()}, false},
		{"discrete-dormant", speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(), DormantEnable: true, Esw: 2}, false},
		{"hetero-cubic", speed.Proc{Model: power.Cubic(), SMax: 1}, true},
	}
	var cases []diffCase
	for fi, f := range flavors {
		for s := int64(0); s < 9; s++ {
			n := 6 + int(s)
			load := 0.6 + 0.2*float64((int64(fi)+s)%8)
			in := diffInstance(t, 1000*int64(fi)+s, n, load, f.proc, f.hetero)
			cases = append(cases, diffCase{fmt.Sprintf("%s/seed=%d", f.name, s), in})
		}
	}
	return cases
}

// frameOf adapts Solution to the shared oracle's mirror struct. (This test
// file is in package core, so it reaches the oracle leaf directly; the
// verify layer above would be an import cycle from here.)
func frameOf(s Solution) oracle.FrameSolution {
	return oracle.FrameSolution{
		Accepted: s.Accepted, Rejected: s.Rejected,
		Assignment: s.Assignment, PerTaskSpeeds: s.PerTaskSpeeds,
		Energy: s.Energy, Penalty: s.Penalty, Cost: s.Cost,
	}
}

// sameSolution asserts an identical accepted set and a cost within 1e-9
// relative tolerance (in practice the costs are bit-equal; the tolerance
// absorbs nothing more than documentation).
func sameSolution(t *testing.T, name string, got, want Solution, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Errorf("%s: error mismatch: got %v, want %v", name, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		return
	}
	if err := oracle.SameFrameDecision(frameOf(got), frameOf(want), 1e-9); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// ---- reference implementations (pre-optimization code shape) ----

func refGreedyDensity(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	its := in.items()
	sort.SliceStable(its, func(a, b int) bool {
		return its[a].v*float64(its[b].c) > its[b].v*float64(its[a].c)
	})
	var accepted []int
	var wTrue int64
	var wEff float64
	for _, it := range its {
		if !in.Fits(float64(wTrue + it.c)) {
			continue
		}
		marginal := in.surrogateEnergy(wEff+it.ce) - in.surrogateEnergy(wEff)
		if marginal < it.v {
			accepted = append(accepted, it.id)
			wTrue += it.c
			wEff += it.ce
		}
	}
	return Evaluate(in, accepted)
}

func refGreedyMarginal(in Instance, disableSwaps bool) (Solution, error) {
	seed, err := refGreedyDensity(in)
	if err != nil {
		return Solution{}, err
	}
	its := in.items()
	n := len(its)
	limit := 10 * n

	acc := seed.AcceptedSet()
	var wTrue int64
	var wEff float64
	for _, it := range its {
		if acc[it.id] {
			wTrue += it.c
			wEff += it.ce
		}
	}
	for iter := 0; iter < limit; iter++ {
		bestGain := costEps
		bestOut, bestIn := -1, -1
		base := in.surrogateEnergy(wEff)
		for i, it := range its {
			if acc[it.id] {
				gain := base - in.surrogateEnergy(wEff-it.ce) - it.v
				if gain > bestGain {
					bestGain, bestOut, bestIn = gain, i, -1
				}
			} else {
				if in.Fits(float64(wTrue + it.c)) {
					gain := it.v - (in.surrogateEnergy(wEff+it.ce) - base)
					if gain > bestGain {
						bestGain, bestOut, bestIn = gain, -1, i
					}
				}
				if disableSwaps {
					continue
				}
				for j, jt := range its {
					if !acc[jt.id] {
						continue
					}
					if !in.Fits(float64(wTrue - jt.c + it.c)) {
						continue
					}
					newEff := wEff - jt.ce + it.ce
					gain := it.v - jt.v - (in.surrogateEnergy(newEff) - base)
					if gain > bestGain {
						bestGain, bestOut, bestIn = gain, j, i
					}
				}
			}
		}
		if bestOut < 0 && bestIn < 0 {
			break
		}
		if bestOut >= 0 {
			it := its[bestOut]
			delete(acc, it.id)
			wTrue -= it.c
			wEff -= it.ce
		}
		if bestIn >= 0 {
			it := its[bestIn]
			acc[it.id] = true
			wTrue += it.c
			wEff += it.ce
		}
	}
	ids := make([]int, 0, len(acc))
	for id := range acc {
		ids = append(ids, id)
	}
	return Evaluate(in, ids)
}

type refSearcher struct {
	in       Instance
	items    []item
	convex   bool
	accepted []bool
	best     []int
	bestCost float64
	haveBest bool
	nodes    int64
}

func refExhaustive(in Instance, weakOnly bool) (Solution, int64, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, 0, err
	}
	its := in.items()
	sort.Slice(its, func(a, b int) bool { return its[a].ce > its[b].ce })
	s := &refSearcher{
		in: in, items: its,
		convex:   in.convexEnergy() && !weakOnly,
		bestCost: math.Inf(1),
		accepted: make([]bool, len(its)),
	}
	if seed, err := refGreedyDensity(in); err == nil {
		s.bestCost = seed.Cost
		s.best = append([]int(nil), seed.Accepted...)
		s.haveBest = true
	}
	s.dfs(0, 0, 0, 0)
	if !s.haveBest {
		return Solution{}, s.nodes, fmt.Errorf("no feasible solution")
	}
	sol, err := Evaluate(in, s.best)
	return sol, s.nodes, err
}

func (s *refSearcher) dfs(idx int, wTrue int64, wEff, vRej float64) {
	s.nodes++
	if lb := s.lowerBound(idx, wEff, vRej); lb >= s.bestCost-costEps {
		return
	}
	if idx == len(s.items) {
		s.leaf(wEff, vRej)
		return
	}
	it := s.items[idx]
	if s.in.Fits(float64(wTrue + it.c)) {
		s.accepted[idx] = true
		s.dfs(idx+1, wTrue+it.c, wEff+it.ce, vRej)
		s.accepted[idx] = false
	}
	s.dfs(idx+1, wTrue, wEff, vRej+it.v)
}

func (s *refSearcher) lowerBound(idx int, wEff, vRej float64) float64 {
	base := s.in.surrogateEnergy(wEff)
	lb := base + vRej
	if !s.convex || math.IsInf(base, 1) {
		return lb
	}
	for i := idx; i < len(s.items); i++ {
		marginal := s.in.surrogateEnergy(wEff+s.items[i].ce) - base
		lb += math.Min(s.items[i].v, marginal)
	}
	return lb
}

func (s *refSearcher) leaf(wEff, vRej float64) {
	var ids []int
	for i, acc := range s.accepted {
		if acc {
			ids = append(ids, s.items[i].id)
		}
	}
	cost := s.in.surrogateEnergy(wEff) + vRej
	if s.in.Heterogeneous() {
		sol, err := Evaluate(s.in, ids)
		if err != nil {
			return
		}
		cost = sol.Cost
	}
	if cost < s.bestCost-costEps {
		s.bestCost = cost
		s.best = ids
		s.haveBest = true
	}
}

// refRejectionDP is the seed rejection DP with the full-width final scan.
func refRejectionDP(its []item, cap64 int64, energy func(float64) float64, scale float64) ([]int, error) {
	n := len(its)
	width := cap64 + 1
	f := make([]float64, width)
	for w := range f {
		f[w] = math.Inf(1)
	}
	f[0] = 0
	take := make([]bool, int64(n)*width) // take[i*width+w]: task i accepted on the path to w
	for i, it := range its {
		c := it.c
		if c > cap64 {
			for w := int64(0); w < width; w++ {
				if !math.IsInf(f[w], 1) {
					f[w] += it.v
				}
			}
			continue
		}
		for w := cap64; w >= 0; w-- {
			rejectCost := math.Inf(1)
			if !math.IsInf(f[w], 1) {
				rejectCost = f[w] + it.v
			}
			acceptCost := math.Inf(1)
			if w >= c && !math.IsInf(f[w-c], 1) {
				acceptCost = f[w-c]
			}
			if acceptCost < rejectCost {
				f[w] = acceptCost
				take[int64(i)*width+w] = true
			} else {
				f[w] = rejectCost
			}
		}
	}
	bestW, bestCost := int64(-1), math.Inf(1)
	for w := int64(0); w < width; w++ {
		if math.IsInf(f[w], 1) {
			continue
		}
		if c := energy(float64(w)*scale) + f[w]; c < bestCost {
			bestCost, bestW = c, w
		}
	}
	if bestW < 0 {
		return nil, fmt.Errorf("no feasible workload")
	}
	var ids []int
	w := bestW
	for i := n - 1; i >= 0; i-- {
		if take[int64(i)*width+w] {
			ids = append(ids, its[i].id)
			w -= its[i].c
		}
	}
	return ids, nil
}

func refDP(in Instance) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	if in.Heterogeneous() {
		return Solution{}, ErrHeterogeneous
	}
	its := in.items()
	cap64 := int64(math.Floor(in.Capacity() * (1 + 1e-12)))
	accepted, err := refRejectionDP(its, cap64, in.energyOf, 1)
	if err != nil {
		return Solution{}, err
	}
	return Evaluate(in, accepted)
}

func refApproxDP(in Instance, eps float64) (Solution, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, err
	}
	if in.Heterogeneous() {
		return Solution{}, ErrHeterogeneous
	}
	its := in.items()
	n := len(its)
	capTrue := in.Capacity()
	k := int64(math.Floor(eps * capTrue / float64(n+1)))
	if k < 1 {
		k = 1
	}
	scaled := make([]item, n)
	for i, it := range its {
		scaled[i] = item{id: it.id, c: (it.c + k - 1) / k, v: it.v}
	}
	capScaled := int64(math.Floor(capTrue * (1 + 1e-12) / float64(k)))
	accepted, err := refRejectionDP(scaled, capScaled, in.energyOf, float64(k))
	if err != nil {
		return Solution{}, err
	}
	return Evaluate(in, accepted)
}

// refRandomAdmission evaluates every trial with the full Evaluate and
// keeps the lowest-numbered strictly-cheapest trial — the selection the
// surrogate-costed production RAND must reproduce.
func refRandomAdmission(t *testing.T, in Instance, seed int64, restarts int) Solution {
	t.Helper()
	its := in.items()
	n := len(its)
	best := Solution{Cost: math.Inf(1)}
	for trial := 0; trial < restarts; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		perm := rng.Perm(n)
		var ids []int
		var wTrue int64
		var wEff float64
		for _, pi := range perm {
			it := its[pi]
			if !in.Fits(float64(wTrue + it.c)) {
				continue
			}
			marginal := in.surrogateEnergy(wEff+it.ce) - in.surrogateEnergy(wEff)
			if marginal < it.v {
				ids = append(ids, it.id)
				wTrue += it.c
				wEff += it.ce
			}
		}
		sol, err := Evaluate(in, ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Cost < best.Cost {
			best = sol
		}
	}
	return best
}

// ---- the differential assertions ----

func TestDifferentialGreedyDensity(t *testing.T) {
	for _, c := range diffCorpus(t) {
		got, gotErr := GreedyDensity{}.Solve(c.in)
		want, wantErr := refGreedyDensity(c.in)
		sameSolution(t, c.name, got, want, gotErr, wantErr)
	}
}

func TestDifferentialGreedyMarginal(t *testing.T) {
	for _, c := range diffCorpus(t) {
		for _, disableSwaps := range []bool{false, true} {
			got, gotErr := GreedyMarginal{DisableSwaps: disableSwaps}.Solve(c.in)
			want, wantErr := refGreedyMarginal(c.in, disableSwaps)
			sameSolution(t, fmt.Sprintf("%s/swaps=%v", c.name, !disableSwaps), got, want, gotErr, wantErr)
		}
	}
}

func TestDifferentialExhaustive(t *testing.T) {
	for _, c := range diffCorpus(t) {
		for _, weak := range []bool{false, true} {
			got, gotNodes, gotErr := Exhaustive{WeakBoundOnly: weak}.SolveStats(c.in)
			want, wantNodes, wantErr := refExhaustive(c.in, weak)
			name := fmt.Sprintf("%s/weak=%v", c.name, weak)
			sameSolution(t, name, got, want, gotErr, wantErr)
			if gotErr == nil && gotNodes != wantNodes {
				t.Errorf("%s: explored %d nodes, reference explored %d", name, gotNodes, wantNodes)
			}
		}
	}
}

func TestDifferentialDP(t *testing.T) {
	for _, c := range diffCorpus(t) {
		got, gotErr := DP{}.Solve(c.in)
		want, wantErr := refDP(c.in)
		sameSolution(t, c.name, got, want, gotErr, wantErr)
	}
}

func TestDifferentialApproxDP(t *testing.T) {
	for _, c := range diffCorpus(t) {
		for _, eps := range []float64{0.05, 0.3} {
			got, gotErr := ApproxDP{Eps: eps}.Solve(c.in)
			want, wantErr := refApproxDP(c.in, eps)
			sameSolution(t, fmt.Sprintf("%s/eps=%g", c.name, eps), got, want, gotErr, wantErr)
		}
	}
}

func TestDifferentialRandomAdmission(t *testing.T) {
	for _, c := range diffCorpus(t) {
		got, err := RandomAdmission{Seed: 42, Restarts: 12, Workers: 1}.Solve(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := refRandomAdmission(t, c.in, 42, 12)
		sameSolution(t, c.name, got, want, nil, nil)
	}
}

// TestExhaustiveParallelMatchesSerial pins the parallel branch-and-bound
// to the serial result, accepted IDs and cost alike.
func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	for _, c := range diffCorpus(t) {
		serial, serialErr := Exhaustive{Workers: 1}.Solve(c.in)
		for _, workers := range []int{2, 4, 7} {
			par, parErr := Exhaustive{Workers: workers}.Solve(c.in)
			sameSolution(t, fmt.Sprintf("%s/workers=%d", c.name, workers), par, serial, parErr, serialErr)
			if parErr == nil && par.Cost != serial.Cost {
				t.Errorf("%s/workers=%d: cost %v != serial %v", c.name, workers, par.Cost, serial.Cost)
			}
		}
	}
}

// TestRandomAdmissionParallelMatchesSerial: identical trials, identical
// winner, for every worker count, run after run.
func TestRandomAdmissionParallelMatchesSerial(t *testing.T) {
	for _, c := range diffCorpus(t) {
		serial, err := RandomAdmission{Seed: 7, Restarts: 16, Workers: 1}.Solve(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{2, 4} {
			par, err := RandomAdmission{Seed: 7, Restarts: 16, Workers: workers}.Solve(c.in)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", c.name, workers, err)
			}
			if !slices.Equal(par.Accepted, serial.Accepted) || par.Cost != serial.Cost {
				t.Errorf("%s/workers=%d: got %v cost %v, serial %v cost %v",
					c.name, workers, par.Accepted, par.Cost, serial.Accepted, serial.Cost)
			}
		}
	}
}
