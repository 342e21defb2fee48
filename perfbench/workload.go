package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/serve"
	"dvsreject/internal/task"
	"dvsreject/internal/wire"
)

// Instance shapes. The hit pool is cmd/loadgen's default pool (64
// instances of n=50, Zipf 1.1, about 2.5 KB JSON bodies); the large
// instances sit in the serve delta index's regime (n=1000 on a D=1000
// grid, load 1.2).
const (
	poolSize = 64
	poolN    = 50
	bigN     = 1000
	bigD     = 1000
	genLoad  = 1.2
	families = 8
	zipfS    = 1.1
)

// spec is one workload: how many nodes, which protocol, how many closed-
// loop client workers, and how many requests one measured window sends
// (the benchmark pauses between windows to generate and check requests).
// Why each workload exists is recorded in README.md and BENCHMARK.json.
type spec struct {
	name    string
	proto   string // "http" or "wire"
	nodes   int
	workers int
	chunk   int
	// hits marks workloads whose measured requests are plan-cache hits, so
	// a correct response carries the cache-hit flag.
	hits bool
}

// maxWorkers bounds spec.workers: all load comes from at most two client
// workers.
const maxWorkers = 2

var specs = []spec{
	{name: "hit-http", proto: "http", nodes: 1, workers: 2, chunk: 1024, hits: true},
	{name: "hit-wire", proto: "wire", nodes: 1, workers: 2, chunk: 1024, hits: true},
	{name: "cold-wire", proto: "wire", nodes: 2, workers: 1, chunk: 64},
	{name: "revise-wire", proto: "wire", nodes: 1, workers: 2, chunk: 128},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// item is one request of a workload's sequence.
type item struct {
	req  serve.Request
	body []byte // /solve JSON body (http) or FrameSolve payload (wire)
	pool int    // index into the workload's static instances; -1 for a fresh request
	div  int    // first task row that differs from the family base (revise-wire)
}

// source yields a workload's request sequence. The sequence depends only
// on the seed, never on timing: workers consume it in order.
type source interface {
	next() (item, error)
}

// Seed streams, so each purpose draws from its own generator.
const (
	streamPool = iota + 1
	streamZipf
	streamCold
	streamFamily
	streamRevise
)

// subSeed derives an independent generator seed from (seed, stream, i)
// with the splitmix64 finalizer.
func subSeed(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<56 ^ i
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// newSource returns the workload's request sequence and the static
// instances its setup pre-warms: the hit pool, or the revise families'
// bases (none for cold-wire).
func newSource(sp spec, seed int64) (source, []item, error) {
	switch sp.name {
	case "hit-http", "hit-wire":
		pool := make([]item, poolSize)
		for i := range pool {
			set, err := gen.Frame(rand.New(rand.NewSource(subSeed(seed, streamPool, uint64(i)))),
				gen.Config{N: poolN, Load: genLoad, Penalty: gen.PenaltyModel(i % 3)})
			if err != nil {
				return nil, nil, err
			}
			if pool[i], err = makeItem(set, sp.proto); err != nil {
				return nil, nil, err
			}
			pool[i].pool = i
		}
		rng := rand.New(rand.NewSource(subSeed(seed, streamZipf, 0)))
		return &poolSource{pool: pool, zipf: rand.NewZipf(rng, zipfS, 1, poolSize-1)}, pool, nil
	case "cold-wire":
		return &coldSource{seed: seed, proto: sp.proto}, nil, nil
	case "revise-wire":
		s := &reviseSource{proto: sp.proto, weyl: make([]uint64, families)}
		bases := make([]item, families)
		for f := range bases {
			set, err := gen.Frame(rand.New(rand.NewSource(subSeed(seed, streamFamily, uint64(f)))),
				gen.Config{N: bigN, Deadline: bigD, Load: genLoad, Penalty: gen.PenaltyModel(f % 3)})
			if err != nil {
				return nil, nil, err
			}
			s.bases = append(s.bases, set.Tasks)
			s.used = append(s.used, make([]bool, 3*len(set.Tasks)))
			if bases[f], err = makeItem(set, sp.proto); err != nil {
				return nil, nil, err
			}
			bases[f].pool = f
		}
		s.rng = rand.New(rand.NewSource(subSeed(seed, streamRevise, 0)))
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, families-1)
		return s, bases, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", sp.name)
}

// makeItem builds a request the way a client would: the wire form first,
// then the engine request the server will see.
func makeItem(set task.Set, proto string) (item, error) {
	wreq := serve.WireRequest{Solver: "DP", Deadline: set.Deadline, SMax: 1,
		Tasks: make([]serve.WireTask, len(set.Tasks))}
	for i, t := range set.Tasks {
		wreq.Tasks[i] = serve.WireTask{ID: t.ID, Cycles: t.Cycles, Penalty: t.Penalty, Rho: t.Rho}
	}
	req, err := wreq.ToRequest()
	if err != nil {
		return item{}, err
	}
	it := item{req: req, pool: -1}
	if proto == "http" {
		it.body, err = json.Marshal(wreq)
	} else {
		it.body = wire.EncodeRequest(wireRequest(req))
	}
	return it, err
}

func wireRequest(r serve.Request) wire.Request {
	return wire.Request{Solver: r.Solver, Tasks: r.Tasks, Proc: r.Proc, FastPow: r.FastPow, Timeout: r.Timeout}
}

func serveRequest(w wire.Request) serve.Request {
	return serve.Request{Tasks: w.Tasks, Proc: w.Proc, Solver: w.Solver, FastPow: w.FastPow, Timeout: w.Timeout}
}

// poolSource draws Zipf-hot instances from a static pool.
type poolSource struct {
	pool []item
	zipf *rand.Zipf
}

func (s *poolSource) next() (item, error) { return s.pool[s.zipf.Uint64()], nil }

// coldSource draws a never-seen, unrelated instance per request.
type coldSource struct {
	seed  int64
	i     uint64
	proto string
}

func (s *coldSource) next() (item, error) {
	set, err := gen.Frame(rand.New(rand.NewSource(subSeed(s.seed, streamCold, s.i))),
		gen.Config{N: bigN, Deadline: bigD, Load: genLoad, Penalty: gen.PenaltyModel(s.i % 3)})
	s.i++
	if err != nil {
		return item{}, err
	}
	return makeItem(set, s.proto)
}

// Revision kinds of revise-wire, after Leung & Tsui's dynamic workload
// variation: a task arrives, a task withdraws, or one task is revised.
const (
	revArrive = iota
	revWithdraw
	revCycles
	revPenalty
	revKinds
)

// revision is one revision of a family base.
type revision struct {
	family, kind, pos int
	cycles            int64
	penalty           float64
}

// reviseSource applies one fresh revision to a Zipf-chosen family base
// per request, at a position uniform over the task list. No revision is
// issued twice, so no measured request repeats: withdrawals and cycle
// revisions are drawn without replacement per family, and every new
// penalty is scaled by the next point of a per-family Weyl sequence in
// [0.5, 1.5), which never repeats.
type reviseSource struct {
	proto string
	bases [][]task.Task
	rng   *rand.Rand
	zipf  *rand.Zipf
	used  [][]bool // per family: [0,n) withdrawn positions, [n,3n) cycle revisions (+1, +2)
	weyl  []uint64
}

func (s *reviseSource) next() (item, error) {
	for {
		f := int(s.zipf.Uint64())
		base := s.bases[f]
		n := len(base)
		r := revision{family: f, kind: s.rng.Intn(revKinds)}
		switch r.kind {
		case revArrive:
			r.pos = s.rng.Intn(n + 1)
			r.cycles = base[s.rng.Intn(n)].Cycles
			r.penalty = base[s.rng.Intn(n)].Penalty * s.factor(f)
		case revWithdraw:
			r.pos = s.rng.Intn(n)
			if s.used[f][r.pos] {
				continue
			}
			s.used[f][r.pos] = true
		case revCycles:
			r.pos = s.rng.Intn(n)
			step := 1 + s.rng.Intn(2)
			if slot := step*n + r.pos; s.used[f][slot] {
				continue
			} else {
				s.used[f][slot] = true
			}
			r.cycles = base[r.pos].Cycles + int64(step)
		case revPenalty:
			r.pos = s.rng.Intn(n)
			r.penalty = base[r.pos].Penalty * s.factor(f)
		}
		return s.apply(r)
	}
}

// factor returns family f's next penalty scale in [0.5, 1.5).
func (s *reviseSource) factor(f int) float64 {
	s.weyl[f]++
	_, frac := math.Modf(float64(s.weyl[f]) * 0.6180339887498949)
	return 0.5 + frac
}

// apply builds the revised instance. An arrival takes the next free ID,
// so IDs stay unique.
func (s *reviseSource) apply(r revision) (item, error) {
	base := s.bases[r.family]
	ts := slices.Clone(base)
	switch r.kind {
	case revArrive:
		ts = slices.Insert(ts, r.pos, task.Task{ID: len(base), Cycles: r.cycles, Penalty: r.penalty})
	case revWithdraw:
		ts = slices.Delete(ts, r.pos, r.pos+1)
	case revCycles:
		ts[r.pos].Cycles = r.cycles
	case revPenalty:
		ts[r.pos].Penalty = r.penalty
	}
	it, err := makeItem(task.Set{Deadline: bigD, Tasks: ts}, s.proto)
	it.div = r.pos
	return it, err
}

// probe is the revision the setup sends to prove the delta path is live
// before measuring. Its penalty factor (1.5) is outside the range the
// sequence draws from, so it never coincides with a measured request.
func (s *reviseSource) probe() (item, error) {
	pos := len(s.bases[0]) / 2
	return s.apply(revision{family: 0, kind: revPenalty, pos: pos, penalty: s.bases[0][pos].Penalty * 1.5})
}

// reference is the answer every response must match bit for bit: a direct
// core DP solve of the same request.
func reference(req serve.Request) (core.Solution, error) {
	s, err := core.NewSolver("DP", core.SolverSpec{})
	if err != nil {
		return core.Solution{}, err
	}
	return s.Solve(core.Instance{Tasks: req.Tasks, Proc: req.Proc, FastPow: req.FastPow})
}

// references solves reqs on two goroutines (the box has two cores).
func references(reqs []serve.Request) ([]core.Solution, error) {
	out := make([]core.Solution, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += 2 {
				out[i], errs[i] = reference(reqs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference solve %d: %w", i, err)
		}
	}
	return out, nil
}

// expectBody is the exact response a correct server sends for a request
// whose reference solution is sol: the canonical FrameSolution payload,
// or the /solve JSON body. Wire payloads are canonical and JSON floats
// are printed shortest-round-trip, so byte equality is bit identity.
func expectBody(proto string, sol core.Solution, hit bool) []byte {
	if proto == "wire" {
		return wire.EncodeResult(wire.Result{Solution: sol, CacheHit: hit})
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(serve.WireResponse{
		Accepted: orEmpty(sol.Accepted), Rejected: orEmpty(sol.Rejected),
		Energy: sol.Energy, Penalty: sol.Penalty, Cost: sol.Cost, CacheHit: hit,
	})
	return buf.Bytes()
}

// checkBody verifies a response body against the reference. The byte
// comparison with the expected body is the fast path; a body that differs
// only in serving flags (a cache hit where a miss was expected, say) is
// decoded and compared field by field.
func checkBody(proto string, got, want []byte, sol core.Solution) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if proto == "wire" {
		res, err := wire.DecodeResult(got)
		if err != nil {
			return err
		}
		if !bytes.Equal(wire.EncodeResult(wire.Result{Solution: res.Solution}), wire.EncodeResult(wire.Result{Solution: sol})) {
			return fmt.Errorf("solution differs from the direct DP solve")
		}
		return nil
	}
	var w serve.WireResponse
	if err := json.Unmarshal(got, &w); err != nil {
		return err
	}
	bits := math.Float64bits
	if w.Error != "" || w.Anytime || !slices.Equal(orEmpty(w.Accepted), orEmpty(sol.Accepted)) ||
		!slices.Equal(orEmpty(w.Rejected), orEmpty(sol.Rejected)) ||
		bits(w.Energy) != bits(sol.Energy) || bits(w.Penalty) != bits(sol.Penalty) || bits(w.Cost) != bits(sol.Cost) {
		return fmt.Errorf("response differs from the direct DP solve")
	}
	return nil
}

func orEmpty(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}
