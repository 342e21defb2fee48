// Command bench is the benchmark-regression harness: it runs the core
// solver microbenchmarks programmatically (the same instances as the
// BenchmarkSolver* functions in bench_test.go) and writes a
// machine-readable JSON report, BENCH_core.json by default. Committing the
// report alongside a performance-sensitive change gives reviewers and CI a
// before/after record without re-deriving numbers from log output:
//
//	go run ./cmd/bench -o BENCH_core.json            # or: make bench-json
//	go run ./cmd/bench -benchtime 5s -o after.json   # longer, steadier runs
//
// Regression gating compares the fresh run against a committed baseline,
// printing per-case ns/op deltas and exiting non-zero when any case slows
// down beyond the threshold (15% by default):
//
//	go run ./cmd/bench -compare BENCH_core.json -o new.json   # or: make bench-diff
//	go run ./cmd/bench -compare old.json -max-regress 25
//
// Profiling a run (the output feeds `go tool pprof`):
//
//	go run ./cmd/bench -cpuprofile cpu.out -memprofile mem.out
//
// For statistically rigorous comparisons, run the regular `go test -bench`
// twice and feed the outputs to benchstat; this harness trades confidence
// intervals for a stable machine-readable snapshot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"dvsreject/internal/anytime"
	"dvsreject/internal/cache"
	"dvsreject/internal/core"
	"dvsreject/internal/dormant"
	"dvsreject/internal/exper"
	"dvsreject/internal/gen"
	"dvsreject/internal/multiproc"
	"dvsreject/internal/online"
	"dvsreject/internal/power"
	"dvsreject/internal/sched/edf"
	"dvsreject/internal/serve"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

type result struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// M is the processor count of multiprocessor cases; omitted (0) for
	// single-processor benchmarks, keeping the schema backward-compatible.
	M           int     `json:"m,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Cache is set only for the serve-layer benchmarks: the engine's
	// plan-cache counters after the measured run. Omitted elsewhere, so
	// the schema stays backward-compatible.
	Cache *cache.Stats `json:"cache,omitempty"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	GoOS        string   `json:"goos"`
	GoArch      string   `json:"goarch"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	BenchTime   string   `json:"benchtime"`
	Results     []result `json:"results"`
}

// instance mirrors benchInstance in bench_test.go: one deterministic
// contested instance per size.
func instance(n int, load float64) (core.Instance, error) {
	set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{
		N: n, Load: load, Deadline: 1000,
	})
	if err != nil {
		return core.Instance{}, err
	}
	return core.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}, nil
}

// multiprocInstance mirrors BenchmarkMultiprocLTFRejectLS: total load
// scales with M so every processor sees load 1.5.
func multiprocInstance(n, m int) (multiproc.Instance, error) {
	set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{
		N: n, Load: 1.5 * float64(m), Deadline: 1000,
	})
	if err != nil {
		return multiproc.Instance{}, err
	}
	return multiproc.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: m}, nil
}

// heteroInstance is the HeteroPartition case: a two-type big.LITTLE
// vector (half the processors at smax 1, half at 0.5) with total load
// scaled so the platform sees load 1.5.
func heteroInstance(n, m int) (multiproc.HeteroInstance, error) {
	procs, err := gen.BigLittle(gen.BigLittleConfig{NBig: m / 2, NLittle: m - m/2, Ratio: 2})
	if err != nil {
		return multiproc.HeteroInstance{}, err
	}
	smaxTotal := 0.0
	for _, p := range procs {
		smaxTotal += p.SMax
	}
	set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{
		N: n, Load: 1.5 * smaxTotal, Deadline: 1000,
	})
	if err != nil {
		return multiproc.HeteroInstance{}, err
	}
	return multiproc.HeteroInstance{Tasks: set, Procs: procs}, nil
}

// dormantWorkload mirrors BenchmarkDormantCompare: a light-load storm on a
// dormant-enable XScale processor, redrawing jointly infeasible draws.
func dormantWorkload(n int) ([]edf.Job, float64, speed.Proc, error) {
	rng := rand.New(rand.NewSource(42))
	proc := speed.Proc{Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.4}
	for attempt := 0; attempt < 100; attempt++ {
		storm := online.RandomStorm(rng, online.StormConfig{N: n, Load: 0.4, Span: 200})
		jobs := make([]edf.Job, 0, len(storm))
		horizon := 0.0
		for _, j := range storm {
			jobs = append(jobs, edf.Job{TaskID: j.ID, Release: j.Arrival, Deadline: j.Deadline, Cycles: j.Cycles})
			if j.Deadline > horizon {
				horizon = j.Deadline
			}
		}
		if _, _, err := dormant.Compare(jobs, 1, horizon, proc); err == nil {
			return jobs, horizon, proc, nil
		}
	}
	return nil, 0, speed.Proc{}, fmt.Errorf("no feasible storm in 100 draws")
}

// serveErr unwraps a serve response into the error the harness checks.
func serveErr(r serve.Response) error { return r.Err }

// compareReports prints per-case ns/op deltas of fresh against the baseline
// report at path and returns the names of cases whose slowdown exceeds
// maxRegress percent, or — when maxAllocsRegress > 0 — whose allocs/op
// grew by more than that percentage AND by more than a small absolute
// floor (4 allocations, so 1→2 on a near-zero-alloc case never gates).
// Cases present on only one side are reported but never gate (a new
// benchmark has no baseline to regress against).
func compareReports(path string, fresh report, maxRegress, maxAllocsRegress float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	key := func(r result) string {
		if r.M > 0 {
			return fmt.Sprintf("%s/n=%d/M=%d", r.Name, r.N, r.M)
		}
		return fmt.Sprintf("%s/n=%d", r.Name, r.N)
	}
	old := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		old[key(r)] = r
	}

	var regressed []string
	fmt.Printf("\n%-42s %14s %14s %9s\n", "benchmark (vs "+path+")", "old ns/op", "new ns/op", "delta")
	for _, r := range fresh.Results {
		k := key(r)
		b, ok := old[k]
		if !ok {
			fmt.Printf("%-42s %14s %14.0f %9s\n", k, "-", r.NsPerOp, "new")
			continue
		}
		delete(old, k)
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			regressed = append(regressed, k)
		}
		if maxAllocsRegress > 0 && r.AllocsPerOp-b.AllocsPerOp > 4 &&
			float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxAllocsRegress/100) {
			mark += fmt.Sprintf("  ALLOCS %d→%d", b.AllocsPerOp, r.AllocsPerOp)
			regressed = append(regressed, k+" (allocs)")
		}
		fmt.Printf("%-42s %14.0f %14.0f %+8.1f%%%s\n", k, b.NsPerOp, r.NsPerOp, delta, mark)
	}
	for k := range old {
		fmt.Printf("%-42s %14s %14s %9s\n", k, "-", "-", "removed")
	}
	return regressed, nil
}

func main() {
	testing.Init()
	out := flag.String("o", "BENCH_core.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "minimum measuring time per benchmark (forwarded to the testing package)")
	compare := flag.String("compare", "", "baseline JSON report to diff against; exit non-zero on regressions")
	maxRegress := flag.Float64("max-regress", 15, "with -compare, the ns/op slowdown percentage that fails the run")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 0, "with -compare, the allocs/op growth percentage that fails the run (0 disables; a 4-alloc absolute floor filters noise)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -benchtime: %v\n", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cases := []struct {
		name   string
		sizes  []int
		solver core.Solver
	}{
		{"SolverDP", []int{10, 100, 1000, 10000, 100000}, core.DP{}},
		{"SolverApproxDP", []int{10, 100, 1000, 10000, 100000}, core.ApproxDP{Eps: 0.1}},
		{"SolverGreedyDensity", []int{10, 100, 1000, 10000}, core.GreedyDensity{}},
		{"SolverGreedyMarginal", []int{10, 100, 1000}, core.GreedyMarginal{}},
		{"SolverRounding", []int{10, 100, 1000}, core.Rounding{}},
		{"SolverExhaustive", []int{12, 16, 20}, core.Exhaustive{Workers: 1}},
		{"SolverExhaustiveParallel", []int{16, 20}, core.Exhaustive{}},
		{"SolverRandomAdmission", []int{100, 1000}, core.RandomAdmission{Seed: 1, Restarts: 32, Workers: 1}},
		{"SolverRandomAdmissionParallel", []int{100, 1000}, core.RandomAdmission{Seed: 1, Restarts: 32}},
	}

	// benchCase is one measured operation. setup builds the case's
	// workload and returns fn (a single iteration) plus an optional stats
	// snapshot of the serve engine's cache counters. Construction is
	// deferred to just before the measured run — and the workload dropped
	// right after — so one case's live heap (an n=100000 instance, pooled
	// scratch grown to match) never inflates the GC mark cost of the
	// cases that follow.
	type benchCase struct {
		name  string
		n, m  int
		setup func() (fn func() error, stats func() cache.Stats, err error)
	}
	var benchCases []benchCase
	for _, c := range cases {
		for _, n := range c.sizes {
			solver := c.solver
			benchCases = append(benchCases, benchCase{
				name: c.name, n: n,
				setup: func() (func() error, func() cache.Stats, error) {
					in, err := instance(n, 1.5)
					if err != nil {
						return nil, nil, err
					}
					return func() error { _, err := solver.Solve(in); return err }, nil, nil
				},
			})
		}
	}
	// The multiproc/online/dormant extensions, mirroring the root
	// bench_test.go shapes (LTF-REJECT-LS at per-processor load 1.5, the
	// E11 storm, the E14 light-load dormant comparison).
	for _, m := range []int{2, 4, 8} {
		benchCases = append(benchCases, benchCase{
			name: "MultiprocLTFRejectLS", n: 64, m: m,
			setup: func() (func() error, func() cache.Stats, error) {
				in, err := multiprocInstance(64, m)
				if err != nil {
					return nil, nil, err
				}
				return func() error { _, err := (multiproc.LTFRejectLS{}).Solve(in); return err }, nil, nil
			},
		})
	}
	for _, m := range []int{2, 4, 8} {
		benchCases = append(benchCases, benchCase{
			name: "MultiprocLTFReject", n: 64, m: m,
			setup: func() (func() error, func() cache.Stats, error) {
				in, err := multiprocInstance(64, m)
				if err != nil {
					return nil, nil, err
				}
				return func() error { _, err := (multiproc.LTFReject{}).Solve(in); return err }, nil, nil
			},
		})
	}
	// The BenchmarkMultiprocExhaustive instance, searched serially so the
	// row does not depend on the core count.
	benchCases = append(benchCases, benchCase{
		name: "MultiprocExhaustive", n: 10, m: 2,
		setup: func() (func() error, func() cache.Stats, error) {
			set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{N: 10, Load: 3, Deadline: 1000})
			if err != nil {
				return nil, nil, err
			}
			in := multiproc.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, M: 2}
			return func() error { _, err := (multiproc.Exhaustive{Workers: 1}).Solve(in); return err }, nil, nil
		},
	})
	for _, m := range []int{2, 4} {
		benchCases = append(benchCases, benchCase{
			name: "HeteroPartition", n: 24, m: m,
			setup: func() (func() error, func() cache.Stats, error) {
				in, err := heteroInstance(24, m)
				if err != nil {
					return nil, nil, err
				}
				return func() error { _, err := (multiproc.HeteroPartition{}).Solve(in); return err }, nil, nil
			},
		})
	}
	benchCases = append(benchCases, benchCase{
		name: "OnlineSimulate", n: 64,
		setup: func() (func() error, func() cache.Stats, error) {
			jobs := online.RandomStorm(rand.New(rand.NewSource(42)), online.StormConfig{N: 64, Load: 1.5})
			proc := speed.Proc{Model: power.Cubic(), SMax: 1}
			return func() error { _, err := online.Simulate(jobs, proc, online.MarginalCost{}); return err }, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "DormantCompare", n: 64,
		setup: func() (func() error, func() cache.Stats, error) {
			jobs, horizon, proc, err := dormantWorkload(64)
			if err != nil {
				return nil, nil, err
			}
			return func() error { _, _, err := dormant.Compare(jobs, 1, horizon, proc); return err }, nil, nil
		},
	})
	// The serving layer (internal/serve): a cold solve (cache cleared
	// every iteration), a warm cache hit, and a 64-request batch in the
	// steady (warm) state — all on the DP n=100 instance the 50×
	// hit-speedup criterion is stated against.
	serveReq := func() (serve.Request, error) {
		in, err := instance(100, 1.5)
		if err != nil {
			return serve.Request{}, err
		}
		return serve.Request{Tasks: in.Tasks, Proc: in.Proc, Solver: "DP"}, nil
	}
	benchCases = append(benchCases, benchCase{
		name: "ServeColdSolve", n: 100,
		setup: func() (func() error, func() cache.Stats, error) {
			req, err := serveReq()
			if err != nil {
				return nil, nil, err
			}
			ctx := context.Background()
			cold := serve.New(serve.Config{})
			return func() error {
					cold.Reset()
					return serveErr(cold.Solve(ctx, req))
				},
				func() cache.Stats { return cold.Stats().Cache }, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "ServeWarmHit", n: 100,
		setup: func() (func() error, func() cache.Stats, error) {
			req, err := serveReq()
			if err != nil {
				return nil, nil, err
			}
			ctx := context.Background()
			warm := serve.New(serve.Config{})
			if err := serveErr(warm.Solve(ctx, req)); err != nil {
				return nil, nil, fmt.Errorf("prewarm: %v", err)
			}
			return func() error {
					r := warm.Solve(ctx, req)
					if r.Err == nil && !r.CacheHit {
						return fmt.Errorf("warm solve missed the cache")
					}
					return r.Err
				},
				func() cache.Stats { return warm.Stats().Cache }, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "ServeBatch64", n: 100,
		setup: func() (func() error, func() cache.Stats, error) {
			ctx := context.Background()
			batchReqs := make([]serve.Request, 64)
			for i := range batchReqs {
				bin, err := instance(100, 1.2+0.01*float64(i))
				if err != nil {
					return nil, nil, err
				}
				batchReqs[i] = serve.Request{Tasks: bin.Tasks, Proc: bin.Proc, Solver: "DP"}
			}
			batch := serve.New(serve.Config{})
			return func() error {
					for _, r := range batch.SolveBatch(ctx, batchReqs) {
						if r.Err != nil {
							return r.Err
						}
					}
					return nil
				},
				func() cache.Stats { return batch.Stats().Cache }, nil
		},
	})
	// The incremental-solving benchmarks run on a wide DP grid — same
	// generator and load, Deadline 8000 instead of 1000 — because warm
	// starts trade O(n·cap) table rebuilds for O(n + cap) fixed work
	// (context setup, final scan, reconstruction): the wider the grid, the
	// more a full rebuild costs and the more a delta re-solve saves. The
	// narrow n=1000 grid above caps any warm/cold ratio near 4× on fixed
	// cost alone; the wide shape is the regime replanning and serve
	// near-misses actually live in. FastPow is on for the whole group
	// (cold references included, so ratios stay apples-to-apples): without
	// it the final scan's math.Pow per grid cell dominates every warm
	// re-solve.
	const wideDeadline = 8000
	wideInstance := func(n int) (core.Instance, error) {
		set, err := gen.Frame(rand.New(rand.NewSource(42)), gen.Config{
			N: n, Load: 1.5, Deadline: wideDeadline,
		})
		if err != nil {
			return core.Instance{}, err
		}
		return core.Instance{
			Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}, FastPow: true,
		}, nil
	}
	benchCases = append(benchCases, benchCase{
		name: "DPColdWide", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := wideInstance(1000)
			if err != nil {
				return nil, nil, err
			}
			return func() error { _, err := (core.DP{}).Solve(in); return err }, nil, nil
		},
	})
	// The same cold solve recording a stride-8 DPState into a fresh state
	// each time, as a serve cold miss does: the ratio to DPColdWide is the
	// checkpoint tax every warm start is paid for with.
	benchCases = append(benchCases, benchCase{
		name: "DPCheckpointWide", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := wideInstance(1000)
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{CheckpointStride: 8}
			return func() error {
				var st core.DPState
				_, _, err := d.SolveCheckpoint(in, &st)
				return err
			}, nil, nil
		},
	})
	// Warm near-miss re-solves from a checkpointed parent state. Append
	// diverges at the parent's final row; the tail modify replays from the
	// nearest stride checkpoint.
	warmState := func() (core.Instance, *core.DPState, error) {
		in, err := wideInstance(1000)
		if err != nil {
			return core.Instance{}, nil, err
		}
		var st core.DPState
		if _, _, err := (core.DP{CheckpointStride: 8}).SolveCheckpoint(in, &st); err != nil {
			return core.Instance{}, nil, err
		}
		return in, &st, nil
	}
	benchCases = append(benchCases, benchCase{
		name: "DPWarmAppend", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			in, st, err := warmState()
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{CheckpointStride: 8}
			mut := in
			base := in.Tasks.Tasks
			mut.Tasks.Tasks = append(base[:len(base):len(base)],
				task.Task{ID: 1000001, Cycles: 7, Penalty: 3})
			return func() error {
				_, _, ok, err := d.SolveFrom(st, mut, false)
				if err == nil && !ok {
					return fmt.Errorf("warm append declined")
				}
				return err
			}, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "DPWarmModify", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			in, st, err := warmState()
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{CheckpointStride: 8}
			mut := in
			ts := append([]task.Task(nil), in.Tasks.Tasks...)
			ts[len(ts)-4].Penalty += 0.5
			mut.Tasks.Tasks = ts
			return func() error {
				_, _, ok, err := d.SolveFrom(st, mut, false)
				if err == nil && !ok {
					return fmt.Errorf("warm modify declined")
				}
				return err
			}, nil, nil
		},
	})
	// Online replanning at n=1000: each operation is one steady-state event
	// pair — a near-tail cancellation plus a fresh arrival — so the frame
	// size holds at 1000 tasks. The incremental replanner evolves one
	// checkpointed DP state; the cold companion rebuilds the full table per
	// event, which is exactly what a replan-from-scratch policy pays.
	replanCase := func(cold bool) func() (func() error, func() cache.Stats, error) {
		return func() (func() error, func() cache.Stats, error) {
			r := online.NewReplanner(speed.Proc{Model: power.Cubic(), SMax: 1}, wideDeadline)
			r.DP = core.DP{CheckpointStride: 16}
			r.Cold = cold
			r.FastPow = true
			rng := rand.New(rand.NewSource(42))
			nextID := 0
			var ids []int
			arrive := func() error {
				nextID++
				if _, err := r.Arrive(task.Task{
					ID: nextID, Cycles: 1 + rng.Int63n(20), Penalty: rng.Float64() * 5,
				}); err != nil {
					return err
				}
				ids = append(ids, nextID)
				return nil
			}
			for len(ids) < 1000 {
				if err := arrive(); err != nil {
					return nil, nil, err
				}
			}
			return func() error {
				i := len(ids) - 4
				id := ids[i]
				ids = append(ids[:i], ids[i+1:]...)
				if _, err := r.Withdraw(id); err != nil {
					return err
				}
				return arrive()
			}, nil, nil
		}
	}
	benchCases = append(benchCases, benchCase{
		name: "OnlineReplanIncremental", n: 1000, setup: replanCase(false),
	})
	benchCases = append(benchCases, benchCase{
		name: "OnlineReplanCold", n: 1000, setup: replanCase(true),
	})
	// The serve delta path at n=1000: every iteration is a unique near-miss
	// mutant — a fingerprint miss by construction — served by a warm start
	// from the resident parent state. The same-size cold case resets the
	// engine (plan cache and similarity index) every iteration.
	serveDeltaReq := func() (serve.Request, error) {
		in, err := wideInstance(1000)
		if err != nil {
			return serve.Request{}, err
		}
		return serve.Request{Tasks: in.Tasks, Proc: in.Proc, Solver: "DP", FastPow: true}, nil
	}
	benchCases = append(benchCases, benchCase{
		name: "ServeColdSolve", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			req, err := serveDeltaReq()
			if err != nil {
				return nil, nil, err
			}
			ctx := context.Background()
			cold := serve.New(serve.Config{Shards: 1, EntriesPerShard: 64, DeltaStride: 8})
			return func() error {
					cold.Reset()
					return serveErr(cold.Solve(ctx, req))
				},
				func() cache.Stats { return cold.Stats().Cache }, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "ServeDeltaSolve", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			req, err := serveDeltaReq()
			if err != nil {
				return nil, nil, err
			}
			ctx := context.Background()
			eng := serve.New(serve.Config{Shards: 1, EntriesPerShard: 64, DeltaStride: 8})
			if err := serveErr(eng.Solve(ctx, req)); err != nil {
				return nil, nil, fmt.Errorf("prewarm: %v", err)
			}
			base := req.Tasks.Tasks
			iter := 0
			fn := func() error {
				iter++
				ts := append([]task.Task(nil), base...)
				ts[len(ts)-2].Penalty += 1e-9 * float64(iter)
				mut := req
				mut.Tasks.Tasks = ts
				r := eng.Solve(ctx, mut)
				if r.Err == nil && r.CacheHit {
					return fmt.Errorf("mutant hit the exact cache")
				}
				return r.Err
			}
			// One probe confirms the mutants actually ride the delta path
			// before anything is measured.
			if err := fn(); err != nil {
				return nil, nil, err
			}
			if eng.Stats().DeltaSolves == 0 {
				return nil, nil, fmt.Errorf("probe mutant was not delta-solved")
			}
			return fn, func() cache.Stats { return eng.Stats().Cache }, nil
		},
	})
	// The sparse-regime pair: one pairwise-coprime instance on a 2^22-wide
	// grid, solved by the dense kernel (admitted, but ~66M grid cells) and
	// by the sparse dominance-pruned rows (~2k breakpoints). The README's
	// ≥10× sparse-regime claim is the ratio of these two. The beyond-wall
	// case is the same family at n=40 on a 2^26 grid — 2.7G cells, past
	// the dense state budget entirely — which only the sparse rows solve.
	sparseInstance := func(n int, deadline float64) (core.Instance, error) {
		set, err := gen.Sparse(rand.New(rand.NewSource(42)), gen.SparseConfig{
			N: n, Deadline: deadline,
		})
		if err != nil {
			return core.Instance{}, err
		}
		return core.Instance{
			Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1},
		}, nil
	}
	benchCases = append(benchCases, benchCase{
		name: "DPSparseRegimeDense", n: 28,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := sparseInstance(28, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{Sparse: core.SparseOff}
			return func() error { _, err := d.Solve(in); return err }, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "DPSparseRegimeSparse", n: 28,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := sparseInstance(28, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{Sparse: core.SparseOn}
			return func() error { _, err := d.Solve(in); return err }, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "DPSparseBeyondWall", n: 40,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := sparseInstance(40, 1<<26)
			if err != nil {
				return nil, nil, err
			}
			if _, err := (core.DP{Sparse: core.SparseOff}).Solve(in); err == nil {
				return nil, nil, fmt.Errorf("dense kernel unexpectedly admitted the beyond-wall grid")
			}
			d := core.DP{} // auto mode routes past the dense wall to sparse rows
			return func() error { _, err := d.Solve(in); return err }, nil, nil
		},
	})
	// The tail modify of DPWarmModify on the sparse-regime instance: the
	// warm start re-runs the sparse rows from the nearest stride-8
	// breakpoint snapshot of a sparse-recorded parent state.
	benchCases = append(benchCases, benchCase{
		name: "DPSparseWarmModify", n: 28,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := sparseInstance(28, 1<<22)
			if err != nil {
				return nil, nil, err
			}
			d := core.DP{CheckpointStride: 8, Sparse: core.SparseOn}
			var st core.DPState
			if _, _, err := d.SolveCheckpoint(in, &st); err != nil {
				return nil, nil, err
			}
			mut := in
			ts := append([]task.Task(nil), in.Tasks.Tasks...)
			ts[len(ts)-4].Penalty += 0.5
			mut.Tasks.Tasks = ts
			return func() error {
				_, _, ok, err := d.SolveFrom(&st, mut, false)
				if err == nil && !ok {
					return fmt.Errorf("sparse warm modify declined")
				}
				return err
			}, nil, nil
		},
	})
	// The anytime tier (internal/anytime): the raw SoA fitness kernel (64
	// genomes × 1024 tasks, the zero-alloc claim), the 10 ms wall-budget
	// solve on the DP n=1000 instance (the ≥99%-of-exact claim is the
	// quality line printed after the table), and the beyond-wall n=40
	// instance only the anytime tier and the sparse rows can answer.
	var anytimeBest, anytimeExact, anytimeWallGap float64
	benchCases = append(benchCases, benchCase{
		name: "AnytimeFitness1024", n: 1024,
		setup: func() (func() error, func() cache.Stats, error) {
			const n, pop = 1024, 64
			stride := (n + 63) / 64
			rng := rand.New(rand.NewSource(42))
			cycles := make([]int64, n)
			penalties := make([]float64, n)
			for i := range cycles {
				cycles[i] = 1 + rng.Int63n(100)
				penalties[i] = rng.Float64() * 5
			}
			genomes := make([]uint64, pop*stride)
			for i := range genomes {
				genomes[i] = rng.Uint64()
			}
			w := make([]int64, pop)
			accPen := make([]float64, pop)
			return func() error {
				anytime.EvaluateFitness(cycles, penalties, genomes, stride, w, accPen)
				return nil
			}, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "AnytimeFront10ms", n: 1000,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := instance(1000, 1.5)
			if err != nil {
				return nil, nil, err
			}
			exact, err := (core.DP{}).Solve(in)
			if err != nil {
				return nil, nil, err
			}
			anytimeExact = exact.Cost
			s := anytime.Solver{Seed: 1, Budget: 10 * time.Millisecond}
			ctx := context.Background()
			return func() error {
				res, err := s.SolveUntil(ctx, in)
				if err == nil {
					anytimeBest = res.Best.Cost
				}
				return err
			}, nil, nil
		},
	})
	benchCases = append(benchCases, benchCase{
		name: "AnytimeBeyondWall", n: 40,
		setup: func() (func() error, func() cache.Stats, error) {
			in, err := sparseInstance(40, 1<<26)
			if err != nil {
				return nil, nil, err
			}
			if _, err := (core.DP{Sparse: core.SparseOff}).Solve(in); err == nil {
				return nil, nil, fmt.Errorf("dense kernel unexpectedly admitted the beyond-wall grid")
			}
			s := anytime.Solver{Seed: 1, Budget: 10 * time.Millisecond}
			ctx := context.Background()
			return func() error {
				res, err := s.SolveUntil(ctx, in)
				if err == nil {
					anytimeWallGap = res.Gap
				}
				return err
			}, nil, nil
		},
	})
	// The harness itself: one quick-mode pass over all fifteen experiments
	// on the full worker pool, the unit CI smokes and the suite scales by.
	benchCases = append(benchCases, benchCase{
		name: "ExperimentsQuickSuite", n: len(exper.All()),
		setup: func() (func() error, func() cache.Stats, error) {
			return func() error {
				_, err := exper.RunSuite(exper.All(), exper.Options{Quick: true, Seed: 1})
				return err
			}, nil, nil
		},
	})

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		BenchTime:   *benchtime,
	}
	for _, c := range benchCases {
		fn, stats, err := c.setup()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s/n=%d: %v\n", c.name, c.n, err)
			os.Exit(1)
		}
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s/n=%d: %v\n", c.name, c.n, runErr)
			os.Exit(1)
		}
		res := result{
			Name:        c.name,
			N:           c.n,
			M:           c.m,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if stats != nil {
			st := stats()
			res.Cache = &st
		}
		rep.Results = append(rep.Results, res)
		label := fmt.Sprintf("n=%d", res.N)
		if res.M > 0 {
			label = fmt.Sprintf("n=%d M=%d", res.N, res.M)
		}
		fmt.Printf("%-30s %-12s %14.0f ns/op %8d B/op %6d allocs/op\n",
			res.Name, label, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		// Two collections between cases: the first moves sync.Pool scratch
		// grown by this case to the victim cache, the second frees it, so
		// the next case starts from a clean heap.
		fn, stats = nil, nil
		runtime.GC()
		runtime.GC()
	}

	// Headline incremental-solving ratios (the README perf table quotes
	// these): warm near-miss re-solves against their cold counterparts.
	ns := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		ns[fmt.Sprintf("%s/n=%d", r.Name, r.N)] = r.NsPerOp
	}
	printRatio := func(label, cold, warm string) {
		if c, w := ns[cold], ns[warm]; c > 0 && w > 0 {
			fmt.Printf("%-26s %6.1fx  (%s vs %s)\n", label, c/w, warm, cold)
		}
	}
	printRatio("warm append speedup", "DPColdWide/n=1000", "DPWarmAppend/n=1000")
	printRatio("warm modify speedup", "DPColdWide/n=1000", "DPWarmModify/n=1000")
	printRatio("online replan speedup", "OnlineReplanCold/n=1000", "OnlineReplanIncremental/n=1000")
	printRatio("serve delta speedup", "ServeColdSolve/n=1000", "ServeDeltaSolve/n=1000")
	printRatio("sparse rows speedup", "DPSparseRegimeDense/n=28", "DPSparseRegimeSparse/n=28")
	if c, k := ns["DPColdWide/n=1000"], ns["DPCheckpointWide/n=1000"]; c > 0 && k > 0 {
		fmt.Printf("%-26s %6.2fx  (DPCheckpointWide/n=1000 vs DPColdWide/n=1000)\n", "checkpoint tax", k/c)
	}
	// Anytime quality headlines: solution quality per unit wall time, not
	// speed — the README's ≥99%-of-exact claim at n=1000 in 10 ms and the
	// certified gap on the grid the exact dense solver cannot touch.
	if anytimeBest > 0 && anytimeExact > 0 {
		fmt.Printf("anytime quality @10ms      %6.2f%%  (exact DP cost %.6g vs anytime best %.6g, n=1000)\n",
			100*anytimeExact/anytimeBest, anytimeExact, anytimeBest)
	}
	if anytimeWallGap >= 0 && anytimeBest > 0 {
		fmt.Printf("anytime beyond-wall gap    %7.4f%%  (certified (best−LB)/best @10ms, n=40, D=2^26 grid)\n",
			100*anytimeWallGap)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *compare != "" {
		regressed, err := compareReports(*compare, rep, *maxRegress, *maxAllocsRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d case(s) regressed (ns/op over %g%% or allocs/op over %g%%): %v\n",
				len(regressed), *maxRegress, *maxAllocsRegress, regressed)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		fmt.Printf("no regressions over %g%%\n", *maxRegress)
	}
}
