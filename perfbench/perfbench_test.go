package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"dvsreject/internal/core"
)

// firstBodies returns the request bodies of the first n requests of a
// workload's sequence.
func firstBodies(t *testing.T, sp spec, seed int64, n int) [][]byte {
	t.Helper()
	src, _, err := newSource(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		it, err := src.next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = it.body
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	counts := map[string]int{"hit-http": 300, "hit-wire": 300, "cold-wire": 6, "revise-wire": 60}
	for _, sp := range specs {
		a := firstBodies(t, sp, 7, counts[sp.name])
		b := firstBodies(t, sp, 7, counts[sp.name])
		c := firstBodies(t, sp, 8, counts[sp.name])
		differs := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two runs of seed 7", sp.name, i)
			}
			differs = differs || !bytes.Equal(a[i], c[i])
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", sp.name)
		}
	}
}

func TestReviseSequenceNeverRepeats(t *testing.T) {
	sp, _ := specByName("revise-wire")
	src, bases, err := newSource(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := src.(*reviseSource).probe()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(probe.body): true}
	for _, b := range bases {
		seen[string(b.body)] = true
	}
	for i := 0; i < 3000; i++ {
		it, err := src.next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(it.body)] {
			t.Fatalf("request %d repeats an earlier request, a base or the probe", i)
		}
		seen[string(it.body)] = true
	}
}

func shortRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("%s: %d of %d requests failed: %s", workload, res.failed, res.attempted, res.ph.firstFail)
	}
	return res
}

func TestHitWorkloadsHitTheCache(t *testing.T) {
	for _, w := range []string{"hit-http", "hit-wire"} {
		res := shortRun(t, w, false)
		if r := hitRatio(res.ph.c); r < 0.99 {
			t.Errorf("%s: cache hit ratio %.4f after setup, want ≥ 0.99", w, r)
		}
	}
}

func TestColdWireNeverHitsAndReplicates(t *testing.T) {
	c := shortRun(t, "cold-wire", false).ph.c
	if c.hits != 0 || c.deltaSolves != 0 {
		t.Errorf("cold-wire: %d cache hits and %d delta solves, want none", c.hits, c.deltaSolves)
	}
	if c.replApplied == 0 {
		t.Error("cold-wire: no cold solve was replicated to the peer")
	}
}

func TestReviseProbeIsDeltaSolved(t *testing.T) {
	sp, _ := specByName("revise-wire")
	src, bases, err := newSource(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := src.(*reviseSource).probe()
	if err != nil {
		t.Fatal(err)
	}
	sols := make([]core.Solution, len(bases))
	for i, b := range bases {
		if sols[i], err = reference(b.req); err != nil {
			t.Fatal(err)
		}
	}
	probeSol, err := reference(probe.req)
	if err != nil {
		t.Fatal(err)
	}
	e, err := startEnv(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.prewarm(bases, sols, &probe, probeSol); err != nil {
		t.Fatal(err)
	}
	if c := e.counters(); c.deltaSolves != 1 {
		t.Errorf("after setup: %d delta solves, want exactly the probe", c.deltaSolves)
	}
	if r := warmRatio(shortRun(t, "revise-wire", false).ph.c); r <= 0 {
		t.Error("revise-wire: no measured request was delta-solved")
	}
}

// TestTracedRunMatchesPredictions checks the layer shares the workloads
// were chosen for.
func TestTracedRunMatchesPredictions(t *testing.T) {
	for _, sp := range specs {
		m := map[string]float64{}
		for _, x := range shortRun(t, sp.name, true).metrics {
			m[x.name] = x.value
		}
		check := func(ok bool, what string) {
			if !ok {
				t.Errorf("%s: want %s; metrics %v", sp.name, what, m)
			}
		}
		switch sp.name {
		case "hit-http":
			check(m["cache.hit_ratio"] >= 0.99, "cache.hit_ratio ≥ 0.99")
			check(m["http.decode_us"] > 0 && m["http.body_kb"] > 0, "http.decode_us and http.body_kb > 0")
		case "hit-wire":
			check(m["cache.hit_ratio"] >= 0.99, "cache.hit_ratio ≥ 0.99")
		case "cold-wire":
			check(m["cache.hit_ratio"] == 0 && m["delta.warm_ratio"] == 0, "no hits and no delta solves")
			check(m["cluster.warm_us"] > 0 && m["cluster.repl_applied_frac"] > 0, "replication measured")
			check(m["delta.tax_us"] != 0 && m["core.dp_us"] > 0, "the checkpoint tax against a direct DP")
		case "revise-wire":
			check(m["delta.warm_ratio"] > 0 && m["delta.warm_us"] > 0, "delta-warmed misses")
			check(m["delta.reused_row_share"] > 0, "a reused row share")
		}
		if sp.proto == "wire" {
			check(m["http.decode_us"] == 0, "no HTTP decode on a wire workload")
		}
		if sp.name != "cold-wire" {
			check(m["cluster.warm_us"] == 0, "cluster.warm_us only on cold-wire")
		}
		check(m["fail_frac"] == 0, "no failures")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics this
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []named
	for _, sp := range specs {
		workloads = append(workloads, named{Name: sp.name})
	}
	asNamed := func(ms []metric) []named {
		var out []named
		for _, m := range ms {
			out = append(out, named{m.name, m.unit})
		}
		return out
	}
	e2e := asNamed(endToEnd(1, calmFigures{rps: 1, cpu: 1, p50: 1, p99: 1}, 1))
	layers := asNamed(layerMetrics(specs[0], &phase{}, newTracer()))
	for _, c := range []struct {
		what      string
		got, want []named
	}{{"workloads", b.Workloads, workloads}, {"end_to_end", b.EndToEnd, e2e}, {"per_layer", b.PerLayer, layers}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json %s: %v, program prints %v", c.what, c.got, c.want)
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("BENCHMARK.json %s[%d] = %v, program prints %v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestCalmStatsDropsStolenWindows pins the window selection: windows that
// saw host steal are left out of the timings while enough others are
// steal-free, and the calmer half is kept when they are not.
func TestCalmStatsDropsStolenWindows(t *testing.T) {
	// Window i holds 200 samples of (i+1) ms, so each kept window shows in
	// the pooled percentiles.
	mk := func(steals ...float64) (*phase, []*worker) {
		wk := &worker{}
		ph := &phase{}
		for i, st := range steals {
			first := len(wk.lats)
			for range 200 {
				wk.lats = append(wk.lats, time.Duration(i+1)*time.Millisecond)
			}
			ph.wins = append(ph.wins, win{d: time.Second, cpu: time.Second, ok: 200,
				steal: steal{steal: st, total: 100}, first: [maxWorkers]int{first}, last: [maxWorkers]int{len(wk.lats)}})
		}
		return ph, []*worker{wk}
	}

	ph, ws := mk(0, 0, 5, 0)
	f := calmStats(ph, ws)
	if f.kept != 3 || f.windows != 4 || f.samples != 600 || f.keptSteal != 0 {
		t.Fatalf("one stolen window of 4: kept %d of %d, %d samples, steal %v", f.kept, f.windows, f.samples, f.keptSteal)
	}
	if f.p99 != 4000 || f.p50 != 2000 || f.rps != 200 {
		t.Errorf("one stolen window of 4: p50 %v p99 %v rps %v, want 2000 4000 200", f.p50, f.p99, f.rps)
	}

	ph, ws = mk(3, 1, 2, 0, 4)
	f = calmStats(ph, ws)
	if f.kept != 3 || f.p99 != 4000 || f.p50 != 3000 {
		t.Errorf("four stolen windows of 5: kept %d, p50 %v p99 %v, want 3 windows (steal 0, 1, 2) with p50 3000 p99 4000",
			f.kept, f.p50, f.p99)
	}
}

// TestCalmStatsP99IsBlockMedian pins that a burst confined to one block
// of the kept samples does not set the run's p99.
func TestCalmStatsP99IsBlockMedian(t *testing.T) {
	wk := &worker{}
	ph := &phase{}
	for i := range 10 {
		first := len(wk.lats)
		l := time.Millisecond
		if i == 3 {
			l = 50 * time.Millisecond
		}
		for range p99BlockMin {
			wk.lats = append(wk.lats, l)
		}
		ph.wins = append(ph.wins, win{d: time.Second, cpu: time.Second, ok: p99BlockMin,
			steal: steal{total: 100}, first: [maxWorkers]int{first}, last: [maxWorkers]int{len(wk.lats)}})
	}
	f := calmStats(ph, []*worker{wk})
	if f.blocks != p99Blocks || f.minBlock != p99BlockMin || f.p99 != 1000 {
		t.Errorf("one slow block of 10: %d blocks, smallest %d, p99 %v us, want %d, %d, 1000",
			f.blocks, f.minBlock, f.p99, p99Blocks, p99BlockMin)
	}
}
