// Command perfbench is the serving benchmark. It brings up the serving
// stack in process over loopback (internal/cluster nodes answering
// HTTP/JSON or the binary wire protocol), drives it with a closed loop of
// at most two client workers replaying a seeded request sequence, checks
// every response bit for bit against a direct core DP solve, and prints
// the end-to-end metrics as one JSON line. With --trace 1 it instead
// prints the per-layer metrics: the same sequence replayed through each
// layer's public functions with spans around every call.
//
//	bash perfbench/run.sh --workload hit-wire --seed 1 --seconds 18 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"dvsreject/internal/core"
	"dvsreject/internal/serve"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string // with trace, write the spans here as JSON lines
}

// setupReps is how many times a run sets the deployment up; setup_s is
// the median, and the last deployment is the one measured.
const setupReps = 31

// latCapPerSec sizes the latency sample buffers up front (samples per
// measured second, all workers), so their growth does not show in
// live_heap_mb or stall a measured window. It is twice the fastest rate
// seen, hit-wire's 122k req/s on a quiet host.
const latCapPerSec = 250_000

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	sp        spec
	correct   bool
	attempted int
	failed    int
	ph        *phase
	metrics   []metric
	summary   string
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "hit-wire", "workload: hit-http, hit-wire, cold-wire or revise-wire")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request sequence")
	flag.Float64Var(&secs, "seconds", 18, "measured time of the closed loop")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.spansDir, "spans-dir", "", "with --trace 1, write the recorded spans to <dir>/<workload>-seed<seed>.jsonl")
	flag.Parse()
	if secs <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.summary)
	for _, m := range res.metrics {
		fmt.Printf("  %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Println(line)
	if !res.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed: %s\n", res.failed, res.attempted, res.ph.firstFail)
		os.Exit(1)
	}
}

func resultJSON(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// run executes one benchmark run: generate the static instances and their
// reference answers, set the deployment up setupReps times, measure the
// closed loop, and (traced) replay the sequence layer by layer.
func run(o options) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	src, static, err := newSource(sp, o.seed)
	if err != nil {
		return nil, err
	}
	staticReqs := make([]serve.Request, len(static))
	for i := range static {
		staticReqs[i] = static[i].req
	}
	staticSols, err := references(staticReqs)
	if err != nil {
		return nil, err
	}
	var probe *item
	var probeSol core.Solution
	if rs, ok := src.(*reviseSource); ok {
		it, err := rs.probe()
		if err != nil {
			return nil, err
		}
		if probeSol, err = reference(it.req); err != nil {
			return nil, err
		}
		probe = &it
	}

	ws := make([]*worker, sp.workers)
	for w := range ws {
		ws[w] = &worker{id: w, lats: make([]time.Duration, 0, int(o.seconds.Seconds()*latCapPerSec)/sp.workers+1024)}
	}
	// The window list is sized up front for the same reason.
	ph := &phase{wins: make([]win, 0, int(o.seconds.Seconds()*latCapPerSec)/sp.chunk+2)}
	heap0 := liveHeap()

	setups := make([]float64, 0, setupReps)
	var e *env
	for r := 0; r < setupReps; r++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = startEnv(sp); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := e.prewarm(static, staticSols, probe, probeSol); err != nil {
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	if err := e.measure(ph, ws, src, staticSols, o.seconds, o.trace); err != nil {
		e.close()
		return nil, err
	}
	for _, wk := range ws {
		wk.arena = nil
	}
	heap := liveHeap() - heap0
	e.close()
	cf := calmStats(ph, ws)
	for _, wk := range ws {
		ph.rts = append(ph.rts, wk.rts...)
	}

	res := &result{sp: sp, ph: ph, attempted: ph.attempted, failed: ph.failed()}
	res.correct = ph.attempted > 0 && res.failed == 0
	res.summary = fmt.Sprintf("%s seed %d: %d requests in %.2fs, %d failed (%d errors, %d shed, %d mismatches); "+
		"timings from the %d calmest of %d windows, %d samples, p99 the median of %d blocks of >= %d samples (>= %d beyond p99); host CPU steal %.2f%% of measured time, %.2f%% in the kept windows; "+
		"cache.hit_ratio %.4f delta.warm_ratio %.4f delta.reused_row_share %.4f http.body_kb %.3f wire.frame_kb %.3f",
		sp.name, o.seed, ph.attempted, ph.measured.Seconds(), res.failed, ph.errors, ph.shed, ph.mismatches,
		cf.kept, cf.windows, cf.samples, cf.blocks, cf.minBlock, cf.minBlock-1-rankIndex(cf.minBlock, 0.99), 100*ph.stealShare(), 100*cf.keptSteal,
		hitRatio(ph.c), warmRatio(ph.c), reusedShare(sp, ph), httpBodyKB(sp, ph), frameKB(sp, ph))
	if !o.trace {
		res.metrics = endToEnd(median(setups), cf, heap)
		return res, nil
	}
	tr, err := replay(sp, o.seed, static, probe)
	if err != nil {
		return nil, err
	}
	res.metrics = layerMetrics(sp, ph, tr)
	if o.spansDir != "" {
		if err := writeSpans(o, ph, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// The closed loop runs in short windows of sp.chunk requests (tens of
// milliseconds), and each window records the host CPU steal it saw. The
// box is a shared VM: when the hypervisor runs other guests on its CPUs
// (steal), every request in flight stalls, and steal comes in bursts of
// tens of milliseconds. On cold-wire the p99 of the windows that saw steal
// was up to 2.4 times that of the windows that did not, so a run's p99
// followed how busy the host was. The end-to-end timings are therefore
// taken over the windows that saw no steal, or, when those are fewer than
// half, over the calmer half: they measure the program, not its
// neighbours. Keeping every calm window, not just a few, averages out the
// slower drift of the host's speed (p50 of one-second stretches of one
// cold-wire run ranged over 730-1070 us).
//
// Bursts the steal counter misses still reach the tail, so p99 is the
// median of the p99s of up to p99Blocks consecutive blocks of the kept
// samples, each of at least p99BlockMin samples (10 or more beyond its
// p99). A burst then moves one block, not the run.
const (
	p99Blocks   = 10
	p99BlockMin = 1000
)

type calmFigures struct {
	rps, cpu, p50, p99 float64 // over the kept windows
	kept, windows      int
	samples            int     // latency samples in the kept windows
	blocks, minBlock   int     // p99 blocks and the smallest one's samples
	keptSteal          float64 // steal share of the kept windows
}

// calmStats keeps the measured windows without host steal, at least the
// ceil(n/2) of the n windows with the least, and computes their
// throughput, CPU per successful response and latency percentiles.
func calmStats(ph *phase, ws []*worker) calmFigures {
	var idx []int // windows with answers, calmest first
	for i, w := range ph.wins {
		if w.ok > 0 {
			idx = append(idx, i)
		}
	}
	share := func(i int) float64 { return ratio(ph.wins[i].steal.steal, ph.wins[i].steal.total) }
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(share(a), share(b)) })
	f := calmFigures{windows: len(idx)}
	if len(idx) == 0 {
		return f
	}
	calm := 0
	for calm < len(idx) && ph.wins[idx[calm]].steal.steal == 0 {
		calm++
	}
	idx = idx[:max(calm, (len(idx)+1)/2)]
	slices.Sort(idx) // back in time order, for the p99 blocks
	f.kept = len(idx)
	var d, cpu time.Duration
	var ok int
	var kept steal
	var lats []time.Duration
	for _, i := range idx {
		w := ph.wins[i]
		d += w.d
		cpu += w.cpu
		ok += w.ok
		kept.steal += w.steal.steal
		kept.total += w.steal.total
		for j, wk := range ws {
			lats = append(lats, wk.lats[w.first[j]:w.last[j]]...)
		}
	}
	f.samples = len(lats)
	f.rps = float64(ok) / d.Seconds()
	f.cpu = us(cpu) / float64(max(ok, 1))
	f.keptSteal = ratio(kept.steal, kept.total)

	f.blocks = min(p99Blocks, max(1, len(lats)/p99BlockMin))
	f.minBlock = len(lats)
	p99s := make([]float64, f.blocks)
	for b := range p99s {
		blk := slices.Clone(lats[b*len(lats)/f.blocks : (b+1)*len(lats)/f.blocks])
		slices.Sort(blk)
		p99s[b] = us(blk[rankIndex(len(blk), 0.99)])
		f.minBlock = min(f.minBlock, len(blk))
	}
	f.p99 = median(p99s)
	slices.Sort(lats)
	f.p50 = us(lats[rankIndex(len(lats), 0.50)])
	return f
}

// endToEnd lists the end-to-end metrics of a run.
func endToEnd(setup float64, cf calmFigures, heap float64) []metric {
	return []metric{
		{"setup_s", "s", setup},
		{"throughput_rps", "req/s", cf.rps},
		{"latency_p50_us", "us", cf.p50},
		{"latency_p99_us", "us", cf.p99},
		{"cpu_us_per_req", "us", cf.cpu},
		{"live_heap_mb", "MiB", heap / (1 << 20)},
	}
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(c counters) float64 {
	return ratio(float64(c.hits), float64(c.hits+c.misses))
}

func warmRatio(c counters) float64 { return ratio(float64(c.deltaSolves), float64(c.misses)) }

// reusedShare is the generator-known share of DP rows a request shares
// with its family base: first divergent row over the base's task count.
func reusedShare(sp spec, ph *phase) float64 {
	if sp.name != "revise-wire" {
		return 0
	}
	return ratio(float64(ph.divRows), float64(ph.attempted)*bigN)
}

func httpBodyKB(sp spec, ph *phase) float64 {
	if sp.proto != "http" {
		return 0
	}
	return ratio(float64(ph.bodyBytes), float64(ph.attempted)) / 1024
}

// frameKB is the mean request frame: payload plus the 6-byte header.
func frameKB(sp spec, ph *phase) float64 {
	if sp.proto != "wire" {
		return 0
	}
	return (ratio(float64(ph.bodyBytes), float64(ph.attempted)) + 6) / 1024
}
