package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dvsreject/internal/cluster"
	"dvsreject/internal/core"
	"dvsreject/internal/serve"
	"dvsreject/internal/wire"
)

// env is one running deployment over loopback: the cluster nodes with
// their listeners, plus the client side — one wire connection per worker
// per node, or an HTTP transport capped at one connection per worker.
type env struct {
	sp    spec
	nodes []*cluster.Node
	lns   []net.Listener
	srvs  []*http.Server
	ring  *cluster.Ring
	url   string
	conns [][]net.Conn // [worker][node]
	tr    *http.Transport
	httpc *http.Client
	wg    sync.WaitGroup // listener goroutines
}

func startEnv(sp spec) (*env, error) {
	e := &env{sp: sp}
	addrs := make([]string, sp.nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.lns = append(e.lns, ln)
		addrs[i] = ln.Addr().String()
	}
	e.ring = cluster.NewRing(addrs, 0)
	for i, ln := range e.lns {
		nd := cluster.NewNode(cluster.NodeConfig{Self: addrs[i], Peers: addrs})
		e.nodes = append(e.nodes, nd)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			nd.ServeWire(ln)
		}()
	}
	if sp.proto == "http" {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.lns = append(e.lns, hl)
		srv := &http.Server{Handler: e.nodes[0].Handler()}
		e.srvs = append(e.srvs, srv)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			_ = srv.Serve(hl) // returns http.ErrServerClosed once close runs
		}()
		e.url = "http://" + hl.Addr().String() + "/solve"
		e.tr = &http.Transport{MaxIdleConnsPerHost: sp.workers, MaxConnsPerHost: sp.workers}
		e.httpc = &http.Client{Transport: e.tr}
		return e, nil
	}
	for w := 0; w < sp.workers; w++ {
		row := make([]net.Conn, sp.nodes)
		e.conns = append(e.conns, row)
		for i, a := range addrs {
			c, err := net.Dial("tcp", a)
			if err != nil {
				e.close()
				return nil, err
			}
			row[i] = c
		}
	}
	return e, nil
}

// close tears the deployment down and waits for its listener goroutines.
func (e *env) close() {
	for _, row := range e.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
	for _, s := range e.srvs {
		s.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	// Node.Close closes only the listeners ServeWire has registered;
	// closing again covers a goroutine that had not started yet.
	for _, ln := range e.lns {
		ln.Close()
	}
	e.wg.Wait()
}

type status uint8

const (
	stNone status = iota // not attempted
	stOK
	stShed
	stErr
)

// outcome is one request's result as the client saw it. HTTP bodies live
// in the worker's arena (off, n); wire payloads are kept as read.
type outcome struct {
	st   status
	w    int32
	off  int32
	n    int32
	body []byte
	err  error
}

// rtSpan is the client's round-trip span of one request of a traced
// window; req is its position in the workload's sequence.
type rtSpan struct {
	req        int
	start, end time.Time
}

// worker is one closed-loop client: it sends its next request only after
// the previous answer arrived.
type worker struct {
	id    int
	lats  []time.Duration
	rts   []rtSpan
	arena []byte
	dead  bool // its wire connection broke; the run has failed
}

// call sends one request from worker wk to node and waits for the answer.
func (e *env) call(wk *worker, node int, it *item, o *outcome) {
	o.w = int32(wk.id)
	if e.sp.proto == "wire" {
		conn := e.conns[wk.id][node]
		if err := wire.WriteFrame(conn, wire.FrameSolve, it.body); err != nil {
			o.st, o.err, wk.dead = stErr, err, true
			return
		}
		t, p, err := wire.ReadFrame(conn)
		if err != nil {
			o.st, o.err, wk.dead = stErr, err, true
			return
		}
		o.body = p
		switch t {
		case wire.FrameSolution:
			o.st = stOK
		case wire.FrameError:
			o.st = stErr
			if werr, err := wire.DecodeError(p); err == nil {
				o.err = fmt.Errorf("remote %d: %s", werr.Code, werr.Msg)
				if werr.Code == http.StatusTooManyRequests {
					o.st = stShed
				}
			}
		default:
			o.st, o.err = stErr, fmt.Errorf("unexpected frame type %d", t)
		}
		return
	}
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(it.body))
	if err != nil {
		o.st, o.err = stErr, err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.httpc.Do(req)
	if err != nil {
		o.st, o.err = stErr, err
		return
	}
	off := len(wk.arena)
	wk.arena, err = appendBody(wk.arena, resp.Body)
	resp.Body.Close()
	o.off, o.n = int32(off), int32(len(wk.arena)-off)
	switch {
	case err != nil:
		o.st, o.err = stErr, err
	case resp.StatusCode == http.StatusOK:
		o.st = stOK
	case resp.StatusCode == http.StatusTooManyRequests:
		o.st = stShed
	default:
		o.st, o.err = stErr, fmt.Errorf("status %d: %s", resp.StatusCode, wk.arena[off:])
	}
}

// appendBody reads r to EOF into dst's spare capacity.
func appendBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// body is the response body of o, which worker wk received.
func (e *env) body(wk *worker, o *outcome) []byte {
	if e.sp.proto == "wire" {
		return o.body
	}
	return wk.arena[o.off : o.off+o.n]
}

// window runs the closed loop over items until they are all answered or
// the deadline passes. Requests not started by the deadline stay stNone.
func (e *env) window(ws []*worker, items []item, owners []int, out []outcome, deadline time.Time, traced bool, base int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, wk := range ws {
		wk.arena = wk.arena[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !wk.dead {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				e.call(wk, owners[i], &items[i], &out[i])
				t1 := time.Now()
				wk.lats = append(wk.lats, t1.Sub(t0))
				if traced {
					wk.rts = append(wk.rts, rtSpan{req: base + i, start: t0, end: t1})
				}
			}
		}()
	}
	wg.Wait()
}

// prewarm is the part of setup after the nodes are up: it solves the
// static instances once through the serving path (the hit pool, or the
// revise families' bases), spread over the workers so every client
// connection is in use, and for revise-wire sends the probe revision and
// fails unless the delta path answered it.
func (e *env) prewarm(static []item, sols []core.Solution, probe *item, probeSol core.Solution) error {
	ws := make([]*worker, e.sp.workers)
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = &worker{id: w}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(static) && errs[w] == nil; i += len(ws) {
				errs[w] = e.callChecked(ws[w], &static[i], sols[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if probe == nil {
		return nil
	}
	if err := e.callChecked(ws[0], probe, probeSol); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if d := e.counters().deltaSolves; d == 0 {
		return fmt.Errorf("probe revision was not delta-solved")
	}
	return nil
}

func (e *env) callChecked(wk *worker, it *item, sol core.Solution) error {
	owner := 0
	if len(e.nodes) > 1 {
		owner = e.ring.Owner(serve.Fingerprint(it.req, 0))
	}
	var o outcome
	wk.arena = wk.arena[:0]
	e.call(wk, owner, it, &o)
	if o.st != stOK {
		return fmt.Errorf("prewarm request failed: %v", o.err)
	}
	return checkBody(e.sp.proto, e.body(wk, &o), expectBody(e.sp.proto, sol, false), sol)
}

// counters sums the node counters the benchmark reports.
type counters struct {
	hits, misses, bypasses, coalesced  uint64
	deltaSolves, sparseSolves          uint64
	parents                            int
	replSent, replDropped, replApplied uint64
}

func (e *env) counters() counters {
	var c counters
	for _, n := range e.nodes {
		s := n.Stats()
		c.hits += s.Engine.Cache.Hits
		c.misses += s.Engine.Cache.Misses
		c.bypasses += s.Engine.Bypasses
		c.coalesced += s.Engine.Coalesced
		c.deltaSolves += s.Engine.DeltaSolves
		c.sparseSolves += s.Engine.SparseSolves
		c.parents += s.Engine.DeltaParents
		c.replSent += s.ReplSent
		c.replDropped += s.ReplDropped
		c.replApplied += s.ReplApplied
	}
	return c
}

// sub returns the counts since o; parents is a level, so it stays as c's.
func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		bypasses: c.bypasses - o.bypasses, coalesced: c.coalesced - o.coalesced,
		deltaSolves: c.deltaSolves - o.deltaSolves, sparseSolves: c.sparseSolves - o.sparseSolves,
		parents:  c.parents,
		replSent: c.replSent - o.replSent, replDropped: c.replDropped - o.replDropped,
		replApplied: c.replApplied - o.replApplied,
	}
}

// settleReplication waits (bounded) until every cold solve's replica push
// has been sent or dropped and every sent push applied, so the
// replication counters describe the measured requests.
func (e *env) settleReplication(c0 counters) {
	if len(e.nodes) < 2 {
		return
	}
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		c := e.counters().sub(c0)
		if c.replSent+c.replDropped >= c.misses && c.replApplied >= c.replSent {
			return
		}
	}
}

// Go runtime counters read at window boundaries.
var rmNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type rmVals [4]float64

func readRM() rmVals {
	s := make([]metrics.Sample, len(rmNames))
	for i, n := range rmNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var v rmVals
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" or pointer

	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces collection and returns the bytes of live heap objects.
// Two cycles empty the sync.Pool victim caches too, so the figure is what
// the program retains, not scratch it happens to be pooling.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// phase is the outcome of the measured phase.
type phase struct {
	measured, cpu            time.Duration
	attempted, ok            int
	errors, shed, mismatches int
	firstFail                string
	traced, untraced         time.Duration
	tracedOK, untracedOK     int
	rts                      []rtSpan
	bodyBytes, divRows       int64
	rm                       rmVals
	c                        counters
	wins                     []win
	steal                    steal
}

// stealShare is the share of all CPU time in the measured windows that
// the hypervisor gave to other guests (0 where /proc/stat is missing).
func (p *phase) stealShare() float64 { return ratio(p.steal.steal, p.steal.total) }

// steal holds the host-wide CPU tick counters of /proc/stat's "cpu" line:
// the steal column and the sum of all columns.
type steal struct{ steal, total float64 }

func (s steal) sub(o steal) steal { return steal{s.steal - o.steal, s.total - o.total} }

// readSteal reads the tick counters; the summary line reports the steal
// share so a reader can tell a run disturbed by other guests.
func readSteal() steal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return steal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s steal
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// win is one measured window: its duration, process CPU time, successful
// responses, host steal ticks, and the range of each worker's latency
// samples it produced.
type win struct {
	d, cpu      time.Duration
	ok          int
	steal       steal
	first, last [maxWorkers]int
}

func (p *phase) failed() int { return p.errors + p.shed + p.mismatches }

func (p *phase) fail(msg string) {
	if p.firstFail == "" {
		p.firstFail = msg
	}
}

// measure warms up (see warmUp), then drives the closed loop for budget
// of measured time, window by window, recording into p. Between windows
// (unmeasured) it generates the next requests, solves the references of
// fresh ones and checks every response. With traced set, odd windows
// record the client's round-trip spans so the tracing overhead can be
// read against the even ones.
func (e *env) measure(p *phase, ws []*worker, src source, staticSols []core.Solution, budget time.Duration, traced bool) error {
	sp := e.sp
	staticWant := make([][]byte, len(staticSols))
	for i, sol := range staticSols {
		staticWant[i] = expectBody(sp.proto, sol, sp.hits)
	}
	base, err := e.warmUp(ws, src, staticSols, staticWant)
	if err != nil {
		return err
	}
	c0 := e.counters()
	for k := 0; p.measured < budget; k++ {
		items, owners, err := e.nextItems(src)
		if err != nil {
			return err
		}
		out := make([]outcome, sp.chunk)
		tw := traced && k%2 == 1
		var w win
		for i, wk := range ws {
			w.first[i] = len(wk.lats)
		}

		steal0 := readSteal()
		rm0, cpu0, t0 := readRM(), cpuTime(), time.Now()
		e.window(ws, items, owners, out, t0.Add(budget-p.measured), tw, base)
		t1 := time.Now()
		cpu1, rm1 := cpuTime(), readRM()
		ds := readSteal().sub(steal0)
		p.steal.steal += ds.steal
		p.steal.total += ds.total
		w.steal = ds
		d := t1.Sub(t0)
		p.measured += d
		p.cpu += cpu1 - cpu0
		for i := range p.rm {
			p.rm[i] += rm1[i] - rm0[i]
		}

		okBefore := p.ok
		if err := e.check(p, ws, items, out, staticSols, staticWant); err != nil {
			return err
		}
		w.d, w.cpu, w.ok = d, cpu1-cpu0, p.ok-okBefore
		for i, wk := range ws {
			w.last[i] = len(wk.lats)
		}
		p.wins = append(p.wins, w)
		if tw {
			p.traced += d
			p.tracedOK += p.ok - okBefore
		} else {
			p.untraced += d
			p.untracedOK += p.ok - okBefore
		}
		base += sp.chunk
		if dead(ws) {
			break
		}
	}
	e.settleReplication(c0)
	p.c = e.counters().sub(c0)
	return nil
}

// warmupRequests is how many requests of the sequence run before the
// measured phase: the plan cache's default capacity (16 shards of 256
// entries). On cold-wire the p99 of the first seconds, while the cache
// and the heap were still filling, was about a fifth above the rest.
const warmupRequests = 16 * 256

// warmUp sends the first warmupRequests requests of the sequence through
// the same closed loop, untimed, and checks every answer like a measured
// one; any failure fails the run. It returns how many requests it sent.
func (e *env) warmUp(ws []*worker, src source, staticSols []core.Solution, staticWant [][]byte) (int, error) {
	c0 := e.counters()
	wp := &phase{}
	sent := 0
	for ; sent < warmupRequests; sent += e.sp.chunk {
		items, owners, err := e.nextItems(src)
		if err != nil {
			return 0, err
		}
		out := make([]outcome, len(items))
		e.window(ws, items, owners, out, time.Now().Add(time.Hour), false, 0)
		if err := e.check(wp, ws, items, out, staticSols, staticWant); err != nil {
			return 0, err
		}
		if wp.failed() > 0 || wp.attempted < sent+len(items) {
			return 0, fmt.Errorf("warm-up: %d of %d requests failed: %s", wp.failed(), sent+len(items), wp.firstFail)
		}
	}
	e.settleReplication(c0)
	for _, wk := range ws {
		wk.lats = wk.lats[:0]
	}
	return sent, nil
}

// nextItems draws the next window's requests and, on a cluster, the node
// that owns each.
func (e *env) nextItems(src source) ([]item, []int, error) {
	items := make([]item, e.sp.chunk)
	owners := make([]int, e.sp.chunk)
	for i := range items {
		it, err := src.next()
		if err != nil {
			return nil, nil, err
		}
		items[i] = it
		if len(e.nodes) > 1 {
			owners[i] = e.ring.Owner(serve.Fingerprint(it.req, 0))
		}
	}
	return items, owners, nil
}

func dead(ws []*worker) bool {
	for _, wk := range ws {
		if wk.dead {
			return true
		}
	}
	return false
}

// check verifies one window's responses against the direct DP solves.
func (e *env) check(p *phase, ws []*worker, items []item, out []outcome, staticSols []core.Solution, staticWant [][]byte) error {
	var fresh []serve.Request
	for i := range out {
		if out[i].st == stOK && items[i].pool < 0 {
			fresh = append(fresh, items[i].req)
		}
	}
	sols, err := references(fresh)
	if err != nil {
		return err
	}
	j := 0
	for i := range out {
		o := &out[i]
		if o.st == stNone {
			continue
		}
		p.attempted++
		p.bodyBytes += int64(len(items[i].body))
		p.divRows += int64(items[i].div)
		switch o.st {
		case stShed:
			p.shed++
			p.fail(fmt.Sprintf("request %d shed: %v", i, o.err))
			continue
		case stErr:
			p.errors++
			p.fail(fmt.Sprintf("request %d failed: %v", i, o.err))
			continue
		}
		var sol core.Solution
		var want []byte
		if it := items[i]; it.pool >= 0 {
			sol, want = staticSols[it.pool], staticWant[it.pool]
		} else {
			sol = sols[j]
			want = expectBody(e.sp.proto, sol, false)
			j++
		}
		if err := checkBody(e.sp.proto, e.body(ws[o.w], o), want, sol); err != nil {
			p.mismatches++
			p.fail(fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		p.ok++
	}
	return nil
}
