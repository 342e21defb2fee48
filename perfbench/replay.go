package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dvsreject/internal/cluster"
	"dvsreject/internal/core"
	"dvsreject/internal/serve"
	"dvsreject/internal/wire"
)

// replayCount is how many requests of the sequence the traced replay
// runs per workload: enough for stable means at about a second each.
var replayCount = map[string]int{"hit-http": 2000, "hit-wire": 2000, "cold-wire": 160, "revise-wire": 400}

// maxStateSamples bounds the extra checkpointed solves taken only to read
// DPState.MemoryBytes.
const maxStateSamples = 64

// span is one recorded interval. Spans of one request share req; stage
// spans name the request span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory plus per-name duration sums.
type tracer struct {
	t0    time.Time
	spans []span
	sum   map[string]time.Duration
	cnt   map[string]int

	stateBytes, stateN float64
	dpRows, dpCells    float64
	dpN                int
	taxSum             time.Duration
	taxN               int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]time.Duration{}, cnt: map[string]int{}}
}

func (t *tracer) open(req int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) close(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do times fn as a child span of parent and returns its duration and id.
func (t *tracer) do(req, parent int, name string, fn func()) (time.Duration, int) {
	s := time.Now()
	fn()
	e := time.Now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(s.Sub(t.t0)), End: int64(e.Sub(t.t0))})
	t.add(name, e.Sub(s))
	return e.Sub(s), len(t.spans)
}

func (t *tracer) add(name string, d time.Duration) {
	t.sum[name] += d
	t.cnt[name]++
}

// mean is the mean duration of the spans named name, in µs (0 if none ran).
func (t *tracer) mean(name string) float64 {
	if t.cnt[name] == 0 {
		return 0
	}
	return us(t.sum[name]) / float64(t.cnt[name])
}

func (t *tracer) state(req serve.Request) error {
	if t.stateN >= maxStateSamples {
		return nil
	}
	var st core.DPState
	if _, _, err := (core.DP{}).SolveCheckpoint(core.Instance{Tasks: req.Tasks, Proc: req.Proc}, &st); err != nil {
		return err
	}
	t.stateBytes += float64(st.MemoryBytes())
	t.stateN++
	return nil
}

// replay runs the workload's first requests through each layer's public
// functions in the order the serving path calls them, on fresh engines
// set up the way the measured deployment was: the engine a node wraps,
// a second one behind serve.NewHandler for the HTTP handler span, and a
// replica engine for the cold-wire Warm span.
func replay(sp spec, seed int64, static []item, probe *item) (*tracer, error) {
	ctx := context.Background()
	src, _, err := newSource(sp, seed)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	eng := serve.New(serve.Config{})
	var handler http.Handler
	var hEng *serve.Engine
	if sp.proto == "http" {
		hEng = serve.New(serve.Config{})
		handler = serve.NewHandler(hEng)
	}
	var replica *serve.Engine
	if sp.nodes > 1 {
		replica = serve.New(serve.Config{})
	}
	ids := make([]string, sp.nodes)
	for i := range ids {
		ids[i] = "node-" + strconv.Itoa(i)
	}
	ring := cluster.NewRing(ids, 0)

	warm := static
	if probe != nil {
		warm = append(warm[:len(warm):len(warm)], *probe)
	}
	for _, it := range warm {
		for _, e := range []*serve.Engine{eng, hEng} {
			if e != nil {
				if r := e.Solve(ctx, it.req); r.Err != nil {
					return nil, r.Err
				}
			}
		}
		if err := t.state(it.req); err != nil {
			return nil, err
		}
	}

	var buf, out bytes.Buffer
	for i := 0; i < replayCount[sp.name]; i++ {
		it, err := src.next()
		if err != nil {
			return nil, err
		}
		id := t.open(i, "request")
		var req serve.Request
		var stageErr error
		if sp.proto == "http" {
			hr := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(it.body))
			rec := httptest.NewRecorder()
			t.do(i, id, "http.handler", func() { handler.ServeHTTP(rec, hr) })
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("replay: handler status %d: %s", rec.Code, rec.Body.Bytes())
			}
			var wreq serve.WireRequest
			t.do(i, id, "http.decode", func() {
				dec := json.NewDecoder(bytes.NewReader(it.body))
				dec.DisallowUnknownFields()
				stageErr = dec.Decode(&wreq)
			})
			if stageErr == nil {
				t.do(i, id, "http.to_request", func() { req, stageErr = wreq.ToRequest() })
			}
		} else {
			t.do(i, id, "cluster.route", func() { ring.Owner(serve.Fingerprint(it.req, 0)) })
			t.do(i, id, "wire.encode_request", func() {
				buf.Reset()
				stageErr = wire.WriteFrame(&buf, wire.FrameSolve, wire.EncodeRequest(wireRequest(it.req)))
			})
			t.do(i, id, "wire.decode_request", func() {
				var p []byte
				if _, p, stageErr = wire.ReadFrame(&buf); stageErr == nil {
					var wreq wire.Request
					wreq, stageErr = wire.DecodeRequest(p)
					req = serveRequest(wreq)
				}
			})
		}
		if stageErr != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, stageErr)
		}
		t.do(i, id, "serve.fingerprint", func() { serve.Fingerprint(req, 0) })

		delta0 := eng.Stats().DeltaSolves
		var resp serve.Response
		solve, sid := t.do(i, id, "serve.solve", func() { resp = eng.Solve(ctx, req) })
		if resp.Err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, resp.Err)
		}
		outcome := "serve.solve.cold"
		switch {
		case resp.CacheHit:
			outcome = "serve.solve.hit"
		case eng.Stats().DeltaSolves > delta0:
			outcome = "serve.solve.delta"
		}
		t.spans[sid-1].Name = outcome
		t.add(outcome, solve)
		if !resp.CacheHit {
			// The honest baseline: the same instance solved by core.DP
			// directly, with no cache, no checkpoint recording and no index.
			var st core.DPStats
			dp, _ := t.do(i, id, "core.dp", func() {
				_, st, stageErr = (core.DP{}).SolveStats(core.Instance{Tasks: req.Tasks, Proc: req.Proc})
			})
			if stageErr != nil {
				return nil, stageErr
			}
			t.dpRows += float64(st.Rows)
			t.dpCells += float64(st.Cells)
			t.dpN++
			if outcome == "serve.solve.cold" {
				t.taxSum += solve - dp
				t.taxN++
				if err := t.state(req); err != nil {
					return nil, err
				}
				if replica != nil {
					t.do(i, id, "cluster.warm", func() { replica.Warm(req, resp.Solution) })
				}
			}
		}
		if sp.proto == "http" {
			t.do(i, id, "http.encode", func() {
				out.Reset()
				stageErr = json.NewEncoder(&out).Encode(wireResponse(resp))
			})
			t.do(i, id, "client", func() { stageErr = httpClientWork(it.body, out.Bytes()) })
		} else {
			var frame []byte
			t.do(i, id, "wire.encode_result", func() {
				buf.Reset()
				stageErr = wire.WriteFrame(&buf, wire.FrameSolution, wire.EncodeResult(wire.Result{Solution: resp.Solution, CacheHit: resp.CacheHit}))
				frame = buf.Bytes()
			})
			t.do(i, id, "wire.decode_result", func() {
				var p []byte
				if _, p, stageErr = wire.ReadFrame(bytes.NewReader(frame)); stageErr == nil {
					_, stageErr = wire.DecodeResult(p)
				}
			})
			t.do(i, id, "client", func() { stageErr = wireClientWork(it.body, frame) })
		}
		if stageErr != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, stageErr)
		}
		t.close(id)
	}
	return t, nil
}

// wireResponse is the /solve body the handler writes for a success.
func wireResponse(r serve.Response) serve.WireResponse {
	return serve.WireResponse{
		Accepted: orEmpty(r.Solution.Accepted), Rejected: orEmpty(r.Solution.Rejected),
		Energy: r.Solution.Energy, Penalty: r.Solution.Penalty, Cost: r.Solution.Cost,
		CacheHit: r.CacheHit, Coalesced: r.Coalesced,
	}
}

// wireClientWork is the load generator's own work per wire request,
// without the network: write the pre-encoded frame, read the answer.
func wireClientWork(payload, answer []byte) error {
	if err := wire.WriteFrame(io.Discard, wire.FrameSolve, payload); err != nil {
		return err
	}
	_, _, err := wire.ReadFrame(bytes.NewReader(answer))
	return err
}

// httpClientWork is the load generator's own work per HTTP request,
// without the network: build and serialize the POST, parse a response
// carrying body and read the body into an arena.
func httpClientWork(payload, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1/solve", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := req.Write(io.Discard); err != nil {
		return err
	}
	raw := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + string(body)
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader([]byte(raw))), req)
	if err != nil {
		return err
	}
	_, err = appendBody(nil, resp.Body)
	resp.Body.Close()
	return err
}

// layerMetrics turns the measured phase's counters and the replay's spans
// into the per-layer metrics. Layers a workload does not run report 0.
func layerMetrics(sp spec, ph *phase, t *tracer) []metric {
	var rtSum time.Duration
	for _, s := range ph.rts {
		rtSum += s.end.Sub(s.start)
	}
	rtMean := ratio(us(rtSum), float64(len(ph.rts)))
	var server, handlerSelf float64
	if sp.proto == "http" {
		server = t.mean("http.handler")
		handlerSelf = server - (t.mean("http.decode") + t.mean("http.to_request") + t.mean("serve.solve") + t.mean("http.encode"))
	} else {
		server = t.mean("wire.decode_request") + t.mean("serve.solve") + t.mean("wire.encode_result")
	}
	n := float64(max(ph.attempted, 1))
	c := ph.c
	tracedRate := ratio(float64(ph.tracedOK), ph.traced.Seconds())
	untracedRate := ratio(float64(ph.untracedOK), ph.untraced.Seconds())
	overhead := 0.0
	if tracedRate > 0 && untracedRate > 0 {
		overhead = 1 - tracedRate/untracedRate
	}
	tax := 0.0
	if t.taxN > 0 {
		tax = us(t.taxSum) / float64(t.taxN)
	}
	return []metric{
		{"http.decode_us", "us", t.mean("http.decode")},
		{"http.encode_us", "us", t.mean("http.encode")},
		{"http.to_request_us", "us", t.mean("http.to_request")},
		{"http.handler_self_us", "us", handlerSelf},
		{"http.body_kb", "KiB", httpBodyKB(sp, ph)},
		{"wire.encode_us", "us", t.mean("wire.encode_request") + t.mean("wire.encode_result")},
		{"wire.decode_us", "us", t.mean("wire.decode_request") + t.mean("wire.decode_result")},
		{"wire.frame_kb", "KiB", frameKB(sp, ph)},
		{"cluster.route_us", "us", t.mean("cluster.route")},
		{"cluster.transport_us", "us", rtMean - server},
		{"cluster.warm_us", "us", t.mean("cluster.warm")},
		{"cluster.repl_applied_frac", "ratio", ratio(float64(c.replApplied), float64(c.replSent+c.replDropped))},
		{"cluster.repl_dropped", "count", float64(c.replDropped)},
		{"serve.fingerprint_us", "us", t.mean("serve.fingerprint")},
		{"serve.hit_us", "us", t.mean("serve.solve.hit")},
		{"serve.miss_us", "us", t.mean("serve.solve.cold")},
		{"cache.hit_ratio", "ratio", hitRatio(c)},
		{"cache.bypasses", "count", float64(c.bypasses)},
		{"serve.coalesced", "count", float64(c.coalesced)},
		{"delta.tax_us", "us", tax},
		{"delta.warm_us", "us", t.mean("serve.solve.delta")},
		{"delta.warm_ratio", "ratio", warmRatio(c)},
		{"delta.reused_row_share", "ratio", reusedShare(sp, ph)},
		{"delta.parents", "count", float64(c.parents)},
		{"delta.state_mb", "MiB", ratio(t.stateBytes, t.stateN) / (1 << 20)},
		{"core.dp_us", "us", t.mean("core.dp")},
		{"core.dp_rows", "rows", ratio(t.dpRows, float64(t.dpN))},
		{"core.dp_cells_m", "Mcells", ratio(t.dpCells, float64(t.dpN)) / 1e6},
		{"core.sparse_solves", "count", float64(c.sparseSolves)},
		{"runtime.alloc_kb_per_req", "KiB/req", ph.rm[0] / 1024 / n},
		{"runtime.gc_per_kreq", "1/kreq", ph.rm[1] * 1000 / n},
		{"runtime.gc_cpu_frac", "ratio", ratio(ph.rm[2], ph.rm[3])},
		{"client.self_us", "us", t.mean("client")},
		{"trace.overhead_frac", "ratio", overhead},
		{"fail_frac", "ratio", float64(ph.failed()) / n},
	}
}

// writeSpans writes the network run's round-trip spans and the replay's
// spans as JSON lines.
func writeSpans(o options, ph *phase, t *tracer) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var origin time.Time
	if len(ph.rts) > 0 {
		origin = ph.rts[0].start
		for _, s := range ph.rts {
			if s.start.Before(origin) {
				origin = s.start
			}
		}
	}
	for i, s := range ph.rts {
		enc.Encode(span{ID: -(i + 1), Req: s.req, Name: "roundtrip",
			Start: int64(s.start.Sub(origin)), End: int64(s.end.Sub(origin))})
	}
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
