package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dvsreject/internal/power"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// maxBodyBytes bounds a request body; a 100k-task instance is ~5 MB.
const maxBodyBytes = 16 << 20

// maxProcs bounds the processor vector of a heterogeneous request. The
// hetero solvers cost O(n·M) per pass — HETERO-PART re-solves a
// per-processor DP for every (task, processor) pair and its local-search
// seed keeps an n×M probe table — so the body limit alone would admit
// vectors of ~900k processors.
const maxProcs = 64

// WireTask is one task on the wire, mirroring the CLI instance format.
type WireTask struct {
	ID      int     `json:"id"`
	Cycles  int64   `json:"cycles"`
	Penalty float64 `json:"penalty"`
	Rho     float64 `json:"rho,omitempty"`
}

// WireRequest is one solve request on the wire. Model defaults to "cubic";
// esw omitted (or null) leaves the dormant mode disabled, matching the
// CLI's esw < 0 convention.
type WireRequest struct {
	Solver    string   `json:"solver,omitempty"` // "" = daemon default
	Model     string   `json:"model,omitempty"`  // cubic | xscale
	Discrete  bool     `json:"discrete,omitempty"`
	Esw       *float64 `json:"esw,omitempty"`
	Deadline  float64  `json:"deadline"`
	SMin      float64  `json:"smin,omitempty"`
	SMax      float64  `json:"smax"`
	FastPow   bool     `json:"fastpow,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	// Procs, when non-empty, makes this a heterogeneous M-processor solve
	// over the listed profiles; the top-level model/smin/smax/discrete/esw
	// fields are then ignored. The response carries per-processor placement
	// and the certified optimality gap.
	Procs []WireProc `json:"procs,omitempty"`
	Tasks []WireTask `json:"tasks"`
}

// WireProc is one processor profile of a heterogeneous request, with the
// same model conventions as the top-level WireRequest fields.
type WireProc struct {
	Model    string   `json:"model,omitempty"` // cubic | xscale
	Discrete bool     `json:"discrete,omitempty"`
	Esw      *float64 `json:"esw,omitempty"`
	SMin     float64  `json:"smin,omitempty"`
	SMax     float64  `json:"smax"`
}

// WireResponse is one solve result on the wire.
type WireResponse struct {
	Accepted  []int   `json:"accepted"`
	Rejected  []int   `json:"rejected"`
	Energy    float64 `json:"energy"`
	Penalty   float64 `json:"penalty"`
	Cost      float64 `json:"cost"`
	CacheHit  bool    `json:"cache_hit,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	// Anytime marks an answer from the anytime Pareto tier; Gap is its
	// certified optimality bound ((cost − LB)/cost, 0 = proven optimal).
	// Gap is omitted when no lower bound was available.
	Anytime bool    `json:"anytime,omitempty"`
	Gap     float64 `json:"gap,omitempty"`
	// Hetero carries the heterogeneous extension of a profile-vector solve:
	// per-processor placement and the certified gap against the pooled
	// lower bound. Omitted on single-processor responses.
	Hetero *HeteroInfo `json:"hetero,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// WireBatch is the /batch request body.
type WireBatch struct {
	Requests []WireRequest `json:"requests"`
}

// WireBatchResponse is the /batch response body.
type WireBatchResponse struct {
	Responses []WireResponse `json:"responses"`
}

// wireProc builds one processor from the shared wire conventions.
func wireProc(model string, discrete bool, esw *float64, smin, smax float64) (speed.Proc, error) {
	e := -1.0
	if esw != nil {
		e = *esw
	}
	var proc speed.Proc
	switch model {
	case "", "cubic":
		if discrete {
			return speed.Proc{}, fmt.Errorf(`"discrete" requires "model": "xscale"`)
		}
		proc = speed.Proc{Model: power.Cubic(), SMin: smin, SMax: smax}
	case "xscale":
		proc = speed.Proc{Model: power.XScale(), SMax: 1}
		if discrete {
			proc.Levels = power.XScaleLevels()
		} else {
			proc.SMin = smin
			proc.SMax = smax
		}
	default:
		return speed.Proc{}, fmt.Errorf("unknown power model %q", model)
	}
	if e >= 0 {
		proc.DormantEnable = true
		proc.Esw = e
	}
	return proc, nil
}

// ToRequest converts the wire form to an engine request.
func (w WireRequest) ToRequest() (Request, error) {
	var proc speed.Proc
	var procs []speed.Proc
	if len(w.Procs) > maxProcs {
		return Request{}, fmt.Errorf("procs: %d processors, at most %d", len(w.Procs), maxProcs)
	}
	if len(w.Procs) > 0 {
		procs = make([]speed.Proc, 0, len(w.Procs))
		for i, wp := range w.Procs {
			p, err := wireProc(wp.Model, wp.Discrete, wp.Esw, wp.SMin, wp.SMax)
			if err != nil {
				return Request{}, fmt.Errorf("procs[%d]: %w", i, err)
			}
			procs = append(procs, p)
		}
	} else {
		var err error
		proc, err = wireProc(w.Model, w.Discrete, w.Esw, w.SMin, w.SMax)
		if err != nil {
			return Request{}, err
		}
	}
	set := task.Set{Deadline: w.Deadline, Tasks: make([]task.Task, 0, len(w.Tasks))}
	for _, t := range w.Tasks {
		set.Tasks = append(set.Tasks, task.Task{ID: t.ID, Cycles: t.Cycles, Penalty: t.Penalty, Rho: t.Rho})
	}
	return Request{
		Tasks:   set,
		Proc:    proc,
		Procs:   procs,
		Solver:  w.Solver,
		FastPow: w.FastPow,
		Timeout: time.Duration(w.TimeoutMS) * time.Millisecond,
	}, nil
}

// toWire flattens an engine response for the wire.
func toWire(r Response) WireResponse {
	if r.Err != nil {
		return WireResponse{Error: r.Err.Error()}
	}
	w := WireResponse{
		Accepted:  r.Solution.Accepted,
		Rejected:  r.Solution.Rejected,
		Energy:    r.Solution.Energy,
		Penalty:   r.Solution.Penalty,
		Cost:      r.Solution.Cost,
		CacheHit:  r.CacheHit,
		Coalesced: r.Coalesced,
		Anytime:   r.Anytime,
	}
	if r.Anytime && r.Gap >= 0 {
		w.Gap = r.Gap
	}
	w.Hetero = r.Hetero
	if w.Accepted == nil {
		w.Accepted = []int{}
	}
	if w.Rejected == nil {
		w.Rejected = []int{}
	}
	return w
}

// Gate is the admission hook consulted before a request reaches the
// engine. Admit reports whether the request may proceed and, when it may
// not, how long the client should back off; every admitted request gets
// exactly one Release once its response is ready. The cluster layer
// implements Gate with a cost-model admission controller; a nil Gate
// admits everything.
type Gate interface {
	Admit(req Request) (ok bool, retryAfter time.Duration)
	Release(req Request)
}

// NewHandler wires the engine's HTTP surface with no admission gate.
func NewHandler(e *Engine) http.Handler { return NewGatedHandler(e, nil) }

// NewGatedHandler wires the engine's HTTP surface:
//
//	POST /solve   one WireRequest  → WireResponse
//	POST /batch   WireBatch        → WireBatchResponse (positional)
//	GET  /stats   engine counters
//	GET  /healthz liveness probe
//
// /solve distinguishes client errors (400), overload shedding (429 with a
// Retry-After header), solver/timeout errors (422/504) and success (200).
// /batch returns 200 with per-item errors inline; gating is per item, so
// an overloaded node sheds the low-penalty fraction of a batch rather than
// the whole call.
func NewGatedHandler(e *Engine, gate Gate) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /solve", func(w http.ResponseWriter, r *http.Request) {
		var wreq WireRequest
		if err := decodeBody(w, r, &wreq); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req, err := wreq.ToRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if gate != nil {
			ok, retryAfter := gate.Admit(req)
			if !ok {
				writeOverloaded(w, retryAfter)
				return
			}
			defer gate.Release(req)
		}
		resp := e.Solve(r.Context(), req)
		writeJSON(w, solveStatus(resp.Err), toWire(resp))
	})

	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var batch WireBatch
		if err := decodeBody(w, r, &batch); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		out := WireBatchResponse{Responses: make([]WireResponse, len(batch.Requests))}
		reqs := make([]Request, 0, len(batch.Requests))
		idx := make([]int, 0, len(batch.Requests))
		admitted := make([]Request, 0, len(batch.Requests))
		for i, wreq := range batch.Requests {
			req, err := wreq.ToRequest()
			if err != nil {
				out.Responses[i] = WireResponse{Error: err.Error()}
				continue
			}
			if gate != nil {
				ok, retryAfter := gate.Admit(req)
				if !ok {
					out.Responses[i] = WireResponse{Error: OverloadedMsg(retryAfter)}
					continue
				}
				admitted = append(admitted, req)
			}
			reqs = append(reqs, req)
			idx = append(idx, i)
		}
		for j, resp := range e.SolveBatch(r.Context(), reqs) {
			out.Responses[idx[j]] = toWire(resp)
		}
		if gate != nil {
			for _, req := range admitted {
				gate.Release(req)
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// solveStatus maps a solve outcome to an HTTP status: deadline/cancel →
// 504, solver rejection (invalid instance, unknown solver) → 422, success
// → 200.
func solveStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, WireResponse{Error: err.Error()})
}

// writeOverloaded sheds a request: 429 plus a Retry-After header. The
// header only speaks whole seconds, so the precise backoff also rides in
// the body (and in an X-Retry-After-Ms header for clients that parse it).
func writeOverloaded(w http.ResponseWriter, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if retryAfter%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	w.Header().Set("X-Retry-After-Ms", fmt.Sprint(retryAfter.Milliseconds()))
	writeJSON(w, http.StatusTooManyRequests, WireResponse{Error: OverloadedMsg(retryAfter)})
}

// OverloadedMsg is the shed-request error text, shared by /solve, /batch
// items and the wire protocol's error frames.
func OverloadedMsg(retryAfter time.Duration) string {
	return fmt.Sprintf("overloaded: low-penalty request shed, retry after %dms", retryAfter.Milliseconds())
}
