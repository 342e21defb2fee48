package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvsreject/internal/core"
)

// wireInstance builds a WireRequest from the same generator the engine
// tests use, so HTTP results can be checked against direct solves.
func wireInstance(seed int64, n int) WireRequest {
	set := mustSet(seed, n)
	w := WireRequest{Deadline: set.Deadline, SMax: 1, Solver: "DP"}
	for _, tk := range set.Tasks {
		w.Tasks = append(w.Tasks, WireTask{ID: tk.ID, Cycles: tk.Cycles, Penalty: tk.Penalty, Rho: tk.Rho})
	}
	return w
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestHandlerSolve(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	wreq := wireInstance(20, 12)
	resp, body := postJSON(t, srv.URL+"/solve", wreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got WireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	req, err := wreq.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := directSolve(t, req, core.SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		math.Float64bits(got.Penalty) != math.Float64bits(want.Penalty) {
		t.Errorf("wire solution diverged: got %+v want %+v", got, want)
	}
	if len(got.Accepted) != len(want.Accepted) || len(got.Rejected) != len(want.Rejected) {
		t.Errorf("admission sets diverged: got %+v want %+v", got, want)
	}
	if got.CacheHit {
		t.Error("first solve reported cache_hit")
	}

	resp2, body2 := postJSON(t, srv.URL+"/solve", wreq)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp2.StatusCode)
	}
	var warm WireResponse
	if err := json.Unmarshal(body2, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("second identical solve did not report cache_hit")
	}
	if math.Float64bits(warm.Cost) != math.Float64bits(want.Cost) {
		t.Error("cached wire solution diverged")
	}
}

func TestHandlerErrors(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Unknown field.
	resp, err = http.Post(srv.URL+"/solve", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Unknown power model.
	w := wireInstance(21, 5)
	w.Model = "pentium"
	resp, _ = postJSON(t, srv.URL+"/solve", w)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", resp.StatusCode)
	}

	// Discrete without xscale.
	w = wireInstance(21, 5)
	w.Discrete = true
	resp, _ = postJSON(t, srv.URL+"/solve", w)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("discrete cubic: status %d, want 400", resp.StatusCode)
	}

	// Unknown solver: reaches the engine, 422.
	w = wireInstance(21, 5)
	w.Solver = "NOPE"
	resp, _ = postJSON(t, srv.URL+"/solve", w)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown solver: status %d, want 422", resp.StatusCode)
	}

	// Invalid instance (no tasks is fine, but smax = 0 is not).
	w = wireInstance(21, 5)
	w.SMax = 0
	resp, _ = postJSON(t, srv.URL+"/solve", w)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid processor: status %d, want 422", resp.StatusCode)
	}

	// Wrong method.
	getResp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", getResp.StatusCode)
	}
}

func TestHandlerBatch(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	a := wireInstance(22, 10)
	bad := wireInstance(23, 10)
	bad.Model = "pentium"
	b := wireInstance(24, 10)
	b.Model = "xscale"
	b.Discrete = true

	resp, body := postJSON(t, srv.URL+"/batch", WireBatch{Requests: []WireRequest{a, bad, a, b}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out WireBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 4 {
		t.Fatalf("got %d responses, want 4", len(out.Responses))
	}
	if out.Responses[0].Error != "" || out.Responses[2].Error != "" || out.Responses[3].Error != "" {
		t.Errorf("valid batch items errored: %+v", out.Responses)
	}
	if out.Responses[1].Error == "" {
		t.Error("invalid batch item did not error")
	}
	if !out.Responses[2].Coalesced {
		t.Error("duplicate batch item not coalesced")
	}
	if math.Float64bits(out.Responses[0].Cost) != math.Float64bits(out.Responses[2].Cost) {
		t.Error("duplicate batch items disagree")
	}
}

func TestHandlerStatsAndHealth(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	postJSON(t, srv.URL+"/solve", wireInstance(25, 8))
	postJSON(t, srv.URL+"/solve", wireInstance(25, 8))

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 2 || st.Cache.Hits != 1 {
		t.Errorf("stats = %+v, want 2 requests / 1 hit", st)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", h.StatusCode)
	}
}

func TestWireRequestEsw(t *testing.T) {
	w := wireInstance(26, 5)
	esw := 0.4
	w.Esw = &esw
	req, err := w.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !req.Proc.DormantEnable || req.Proc.Esw != 0.4 {
		t.Errorf("esw pointer not honoured: %+v", req.Proc)
	}
	w.Esw = nil
	req, err = w.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Proc.DormantEnable {
		t.Error("omitted esw enabled the dormant mode")
	}
}

// TestHandlerSolveHetero: a wire request with a processor vector routes
// to the heterogeneous tier and the response carries the HeteroInfo
// extension with a certified gap.
func TestHandlerSolveHetero(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	wreq := wireInstance(21, 10)
	wreq.SMax = 0
	wreq.Procs = []WireProc{{SMax: 1}, {SMax: 0.5}}
	resp, body := postJSON(t, srv.URL+"/solve", wreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got WireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Hetero == nil {
		t.Fatal("hetero wire response missing its extension")
	}
	if len(got.Hetero.PerProc) != 2 || len(got.Hetero.Energies) != 2 {
		t.Fatalf("hetero extension shape %d/%d procs, want 2/2",
			len(got.Hetero.PerProc), len(got.Hetero.Energies))
	}
	if got.Hetero.Gap < 0 {
		t.Errorf("convex vector reported uncertified gap %g", got.Hetero.Gap)
	}
	if math.Abs(got.Cost-(got.Energy+got.Penalty)) > 1e-9*(1+got.Cost) {
		t.Errorf("cost %g does not decompose into energy %g + penalty %g", got.Cost, got.Energy, got.Penalty)
	}
	if e.Stats().HeteroSolves != 1 {
		t.Errorf("HeteroSolves = %d, want 1", e.Stats().HeteroSolves)
	}

	// A bad per-processor model is a 400 naming the offending slot.
	wreq.Procs[1].Model = "warp"
	resp, body = postJSON(t, srv.URL+"/solve", wreq)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad proc model: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "procs[1]") {
		t.Errorf("error %s does not name the offending processor", body)
	}
}

func TestHandlerProcsBound(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Config{})))
	defer srv.Close()

	wreq := wireInstance(22, 8)
	wreq.SMax = 0
	for len(wreq.Procs) < maxProcs {
		wreq.Procs = append(wreq.Procs, WireProc{SMax: 1})
	}
	if resp, body := postJSON(t, srv.URL+"/solve", wreq); resp.StatusCode != http.StatusOK {
		t.Fatalf("%d procs: status %d: %s", maxProcs, resp.StatusCode, body)
	}
	wreq.Procs = append(wreq.Procs, WireProc{SMax: 1})
	if resp, body := postJSON(t, srv.URL+"/solve", wreq); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d procs: status %d, want 400: %s", maxProcs+1, resp.StatusCode, body)
	}
}
