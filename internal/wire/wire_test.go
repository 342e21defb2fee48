package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dvsreject/internal/core"
	"dvsreject/internal/gen"
	"dvsreject/internal/power"
	"dvsreject/internal/serve"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
	"dvsreject/internal/verify"
	"dvsreject/internal/wire"
)

// reqPool spans the full instance space the codec must carry exactly:
// off-grid floats, heterogeneous rho, discrete ladders, dormant modes,
// FastPow, empty task lists and odd IDs.
func reqPool() []wire.Request {
	offGrid := []task.Task{
		{ID: 7, Cycles: 13, Penalty: math.Pi},
		{ID: 3, Cycles: 1 << 40, Penalty: 1e-300, Rho: 0.7071067811865476},
		{ID: -2, Cycles: 1, Penalty: math.MaxFloat64, Rho: 1.0000000000000002},
	}
	return []wire.Request{
		{},
		{Solver: "DP", Tasks: task.Set{Deadline: 123.45678901234567, Tasks: offGrid},
			Proc: speed.Proc{Model: power.Cubic(), SMin: 0.1234567, SMax: 0.9999999999}},
		{Solver: "S-GREEDY", FastPow: true, Timeout: 1500 * time.Millisecond,
			Tasks: task.Set{Deadline: 1e-12, Tasks: offGrid[:1]},
			Proc: speed.Proc{Model: power.XScale(), Levels: power.XScaleLevels(),
				DormantEnable: true, Esw: 2.00000001}},
		{Solver: "OPT", Tasks: task.Set{Deadline: math.Inf(1)},
			Proc: speed.Proc{Levels: []float64{}}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for i, req := range reqPool() {
		enc := wire.EncodeRequest(req)
		dec, err := wire.DecodeRequest(enc)
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		// Canonical codec: re-encoding the decoded value must reproduce
		// the bytes exactly — this is the bit-exactness the replication
		// path leans on.
		if !bytes.Equal(wire.EncodeRequest(dec), enc) {
			t.Fatalf("request %d: re-encode differs", i)
		}
		if dec.Solver != req.Solver || dec.FastPow != req.FastPow || dec.Timeout != req.Timeout {
			t.Fatalf("request %d: header fields mangled: %+v", i, dec)
		}
		if math.Float64bits(dec.Tasks.Deadline) != math.Float64bits(req.Tasks.Deadline) {
			t.Fatalf("request %d: deadline bits changed", i)
		}
		if (dec.Proc.Levels == nil) != (req.Proc.Levels == nil) {
			t.Fatalf("request %d: levels nilness changed (discrete vs continuous)", i)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := wire.Result{
		Solution: core.Solution{
			Accepted:      []int{1, 3, 9},
			Rejected:      []int{2},
			PerTaskSpeeds: []float64{0.25, math.Pi / 4, 1},
			Assignment: speed.Assignment{
				LoSpeed: 0.6000000000000001, HiSpeed: 0.8, LoTime: 3.3, HiTime: 1.1,
				ExecEnergy: 2.5e-3, IdleEnergy: 1e-9, Shutdown: true, Total: 2.500001e-3,
			},
			Energy: 2.500001e-3, Penalty: 12.000000000000002, Cost: 12.002500001,
		},
		CacheHit:  true,
		Coalesced: true,
	}
	enc := wire.EncodeResult(res)
	dec, err := wire.DecodeResult(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(wire.EncodeResult(dec), enc) {
		t.Fatal("re-encode differs")
	}
	if err := verify.BitIdenticalSolutions(dec.Solution, res.Solution); err != nil {
		t.Fatalf("solution not bit-identical after round-trip: %v", err)
	}
	if !dec.CacheHit || !dec.Coalesced {
		t.Fatalf("flags lost: %+v", dec)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := wire.Error{Code: 429, RetryAfter: 87 * time.Millisecond, Msg: "overloaded: shed low-penalty request"}
	dec, err := wire.DecodeError(wire.EncodeError(e))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec != e {
		t.Fatalf("got %+v, want %+v", dec, e)
	}
}

func TestReplicateRoundTrip(t *testing.T) {
	req := reqPool()[1]
	sol := core.Solution{Accepted: []int{3, 7}, Rejected: []int{-2}, Energy: 1.25, Cost: 1.25}
	breq, bsol, err := wire.DecodeReplicate(wire.EncodeReplicate(req, sol))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(wire.EncodeRequest(breq), wire.EncodeRequest(req)) {
		t.Fatal("replicated request differs")
	}
	if err := verify.BitIdenticalSolutions(bsol, sol); err != nil {
		t.Fatalf("replicated solution differs: %v", err)
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	enc := wire.EncodeRequest(reqPool()[1])
	if _, err := wire.DecodeRequest(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := wire.DecodeRequest(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := bytes.Clone(enc)
	// Offset 4+len(solver) is the FastPow bool byte.
	bad[4+len("DP")] = 2
	if _, err := wire.DecodeRequest(bad); err == nil {
		t.Error("bool byte 2 accepted")
	}
	// A replicate carries a bare solution: the embedded result's flags
	// byte (cache hit, coalesced) must be zero.
	rep := wire.EncodeReplicate(reqPool()[1], core.Solution{Accepted: []int{3}})
	rep[len(enc)] = 2
	if _, _, err := wire.DecodeReplicate(rep); err == nil {
		t.Error("replicate with result flags accepted")
	}
}

// largePayload is a frame body well past ReadFrame's up-front allocation
// limit, so reading it takes the grow-as-received path.
func largePayload() []byte {
	p := make([]byte, 1<<20+3)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{wire.EncodeRequest(reqPool()[1]), wire.EncodeError(wire.Error{Code: 504}), {}, largePayload()}
	types := []wire.FrameType{wire.FrameSolve, wire.FrameError, wire.FrameReplicate, wire.FrameReplicate}
	for i := range payloads {
		if err := wire.WriteFrame(&buf, types[i], payloads[i]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := range payloads {
		ft, p, err := wire.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ft != types[i] || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("frame %d mangled: type %d len %d", i, ft, len(p))
		}
	}
	if _, _, err := wire.ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Truncated mid-body.
	var buf bytes.Buffer
	wire.WriteFrame(&buf, wire.FrameSolve, []byte("abcdef"))
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := wire.ReadFrame(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: got %v, want ErrUnexpectedEOF", err)
	}
	// Future version byte.
	vbuf := []byte{2, 0, 0, 0, wire.Version + 1, byte(wire.FrameSolve)}
	if _, _, err := wire.ReadFrame(bytes.NewReader(vbuf)); err == nil {
		t.Error("future version accepted")
	}
	// Hostile length word.
	big := []byte{0xff, 0xff, 0xff, 0xff, wire.Version, 1}
	if _, _, err := wire.ReadFrame(bytes.NewReader(big)); err == nil {
		t.Error("oversized length accepted")
	}
	// A body past the up-front allocation limit, truncated by one byte.
	buf.Reset()
	wire.WriteFrame(&buf, wire.FrameReplicate, largePayload())
	if _, _, err := wire.ReadFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated large frame: got %v, want ErrUnexpectedEOF", err)
	}
	// A MaxFrame length word backed by a short body must fail without
	// committing the declared 64 MiB.
	short := binary.LittleEndian.AppendUint32(nil, wire.MaxFrame)
	short = append(short, wire.Version, byte(wire.FrameSolve), 'x')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := wire.ReadFrame(bytes.NewReader(short))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("short MaxFrame body: got %v, want ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("short MaxFrame body allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestWireSolveBitIdenticalToJSON pins the tentpole contract: decoding an
// instance from the binary wire form and solving it yields bit-identical
// solutions to decoding the same instance from HTTP/JSON and solving, and
// both match solving the original in-memory instance.
func TestWireSolveBitIdenticalToJSON(t *testing.T) {
	sizes := []struct {
		n      int
		solver string
	}{{1, "DP"}, {13, "DP"}, {200, "S-GREEDY"}, {100000, "GREEDY"}}
	for _, sz := range sizes {
		if testing.Short() && sz.n > 1000 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(sz.n)))
		set, err := gen.Frame(rng, gen.Config{N: sz.n, Load: 1.3, Penalty: gen.PenaltyModel(sz.n % 3)})
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{Tasks: set, Proc: speed.Proc{Model: power.Cubic(), SMax: 1}}

		solver, err := core.NewSolver(sz.solver, core.SolverSpec{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve(in)
		if err != nil {
			t.Fatalf("n=%d: direct solve: %v", sz.n, err)
		}

		// Wire path: encode → decode → solve.
		wreq := wire.Request{Solver: sz.solver, Tasks: set, Proc: in.Proc}
		dec, err := wire.DecodeRequest(wire.EncodeRequest(wreq))
		if err != nil {
			t.Fatalf("n=%d: wire decode: %v", sz.n, err)
		}
		gotWire, err := solver.Solve(core.Instance{Tasks: dec.Tasks, Proc: dec.Proc, FastPow: dec.FastPow})
		if err != nil {
			t.Fatalf("n=%d: wire solve: %v", sz.n, err)
		}
		if err := verify.BitIdenticalSolutions(gotWire, want); err != nil {
			t.Errorf("n=%d: wire decode → solve differs from direct solve: %v", sz.n, err)
		}

		// JSON path: the daemon's HTTP body → serve request → solve.
		hreq := serve.WireRequest{Deadline: set.Deadline, SMax: 1, Solver: sz.solver}
		for _, tk := range set.Tasks {
			hreq.Tasks = append(hreq.Tasks, serve.WireTask{ID: tk.ID, Cycles: tk.Cycles, Penalty: tk.Penalty, Rho: tk.Rho})
		}
		body, err := json.Marshal(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var back serve.WireRequest
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatal(err)
		}
		sreq, err := back.ToRequest()
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := solver.Solve(core.Instance{Tasks: sreq.Tasks, Proc: sreq.Proc})
		if err != nil {
			t.Fatalf("n=%d: json solve: %v", sz.n, err)
		}
		if err := verify.BitIdenticalSolutions(gotWire, gotJSON); err != nil {
			t.Errorf("n=%d: wire and JSON decode paths disagree: %v", sz.n, err)
		}
	}
}

// TestWireSolveFastPow pins that the FastPow opt-in (inexpressible in the
// HTTP/JSON body) survives the wire and reproduces the direct FastPow solve
// bit for bit.
func TestWireSolveFastPow(t *testing.T) {
	for _, s := range verify.SeedInstances() {
		in := s.In
		in.FastPow = true
		solver, err := core.NewSolver("DP", core.SolverSpec{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve(in)
		if err != nil {
			continue // some seeds are infeasible for DP; the codec pin needs solvable ones
		}
		dec, err := wire.DecodeRequest(wire.EncodeRequest(wire.Request{
			Solver: "DP", Tasks: in.Tasks, Proc: in.Proc, FastPow: in.FastPow,
		}))
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		got, err := solver.Solve(core.Instance{Tasks: dec.Tasks, Proc: dec.Proc, FastPow: dec.FastPow})
		if err != nil {
			t.Fatalf("%s: solve: %v", s.Name, err)
		}
		if err := verify.BitIdenticalSolutions(got, want); err != nil {
			t.Errorf("%s: FastPow wire round-trip drifted: %v", s.Name, err)
		}
	}
}

// TestFuzzCodecAliases pins that the promoted grid codec still speaks the
// byte format of the committed corpora via verify's wrappers.
func TestFuzzCodecAliases(t *testing.T) {
	for _, s := range verify.SeedInstances() {
		data, ok := verify.EncodeInstance(s.In)
		if !ok {
			t.Fatalf("%s: seed no longer encodes", s.Name)
		}
		data2, ok := wire.EncodeFuzzInstance(s.In, verify.Flavours)
		if !ok || !bytes.Equal(data, data2) {
			t.Fatalf("%s: wrapper and wire codec bytes differ", s.Name)
		}
		in, ok := wire.DecodeFuzzInstance(data, verify.Flavours)
		if !ok {
			t.Fatalf("%s: decode failed", s.Name)
		}
		if len(in.Tasks.Tasks) != len(s.In.Tasks.Tasks) {
			t.Fatalf("%s: decode changed shape", s.Name)
		}
	}
}
