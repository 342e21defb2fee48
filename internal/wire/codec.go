package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"dvsreject/internal/core"
	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Request is one solve on the wire: the full instance space (any finite
// float64 deadline/penalty/rho, any processor description), the solver
// name, the FastPow opt-in and an optional client deadline. Unlike the
// HTTP/JSON path there is no model vocabulary — the processor ships as its
// raw parameters, so anything core.Instance can express rides the wire.
type Request struct {
	Solver  string
	Tasks   task.Set
	Proc    speed.Proc
	FastPow bool
	Timeout time.Duration
}

// Result is a successful solve outcome plus the serving-layer flags.
type Result struct {
	Solution  core.Solution
	CacheHit  bool
	Coalesced bool
}

// Error is the wire form of a failed solve: an HTTP-aligned status code, a
// Retry-After hint (429 overload rejections only, 0 otherwise) and the
// error text.
type Error struct {
	Code       int
	RetryAfter time.Duration
	Msg        string
}

// EncodeRequest renders req into its canonical payload for a FrameSolve.
func EncodeRequest(req Request) []byte {
	buf := make([]byte, 0, 64+len(req.Solver)+8*len(req.Proc.Levels)+32*len(req.Tasks.Tasks))
	return appendRequest(buf, req)
}

// DecodeRequest parses a FrameSolve payload. It rejects trailing bytes and
// non-canonical encodings, so Encode(Decode(p)) == p for every accepted p.
func DecodeRequest(payload []byte) (Request, error) {
	r := reader{b: payload}
	req := readRequest(&r)
	return req, r.finish("request")
}

// EncodeResult renders a solve outcome into its FrameSolution payload.
func EncodeResult(res Result) []byte {
	s := res.Solution
	buf := make([]byte, 0, 96+8*(len(s.Accepted)+len(s.Rejected)+len(s.PerTaskSpeeds)))
	var flags byte
	if res.CacheHit {
		flags |= 1
	}
	if res.Coalesced {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = appendIntSlice(buf, s.Accepted)
	buf = appendIntSlice(buf, s.Rejected)
	buf = appendFloatSlice(buf, s.PerTaskSpeeds)
	a := s.Assignment
	buf = appendF64(buf, a.LoSpeed)
	buf = appendF64(buf, a.HiSpeed)
	buf = appendF64(buf, a.LoTime)
	buf = appendF64(buf, a.HiTime)
	buf = appendF64(buf, a.ExecEnergy)
	buf = appendF64(buf, a.IdleEnergy)
	buf = appendBool(buf, a.Shutdown)
	buf = appendF64(buf, a.Total)
	buf = appendF64(buf, s.Energy)
	buf = appendF64(buf, s.Penalty)
	buf = appendF64(buf, s.Cost)
	return buf
}

// DecodeResult parses a FrameSolution payload.
func DecodeResult(payload []byte) (Result, error) {
	r := reader{b: payload}
	flags := r.u8()
	if flags&^byte(3) != 0 {
		r.fail(fmt.Errorf("wire: unknown result flags %#x", flags))
	}
	var res Result
	res.CacheHit = flags&1 != 0
	res.Coalesced = flags&2 != 0
	s := &res.Solution
	s.Accepted = readIntSlice(&r)
	s.Rejected = readIntSlice(&r)
	s.PerTaskSpeeds = readFloatSlice(&r)
	a := &s.Assignment
	a.LoSpeed = r.f64()
	a.HiSpeed = r.f64()
	a.LoTime = r.f64()
	a.HiTime = r.f64()
	a.ExecEnergy = r.f64()
	a.IdleEnergy = r.f64()
	a.Shutdown = r.bool()
	a.Total = r.f64()
	s.Energy = r.f64()
	s.Penalty = r.f64()
	s.Cost = r.f64()
	return res, r.finish("result")
}

// EncodeError renders e into its FrameError payload.
func EncodeError(e Error) []byte {
	buf := make([]byte, 0, 16+len(e.Msg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Code))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.RetryAfter.Nanoseconds()))
	buf = appendString(buf, e.Msg)
	return buf
}

// DecodeError parses a FrameError payload.
func DecodeError(payload []byte) (Error, error) {
	r := reader{b: payload}
	var e Error
	e.Code = int(r.u32())
	e.RetryAfter = time.Duration(r.u64())
	e.Msg = r.str()
	return e, r.finish("error")
}

// EncodeReplicate renders a solved cache entry — the exact request and its
// bit-exact solution — into a FrameReplicate payload. The receiver recomputes
// the fingerprint itself, so only the pair ships.
func EncodeReplicate(req Request, sol core.Solution) []byte {
	buf := appendRequest(nil, req)
	return append(buf, EncodeResult(Result{Solution: sol})...)
}

// DecodeReplicate parses a FrameReplicate payload.
func DecodeReplicate(payload []byte) (Request, core.Solution, error) {
	r := reader{b: payload}
	req := readRequest(&r)
	if r.err != nil {
		return Request{}, core.Solution{}, r.finish("replicate")
	}
	res, err := DecodeResult(payload[r.off:])
	if err != nil {
		return Request{}, core.Solution{}, err
	}
	if res.CacheHit || res.Coalesced {
		// EncodeReplicate never sets them; accepting them would make two
		// payloads decode to the same replicate.
		return Request{}, core.Solution{}, fmt.Errorf("wire: decoding replicate: result flags set")
	}
	return req, res.Solution, nil
}

// appendRequest encodes the request body shared by FrameSolve and
// FrameReplicate.
func appendRequest(buf []byte, req Request) []byte {
	buf = appendString(buf, req.Solver)
	buf = appendBool(buf, req.FastPow)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Timeout.Nanoseconds()))
	buf = appendF64(buf, req.Tasks.Deadline)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Tasks.Tasks)))
	for _, t := range req.Tasks.Tasks {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t.ID)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Cycles))
		buf = appendF64(buf, t.Penalty)
		buf = appendF64(buf, t.Rho)
	}
	p := req.Proc
	buf = appendF64(buf, p.Model.Pind)
	buf = appendF64(buf, p.Model.Coeff)
	buf = appendF64(buf, p.Model.Alpha)
	buf = appendF64(buf, p.SMin)
	buf = appendF64(buf, p.SMax)
	buf = appendBool(buf, p.DormantEnable)
	buf = appendF64(buf, p.Esw)
	if p.Levels == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = appendFloatSlice(buf, p.Levels)
	}
	return buf
}

// readRequest decodes the request body, leaving r positioned after it.
func readRequest(r *reader) Request {
	var req Request
	req.Solver = r.str()
	req.FastPow = r.bool()
	req.Timeout = time.Duration(r.u64())
	req.Tasks.Deadline = r.f64()
	n := r.count(32)
	if r.err == nil && n > 0 {
		req.Tasks.Tasks = make([]task.Task, n)
		for i := range req.Tasks.Tasks {
			t := &req.Tasks.Tasks[i]
			t.ID = int(int64(r.u64()))
			t.Cycles = int64(r.u64())
			t.Penalty = r.f64()
			t.Rho = r.f64()
		}
	}
	p := &req.Proc
	p.Model.Pind = r.f64()
	p.Model.Coeff = r.f64()
	p.Model.Alpha = r.f64()
	p.SMin = r.f64()
	p.SMax = r.f64()
	p.DormantEnable = r.bool()
	p.Esw = r.f64()
	switch have := r.u8(); have {
	case 0:
	case 1:
		p.Levels = readFloatSlice(r)
		if p.Levels == nil && r.err == nil {
			p.Levels = []float64{}
		}
	default:
		r.fail(fmt.Errorf("wire: levels presence byte %d, want 0 or 1", have))
	}
	return req
}

func appendF64(buf []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendIntSlice(buf []byte, xs []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(x)))
	}
	return buf
}

func appendFloatSlice(buf []byte, xs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = appendF64(buf, x)
	}
	return buf
}

func readIntSlice(r *reader) []int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(int64(r.u64()))
	}
	return xs
}

func readFloatSlice(r *reader) []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.f64()
	}
	return xs
}

// reader is a sticky-error cursor over a payload. After the first failure
// every accessor returns zero values, so decoders read straight through and
// check once.
type reader struct {
	b   []byte
	off int
	err error
}

var errShort = errors.New("wire: truncated payload")

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail(errShort)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	switch b := r.u8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: bool byte %d, want 0 or 1", b))
		return false
	}
}

func (r *reader) str() string {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a u32 element count and bounds it by the bytes remaining at
// elemSize each, so a hostile count can never force a huge allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && n*elemSize > len(r.b)-r.off {
		r.fail(errShort)
		return 0
	}
	return n
}

// finish reports the sticky error, or rejects trailing bytes — canonical
// payloads parse exactly.
func (r *reader) finish(what string) error {
	if r.err != nil {
		return fmt.Errorf("wire: decoding %s: %w", what, r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: decoding %s: %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}
