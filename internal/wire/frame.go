package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrameTooLarge reports a length word exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrVersion reports a frame from an unknown wire-format version.
var ErrVersion = errors.New("wire: unsupported frame version")

// WriteFrame writes one frame: length word, version byte, type byte,
// payload. It performs a single Write so frames interleave safely on a
// shared buffered writer guarded by the caller.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	n := 2 + len(payload)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 0, 4+n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, Version, byte(t))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame and returns its type and payload. It returns
// io.EOF only on a clean boundary (no bytes read); a frame truncated
// mid-body surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if n < 2 {
		return 0, nil, fmt.Errorf("wire: frame length %d, want ≥ 2", n)
	}
	body, err := readBody(r, int64(n))
	if err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if body[0] != Version {
		return 0, nil, fmt.Errorf("%w: got %d, speak %d", ErrVersion, body[0], Version)
	}
	return FrameType(body[1]), body[2:], nil
}

// exactFrameMax is the largest frame body ReadFrame allocates up front.
const exactFrameMax = 64 << 10

// readBody reads exactly n bytes. Bodies up to exactFrameMax get one
// exact-size allocation; larger ones grow with the bytes actually
// received, so a length word promising MaxFrame commits no memory ahead
// of the body that backs it.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n <= exactFrameMax {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	var buf bytes.Buffer
	buf.Grow(exactFrameMax)
	_, err := io.CopyN(&buf, r, n)
	return buf.Bytes(), err
}
