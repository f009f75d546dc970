// Package wire implements the compact binary codec used for every network
// message and stable-storage record in the system.
//
// The encoding is deliberately simple: unsigned varints for integers,
// length-prefixed byte strings, and a caller-supplied record tag. A Writer
// never fails; a Reader is sticky-error so decoding code can be written as a
// straight line and checked once at the end (the same discipline as
// encoding/binary but allocation-conscious).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// ErrTruncated is returned when a buffer ends before a value is complete.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed is returned when a value is syntactically invalid.
var ErrMalformed = errors.New("wire: malformed input")

// Writer accumulates an encoded record. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated to sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Reset empties the Writer for reuse, keeping its allocated capacity. Any
// previously returned Bytes() slice is invalidated.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// writerPool recycles Writers across encode calls on the hot paths
// (heartbeats, gossip frames, consensus ballot messages): steady-state
// sends stop allocating a fresh buffer per message.
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// poolMaxCap bounds the capacity of buffers kept in the pool; one huge
// record (a state transfer, a recovery batch) must not pin its buffer
// forever. It matches what the TCP transport keeps of its write frames: a
// gossip frame re-sending a handful of 32 KiB payloads passes through an
// encoder, the router's prepend and the transport, and recycles in all
// three or in none.
const poolMaxCap = 256 << 10

// GetWriter returns an empty pooled Writer with at least sizeHint capacity;
// an encoder that knows its size asks for it, so the buffer is allocated
// once and not grown append by append.
//
// The pool rests on the module's one buffer-ownership rule. A []byte handed
// to Send, Multisend, Put*, Append* or Propose is BORROWED FOR THE CALL: the
// callee copies it or is done with it before it returns, so the caller may
// PutWriter (or overwrite) the buffer the moment the call is back. A
// []byte that comes out of Recv, Get, Records or a decided value is
// IMMUTABLE AND OWNED BY THE COLLECTOR: it is never a pooled buffer, nobody
// writes to it again, and decoders alias it instead of copying. Only other
// processes receive what a process sends, so no frame of its own comes
// back to be owned: a machine takes its own share of a send as an input,
// the value itself, in the step that sent it.
func GetWriter(sizeHint int) *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	if cap(w.buf) < sizeHint {
		w.buf = make([]byte, 0, sizeHint)
	}
	return w
}

// PutWriter returns w to the pool. The caller must not touch w (or any
// slice previously obtained from w.Bytes()) afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) > poolMaxCap {
		return // oversized one-off: let the GC have it
	}
	Poison(w.buf)
	writerPool.Put(w)
}

// poisoning is on in test binaries only.
var poisoning = testing.Testing()

// Poison overwrites the bytes a borrower was lent, as their buffer goes back
// to a pool. In a test binary every byte becomes 0xDB, so a borrower that
// kept them past its call reads garbage on the spot — a CRC or decode
// failure in the test that did it — instead of another message's bytes once
// in a long run. Only what was written is overwritten, not the buffer's
// whole capacity: that is all anyone was ever handed, and it keeps the cost
// of a release in step with the message, not with the largest message the
// buffer ever held. Outside tests it does nothing.
func Poison(b []byte) {
	if !poisoning || len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n]) // doubling memmove: a 256 KiB buffer costs microseconds
	}
}

// Bytes returns the encoded record. The returned slice aliases the Writer's
// internal buffer; callers that retain it must not reuse the Writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 appends a signed varint (zig-zag).
func (w *Writer) I64(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bytes32 appends a length-prefixed byte string.
func (w *Writer) Bytes32(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a record produced by Writer. It is sticky-error: after the
// first failure every accessor returns a zero value and Err reports the
// failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns an error if decoding failed or bytes remain unconsumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 decodes a single byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U64 decodes an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// I64 decodes a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Bytes32 decodes a length-prefixed byte string. The result aliases the
// input buffer.
func (r *Reader) Bytes32() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// BytesCopy decodes a length-prefixed byte string into fresh storage, safe to
// retain after the input buffer is reused.
func (r *Reader) BytesCopy() []byte {
	b := r.Bytes32()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Bytes32())
}
