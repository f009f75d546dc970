package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(0)
	w.U64(1<<63 + 12345)
	w.I64(-42)
	w.I64(1 << 40)
	w.Bytes32([]byte("payload"))
	w.String("a string")

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<63+12345 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.I64(); got != 1<<40 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Bytes32 = %q", got)
	}
	if got := r.String(); got != "a string" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestRoundTripProperty quick-checks arbitrary values survive a round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(u uint64, i int64, b []byte, s string, flag bool) bool {
		w := NewWriter(0)
		w.U64(u)
		w.I64(i)
		w.Bytes32(b)
		w.String(s)
		w.Bool(flag)
		r := NewReader(w.Bytes())
		if r.U64() != u || r.I64() != i {
			return false
		}
		if got := r.Bytes32(); !bytes.Equal(got, b) {
			return false
		}
		if r.String() != s || r.Bool() != flag {
			return false
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncatedInputsFailCleanly(t *testing.T) {
	w := NewWriter(0)
	w.U64(500)
	w.Bytes32([]byte("hello world"))
	full := w.Bytes()
	// Every strict prefix must produce ErrTruncated, never a panic.
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		r.Bytes32()
		if r.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded without error", cut)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("prefix %d: got %v, want ErrTruncated", cut, r.Err())
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	_ = r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// All subsequent reads return zero values without panicking.
	if r.U8() != 0 || r.U64() != 0 || r.I64() != 0 || r.Bytes32() != nil || r.Bool() {
		t.Fatal("sticky error not honored")
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.U64(1)
	w.U8(99) // trailing garbage
	r := NewReader(w.Bytes())
	r.U64()
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestBytesCopyIsIndependent(t *testing.T) {
	w := NewWriter(0)
	w.Bytes32([]byte("mutate me"))
	buf := w.Bytes()
	r := NewReader(buf)
	cp := r.BytesCopy()
	buf[len(buf)-1] ^= 0xff
	if string(cp) != "mutate me" {
		t.Fatal("BytesCopy aliases the input")
	}
}

func TestLenAndRemaining(t *testing.T) {
	w := NewWriter(8)
	w.U8(1)
	w.U8(2)
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	r := NewReader(w.Bytes())
	if r.Remaining() != 2 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.U8()
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

// TestPutWriterPoisonsTheBuffer: in a test binary every byte a released
// writer had handed out reads 0xDB, so a borrower that kept a slice of it
// past the call it was borrowed for sees garbage at once.
func TestPutWriterPoisonsTheBuffer(t *testing.T) {
	for _, size := range []int{1, 7, 64, 1000, 4096} {
		w := GetWriter(size)
		w.Raw(bytes.Repeat([]byte{0x11}, size))
		kept := w.Bytes()
		PutWriter(w)
		for i, b := range kept {
			if b != 0xDB {
				t.Fatalf("size %d: byte %d of a released buffer reads %#x, want 0xDB", size, i, b)
			}
		}
	}
}

// readOp applies read number op%7 to r and returns what it read, boxed.
func readOp(r *Reader, op byte) any {
	switch op % 7 {
	case 0:
		return r.U8()
	case 1:
		return r.Bool()
	case 2:
		return r.U64()
	case 3:
		return r.I64()
	case 4:
		return r.Bytes32()
	case 5:
		return r.BytesCopy()
	default:
		return r.String()
	}
}

// writeOp writes v, a value readOp(_, op) returned, so that the same read
// decodes it again.
func writeOp(w *Writer, op byte, v any) {
	switch op % 7 {
	case 0:
		w.U8(v.(uint8))
	case 1:
		w.Bool(v.(bool))
	case 2:
		w.U64(v.(uint64))
	case 3:
		w.I64(v.(int64))
	case 4, 5:
		w.Bytes32(v.([]byte))
	default:
		w.String(v.(string))
	}
}

// FuzzReader runs an arbitrary sequence of reads (one per byte of ops)
// over arbitrary bytes. No read may panic or reach past the end: the
// remaining count never grows or goes negative, and a decoded byte string
// is a capacity-capped window of the input. Once Err is set it stays the
// same error, and every later read returns a zero value and consumes
// nothing. The values read before any error, written back by a Writer,
// read back equal under the same sequence of reads. testdata/fuzz holds an
// encoding of every kind, a truncated string and a hostile length.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		var vals []any
		var firstErr error
		for _, op := range ops {
			before := r.Remaining()
			v := readOp(r, op)
			after := r.Remaining()
			if after < 0 || after > before {
				t.Fatalf("op %d: remaining %d -> %d", op%7, before, after)
			}
			if b, ok := v.([]byte); ok && op%7 == 4 && cap(b) != len(b) {
				t.Fatalf("Bytes32 returned len %d cap %d: the caller could append over the input", len(b), cap(b))
			}
			if firstErr != nil {
				if r.Err() != firstErr || after != before || !reflect.ValueOf(v).IsZero() {
					t.Fatalf("op %d after %v: err %v, remaining %d -> %d, value %v", op%7, firstErr, r.Err(), before, after, v)
				}
				continue
			}
			if firstErr = r.Err(); firstErr == nil {
				vals = append(vals, v)
			}
		}

		w := NewWriter(0)
		for i, v := range vals {
			writeOp(w, ops[i], v)
		}
		back := NewReader(w.Bytes())
		for i, v := range vals {
			got := readOp(back, ops[i])
			if !reflect.DeepEqual(normalize(got), normalize(v)) {
				t.Fatalf("read %d (op %d): wrote %v, read back %v", i, ops[i]%7, v, got)
			}
		}
		if err := back.Done(); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// normalize maps an empty byte string to nil: Bytes32 of a zero length
// aliases the input and is non-nil, BytesCopy of one is nil.
func normalize(v any) any {
	if b, ok := v.([]byte); ok && len(b) == 0 {
		return []byte(nil)
	}
	return v
}
