package wire

import (
	"bytes"
	"errors"
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
