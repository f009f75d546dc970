package msg

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wire"
)

func mk(sender int32, inc uint32, seq uint64, payload string) Message {
	return Message{
		ID:      ids.MsgID{Sender: ids.ProcessID(sender), Incarnation: inc, Seq: seq},
		Payload: []byte(payload),
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := mk(2, 3, 99, "the payload")
	w := wire.NewWriter(0)
	m.Encode(w)
	r := wire.NewReader(w.Bytes())
	got := DecodeMessage(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %v vs %v", got, m)
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		in := make([]Message, int(n)%32)
		for i := range in {
			payload := make([]byte, rng.IntN(64))
			for b := range payload {
				payload[b] = byte(rng.Uint64())
			}
			in[i] = Message{
				ID: ids.MsgID{
					Sender:      ids.ProcessID(rng.IntN(7)),
					Incarnation: uint32(rng.IntN(4)),
					Seq:         rng.Uint64N(1000),
				},
				Payload: payload,
			}
		}
		w := wire.NewWriter(0)
		EncodeBatch(w, in)
		r := wire.NewReader(w.Bytes())
		out := DecodeBatch(r)
		if r.Done() != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !out[i].Equal(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortCanonicalPermutationInvariant is the deterministic-rule property:
// any permutation of a batch sorts to the same sequence.
func TestSortCanonicalPermutationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 1 + rng.IntN(20)
		batch := make([]Message, n)
		for i := range batch {
			batch[i] = mk(int32(rng.IntN(5)), uint32(rng.IntN(3)), rng.Uint64N(50), "x")
		}
		a := make([]Message, n)
		b := make([]Message, n)
		copy(a, batch)
		copy(b, batch)
		rng.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		SortCanonical(a)
		SortCanonical(b)
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAddIsIdempotent(t *testing.T) {
	s := NewSet()
	m := mk(0, 1, 1, "a")
	if !s.Add(m) {
		t.Fatal("first add reported duplicate")
	}
	if s.Add(m) {
		t.Fatal("second add reported new")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSetSubtractDelivered(t *testing.T) {
	s := NewSet()
	for i := uint64(1); i <= 10; i++ {
		s.Add(mk(0, 1, i, "m"))
	}
	s.SubtractDelivered(func(id ids.MsgID) bool { return id.Seq <= 5 })
	if s.Len() != 5 {
		t.Fatalf("len = %d, want 5", s.Len())
	}
	for _, m := range s.Slice() {
		if m.ID.Seq <= 5 {
			t.Fatalf("message %v should have been subtracted", m.ID)
		}
	}
}

func TestSetSliceIsCanonicallySorted(t *testing.T) {
	s := NewSet()
	s.Add(mk(2, 1, 1, "c"))
	s.Add(mk(0, 1, 2, "a2"))
	s.Add(mk(0, 1, 1, "a1"))
	s.Add(mk(1, 1, 1, "b"))
	sl := s.Slice()
	for i := 0; i+1 < len(sl); i++ {
		if sl[i+1].ID.Less(sl[i].ID) {
			t.Fatalf("slice not sorted at %d", i)
		}
	}
}

func TestSetCloneIsIndependent(t *testing.T) {
	s := NewSet()
	s.Add(mk(0, 1, 1, "a"))
	c := s.Clone()
	c.Add(mk(0, 1, 2, "b"))
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d vs %d", s.Len(), c.Len())
	}
}

func TestSetRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add(mk(0, 1, 1, "a"))
	s.Add(mk(1, 2, 3, "b"))
	w := wire.NewWriter(0)
	s.Encode(w)
	r := wire.NewReader(w.Bytes())
	got := DecodeSet(r)
	if r.Done() != nil || got.Len() != 2 {
		t.Fatalf("round trip: len=%d", got.Len())
	}
	if !got.Contains(ids.MsgID{Sender: 1, Incarnation: 2, Seq: 3}) {
		t.Fatal("missing member after round trip")
	}
}

func TestMessageEqual(t *testing.T) {
	a := mk(0, 1, 1, "x")
	b := mk(0, 1, 1, "x")
	c := mk(0, 1, 1, "y")
	if !a.Equal(b) {
		t.Fatal("equal messages reported unequal")
	}
	if a.Equal(c) {
		t.Fatal("different payloads reported equal")
	}
	if !bytes.Equal(a.Payload, []byte("x")) {
		t.Fatal("payload mangled")
	}
}

// TestDecodeBatchAliasesItsInput: decoding n messages allocates the slice
// of messages and nothing else — every payload is a slice of the input (a
// received frame, a log record or a decided value, all immutable), not a
// copy of it.
func TestDecodeBatchAliasesItsInput(t *testing.T) {
	var ms []Message
	for i := 0; i < 32; i++ {
		ms = append(ms, mk(1, 1, uint64(i+1), strings.Repeat("x", 64)))
	}
	w := wire.NewWriter(BatchSize(ms))
	EncodeBatch(w, ms)
	if w.Len() > BatchSize(ms) {
		t.Fatalf("BatchSize %d does not bound the %d encoded bytes", BatchSize(ms), w.Len())
	}
	buf := w.Bytes()
	var got []Message
	if n := testing.AllocsPerRun(100, func() { got = DecodeBatch(wire.NewReader(buf)) }); n != 1 {
		t.Fatalf("DecodeBatch of %d messages allocates %.0f times, want 1 (the slice)", len(ms), n)
	}
	for i, m := range got {
		if !m.Equal(ms[i]) {
			t.Fatalf("message %d decoded as %v", i, m)
		}
	}
	buf[len(buf)-1] ^= 0xFF // the last payload byte of the input ...
	if last := got[len(got)-1].Payload; last[len(last)-1] == 'x' {
		t.Fatal("decoded payload is a copy, not a slice of the input") // ... shows through
	}
}
