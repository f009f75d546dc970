package vclock

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wire"
)

func id(s int32, inc uint32, seq uint64) ids.MsgID {
	return ids.MsgID{Sender: ids.ProcessID(s), Incarnation: inc, Seq: seq}
}

func TestObserveAndCovers(t *testing.T) {
	v := New()
	if v.Covers(id(0, 1, 1)) {
		t.Fatal("empty clock covers something")
	}
	for s := uint64(1); s <= 5; s++ {
		v.Observe(id(0, 1, s))
	}
	if !v.Covers(id(0, 1, 5)) || !v.Covers(id(0, 1, 3)) {
		t.Fatal("clock should cover seq <= 5 (all observed)")
	}
	if v.Covers(id(0, 1, 6)) {
		t.Fatal("clock covers future seq")
	}
	if v.Covers(id(0, 2, 1)) {
		t.Fatal("clock covers other incarnation")
	}
	if v.Covers(id(1, 1, 1)) {
		t.Fatal("clock covers other sender")
	}
}

// TestCoversIsExact: observing a sequence number out of order must NOT
// claim coverage of the skipped-over ones — a checkpoint folding a
// sender's m4 before its m3 was ever delivered does not contain m3, and
// claiming otherwise diverges processes that folded at different rounds
// (see the package doc).
func TestCoversIsExact(t *testing.T) {
	v := New()
	v.Observe(id(0, 1, 4)) // m4 ordered before m3 (gossip loss)
	if !v.Covers(id(0, 1, 4)) {
		t.Fatal("observed message not covered")
	}
	if v.Covers(id(0, 1, 3)) || v.Covers(id(0, 1, 1)) {
		t.Fatal("clock covers never-observed holes")
	}
	v.Observe(id(0, 1, 3)) // m3 delivered later: the hole fills
	if !v.Covers(id(0, 1, 3)) {
		t.Fatal("filled hole not covered")
	}
	if v.Covers(id(0, 1, 2)) {
		t.Fatal("remaining hole covered")
	}
	// Round-trip keeps the holes.
	w := wire.NewWriter(0)
	v.Encode(w)
	got := Decode(wire.NewReader(w.Bytes()))
	if got.Covers(id(0, 1, 2)) || !got.Covers(id(0, 1, 3)) || !got.Covers(id(0, 1, 4)) {
		t.Fatal("holes lost in encode/decode round trip")
	}
	// Merge unions coverage: a clock that covers m2 fills the hole.
	o := New()
	o.Observe(id(0, 1, 1))
	o.Observe(id(0, 1, 2))
	v.Merge(o)
	for s := uint64(1); s <= 4; s++ {
		if !v.Covers(id(0, 1, s)) {
			t.Fatalf("merged clock misses seq %d", s)
		}
	}
}

func TestObserveIsMonotone(t *testing.T) {
	v := New()
	v.Observe(id(0, 1, 10))
	v.Observe(id(0, 1, 3)) // fills one hole, never regresses
	if !v.Covers(id(0, 1, 10)) || !v.Covers(id(0, 1, 3)) {
		t.Fatal("observe regressed")
	}
}

func randVC(rng *rand.Rand) VC {
	v := New()
	for i := 0; i < rng.IntN(8); i++ {
		s, inc := ids.ProcessID(rng.IntN(4)), uint32(rng.IntN(3))
		// A few out-of-order observations per stream, so random clocks
		// carry holes and the lattice laws are checked over them.
		for j := 0; j < 1+rng.IntN(4); j++ {
			v.Observe(ids.MsgID{Sender: s, Incarnation: inc, Seq: rng.Uint64N(20) + 1})
		}
	}
	return v
}

// TestMergeLattice property-checks that Merge is a join: commutative,
// associative, idempotent, and dominating.
func TestMergeLattice(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		a, b, c := randVC(rng), randVC(rng), randVC(rng)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false // commutativity
		}
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false // associativity
		}
		aa := a.Clone()
		aa.Merge(a)
		if !aa.Equal(a) {
			return false // idempotence
		}
		return ab.Dominates(a) && ab.Dominates(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		v := randVC(rng)
		w := wire.NewWriter(0)
		v.Encode(w)
		r := wire.NewReader(w.Bytes())
		got := Decode(r)
		return r.Done() == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	v := New()
	v.Observe(id(2, 1, 9))
	v.Observe(id(0, 3, 4))
	v.Observe(id(0, 1, 7))
	w1 := wire.NewWriter(0)
	v.Encode(w1)
	w2 := wire.NewWriter(0)
	v.Clone().Encode(w2)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDominates(t *testing.T) {
	a := New()
	for s := uint64(1); s <= 5; s++ {
		a.Observe(id(0, 1, s))
	}
	b := New()
	for s := uint64(1); s <= 3; s++ {
		b.Observe(id(0, 1, s))
	}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("dominates wrong")
	}
	b.Observe(id(1, 1, 1))
	if a.Dominates(b) {
		t.Fatal("incomparable clocks reported dominated")
	}
	if !a.Dominates(New()) {
		t.Fatal("everything dominates empty")
	}
	// Exactness: {5} with holes below does not dominate {3}.
	h := New()
	h.Observe(id(0, 1, 5))
	only3 := New()
	only3.Observe(id(0, 1, 3))
	only3.Observe(id(0, 1, 1))
	only3.Observe(id(0, 1, 2))
	if h.Dominates(only3) {
		t.Fatal("clock with holes dominates contiguous coverage")
	}
}

// TestFarJumpIsOneRun: live resharding re-injects an orphan under a
// sequence number tagged with its retired group, (g+1)<<48 above the
// stream's native counter. Folding it must cost one hole run — an entry
// per skipped number would be 2^48 of them: the checkpoint that folded the
// orphan never returned — and coverage stays exact on both sides of the gap.
func TestFarJumpIsOneRun(t *testing.T) {
	const far = uint64(3)<<48 | 17
	v := New()
	for s := uint64(1); s <= 4; s++ {
		v.Observe(id(0, 1, s))
	}
	v.Observe(id(0, 1, far))
	v.Observe(id(0, 1, 6)) // a native message ordered after the orphan
	for _, tc := range []struct {
		seq  uint64
		want bool
	}{{4, true}, {5, false}, {6, true}, {7, false}, {far - 1, false}, {far, true}, {far + 1, false}} {
		if got := v.Covers(id(0, 1, tc.seq)); got != tc.want {
			t.Fatalf("Covers(%d) = %v, want %v", tc.seq, got, tc.want)
		}
	}
	if n := len(v.holes[Key{0, 1}]); n != 2 {
		t.Fatalf("%d hole runs, want 2 ([5,5] and [7,far-1])", n)
	}
	w := wire.NewWriter(0)
	v.Encode(w)
	if w.Len() > 64 {
		t.Fatalf("the clock encodes to %d bytes", w.Len())
	}
	got := Decode(wire.NewReader(w.Bytes()))
	if got == nil || !got.Equal(v) {
		t.Fatal("round trip lost the far jump")
	}
	o := New()
	o.Observe(id(0, 1, 5))
	o.Observe(id(0, 1, 9))
	v.Merge(o)
	if !v.Covers(id(0, 1, 5)) || !v.Covers(id(0, 1, 9)) || v.Covers(id(0, 1, 8)) || !v.Dominates(o) {
		t.Fatal("merge across the far jump is not the union")
	}
}

// TestAgainstSetModel drives the clock and a plain set of observed numbers
// with the same random observations and merges, and compares Covers on
// every number in range, Dominates against set inclusion, and the encode
// round trip.
func TestAgainstSetModel(t *testing.T) {
	const width = 40
	type model map[uint64]bool
	build := func(rng *rand.Rand) (VC, model) {
		v, m := New(), model{}
		for i := rng.IntN(12); i > 0; i-- {
			s := rng.Uint64N(width) + 1
			v.Observe(id(0, 1, s))
			m[s] = true
		}
		return v, m
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		a, ma := build(rng)
		b, mb := build(rng)
		subset := true // mb ⊆ ma
		for s := range mb {
			subset = subset && ma[s]
		}
		if a.Dominates(b) != subset {
			return false
		}
		a.Merge(b)
		for s := range mb {
			ma[s] = true
		}
		w := wire.NewWriter(0)
		a.Encode(w)
		back := Decode(wire.NewReader(w.Bytes()))
		if back == nil {
			return false
		}
		for s := uint64(1); s <= width+1; s++ {
			if a.Covers(id(0, 1, s)) != ma[s] || back.Covers(id(0, 1, s)) != ma[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRejectsMalformedRuns: runs out of order, overlapping, adjacent,
// starting at 0 or reaching the maximum are not a clock this code wrote.
func TestDecodeRejectsMalformedRuns(t *testing.T) {
	enc := func(max uint64, runs ...uint64) []byte {
		w := wire.NewWriter(0)
		w.U64(1)
		w.I64(0)
		w.U64(1)
		w.U64(max)
		w.U64(uint64(len(runs) / 2))
		for _, x := range runs {
			w.U64(x)
		}
		return w.Bytes()
	}
	if Decode(wire.NewReader(enc(10, 2, 1, 6, 0))) == nil { // [2,3] [6,6]
		t.Fatal("a well-formed clock was rejected")
	}
	for name, b := range map[string][]byte{
		"out of order":      enc(10, 6, 0, 2, 0),
		"overlapping":       enc(10, 2, 3, 4, 1),
		"adjacent":          enc(10, 2, 1, 4, 0),
		"from zero":         enc(10, 0, 1),
		"reaches the max":   enc(10, 8, 2),
		"length overflows":  enc(10, 5, ^uint64(0)),
		"more than is left": append(enc(10)[:len(enc(10))-1], 0x7f),
	} {
		if Decode(wire.NewReader(b)) != nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the clock decoder, which reads clocks
// out of checkpoints and state frames. No input may panic it, and what it
// accepts must survive a re-encode: Decode(Encode(Decode(x))) covers
// exactly what Decode(x) does, and encodes to the same bytes. testdata/fuzz
// holds clocks with and without holes, a far jump, and a malformed run,
// which decodes to no clock.
func FuzzDecode(f *testing.F) {
	enc := func(c VC) []byte {
		w := wire.NewWriter(0)
		c.Encode(w)
		return w.Bytes()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := Decode(wire.NewReader(b))
		if c == nil {
			return
		}
		back := Decode(wire.NewReader(enc(c)))
		if back == nil {
			t.Fatalf("the re-encoding of %x does not decode", b)
		}
		if !back.Equal(c) || !bytes.Equal(enc(back), enc(c)) {
			t.Fatalf("round trip of %x: %x, want %x", b, enc(back), enc(c))
		}
	})
}
