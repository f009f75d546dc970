package core

import (
	"bytes"
	"math/rand/v2"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wire"
)

func m(s int32, inc uint32, seq uint64) msg.Message {
	return msg.Message{
		ID:      ids.MsgID{Sender: ids.ProcessID(s), Incarnation: inc, Seq: seq},
		Payload: []byte{byte(seq)},
	}
}

// appendBatch commits batch as round's decided value: encoded, then
// appended by appendValue, as commit does. It returns the new deliveries.
func (d *deliveryState) appendBatch(round uint64, batch []msg.Message) []Delivery {
	from, _ := d.appendValue(round, encodeBatch(batch))
	return d.appendDeliveries(nil, from, 0)
}

// deliveries returns the whole suffix as Delivery values.
func (d *deliveryState) deliveries() []Delivery { return d.appendDeliveries(nil, 0, 0) }

func encodeBatch(batch []msg.Message) []byte {
	w := wire.NewWriter(msg.BatchSize(batch))
	msg.EncodeBatch(w, batch)
	return w.Bytes()
}

func TestAppendBatchAssignsContiguousPositions(t *testing.T) {
	d := newDeliveryState()
	out1 := d.appendBatch(0, []msg.Message{m(1, 1, 1), m(0, 1, 1)})
	if len(out1) != 2 {
		t.Fatalf("appended %d", len(out1))
	}
	// Canonical order within the batch: sender 0 first.
	if out1[0].Msg.ID.Sender != 0 || out1[0].Pos != 0 || out1[1].Pos != 1 {
		t.Fatalf("positions wrong: %+v", out1)
	}
	out2 := d.appendBatch(1, []msg.Message{m(2, 1, 1)})
	if out2[0].Pos != 2 || out2[0].Round != 1 {
		t.Fatalf("second batch: %+v", out2)
	}
	if d.nextPos() != 3 {
		t.Fatalf("nextPos = %d", d.nextPos())
	}
}

func TestAppendBatchIsIdempotentAcrossRounds(t *testing.T) {
	d := newDeliveryState()
	d.appendBatch(0, []msg.Message{m(0, 1, 1)})
	// The same message decided again in a later round is not re-delivered
	// (the ⊕ rule).
	out := d.appendBatch(1, []msg.Message{m(0, 1, 1), m(0, 1, 2)})
	if len(out) != 1 || out[0].Msg.ID.Seq != 2 {
		t.Fatalf("dedup failed: %+v", out)
	}
}

func TestFoldMovesSuffixIntoBase(t *testing.T) {
	d := newDeliveryState()
	d.appendBatch(0, []msg.Message{m(0, 1, 1), m(1, 1, 1)})
	d.appendBatch(1, []msg.Message{m(0, 1, 2)})
	d.foldPrefix([]byte("appstate"), d.cutBelow(2), 2)
	if len(d.msgs) != 0 || len(d.rounds) != 0 {
		t.Fatal("suffix not cleared")
	}
	if d.base.Pos != 3 || d.base.Rounds != 2 || string(d.base.App) != "appstate" {
		t.Fatalf("base: %+v", d.base)
	}
	// Folded messages are still contained (via the VC).
	for _, id := range []ids.MsgID{m(0, 1, 1).ID, m(1, 1, 1).ID, m(0, 1, 2).ID} {
		if !d.contains(id) {
			t.Fatalf("folded message %v no longer contained", id)
		}
	}
	if d.contains(m(0, 1, 3).ID) {
		t.Fatal("future message contained")
	}
	// Deliveries after a fold continue at the folded position.
	out := d.appendBatch(2, []msg.Message{m(1, 1, 2)})
	if out[0].Pos != 3 {
		t.Fatalf("post-fold position = %d", out[0].Pos)
	}
}

func TestAdoptClonesState(t *testing.T) {
	src := newDeliveryState()
	src.appendBatch(0, []msg.Message{m(0, 1, 1)})
	src.foldPrefix([]byte("s"), src.cutBelow(1), 1)
	src.appendBatch(1, []msg.Message{m(1, 1, 1)})

	dst := newDeliveryState()
	dst.adopt(src)
	if !dst.contains(m(0, 1, 1).ID) || !dst.contains(m(1, 1, 1).ID) {
		t.Fatal("adopted state incomplete")
	}
	// Mutating the source must not affect the adopted copy.
	src.appendBatch(2, []msg.Message{m(2, 1, 1)})
	src.base.VC.Observe(m(9, 1, 9).ID)
	if dst.contains(m(2, 1, 1).ID) || dst.contains(m(9, 1, 9).ID) {
		t.Fatal("adopt aliased the source")
	}
}

func TestDeliveryStateEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		d := newDeliveryState()
		round := uint64(0)
		for r := 0; r < 5; r++ {
			batch := make([]msg.Message, rng.IntN(4))
			for i := range batch {
				batch[i] = m(int32(rng.IntN(3)), 1, rng.Uint64N(20)+1)
			}
			d.appendBatch(round, batch)
			round++
			if rng.IntN(3) == 0 {
				d.foldPrefix([]byte{byte(r)}, d.cutBelow(round), round)
			}
		}
		w := wire.NewWriter(0)
		d.encode(w)
		got := decodeDeliveryState(wire.NewReader(w.Bytes()))
		if got == nil {
			return false
		}
		if got.base.Pos != d.base.Pos || got.base.Rounds != d.base.Rounds {
			return false
		}
		if !got.base.VC.Equal(d.base.VC) {
			return false
		}
		if len(got.msgs) != len(d.msgs) {
			return false
		}
		for i := range d.msgs {
			if got.msgs[i].ID != d.msgs[i].ID || got.rounds[i] != d.rounds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeDeliveryStateRejectsGarbage(t *testing.T) {
	if decodeDeliveryState(wire.NewReader([]byte{0xff, 0x01})) != nil {
		t.Fatal("garbage decoded")
	}
}

// TestTwoStatesSameBatchesConverge is the Total Order engine-room property:
// two delivery states fed the same per-round batches (in any within-batch
// permutation) are identical.
func TestTwoStatesSameBatchesConverge(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		a, b := newDeliveryState(), newDeliveryState()
		for round := uint64(0); round < 8; round++ {
			batch := make([]msg.Message, rng.IntN(5))
			for i := range batch {
				batch[i] = m(int32(rng.IntN(3)), 1, rng.Uint64N(25)+1)
			}
			perm := make([]msg.Message, len(batch))
			copy(perm, batch)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			a.appendBatch(round, batch)
			b.appendBatch(round, perm)
		}
		da, db := a.deliveries(), b.deliveries()
		if len(da) != len(db) {
			return false
		}
		for i := range da {
			if da[i].Msg.ID != db[i].Msg.ID || da[i].Pos != db[i].Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cycleBatches returns rounds batches of per messages each: fresh
// identities from five senders, each sender's sequence numbers rising
// from from+1, and every batch out of canonical order (senders
// descending), as a decode may hand one over.
func cycleBatches(rounds, per int, from uint64) [][]msg.Message {
	out := make([][]msg.Message, rounds)
	seq := from
	for r := range out {
		b := make([]msg.Message, 0, per)
		for i := 0; i < per; i++ {
			if i%5 == 0 {
				seq++
			}
			b = append(b, m(int32(4-i%5), 1, seq))
		}
		out[r] = b
	}
	return out
}

// TestDeliveryStateSteadyStateAllocs pins the delivered sequence's steady
// state: once one fold cycle has sized the suffix, a further cycle of the
// same rounds — each decided value decoded onto the suffix and its
// deliveries written to a reused buffer — closed by a fold allocates
// nothing, and nor does a fold that keeps part of the suffix (a merge
// floor).
func TestDeliveryStateSteadyStateAllocs(t *testing.T) {
	const rounds, per = 256, 25
	d := newDeliveryState()
	var round, from uint64
	// The values are encoded outside the measured calls: the warm-up
	// cycle's and AllocsPerRun's two.
	var values [][][]byte
	for range 3 {
		var cycle [][]byte
		for _, b := range cycleBatches(rounds, per, from) {
			cycle = append(cycle, encodeBatch(b))
		}
		values = append(values, cycle)
		from += rounds * per / 5
	}
	var dels []Delivery
	cycle := func() {
		for _, v := range values[0] {
			next, _ := d.appendValue(round, v)
			dels = d.appendDeliveries(dels[:0], next, 0)
			round++
		}
		values = values[1:]
		d.foldPrefix(nil, d.cutBelow(round), round)
	}
	cycle() // warm-up: the suffix reaches its size between folds
	if got := testing.AllocsPerRun(1, cycle); got != 0 {
		t.Errorf("a cycle closed by a fold allocates %v times; want 0", got)
	}
	for _, b := range cycleBatches(rounds, per, from) {
		d.appendBatch(round, b)
		round++
	}
	floor := round - rounds
	partial := func() {
		floor += rounds / 4
		d.foldPrefix(nil, d.cutBelow(floor), floor)
	}
	if got := testing.AllocsPerRun(1, partial); got != 0 {
		t.Errorf("a partial fold allocates %v times; want 0", got)
	}
	if len(d.msgs) != rounds/2*per {
		t.Fatalf("suffix after two quarter folds: %d entries; want %d", len(d.msgs), rounds/2*per)
	}
}

// TestDecidedTwiceDeliveredOnceAcrossFold: a message decided in two rounds
// is delivered once, whether the first delivery has been folded or is
// still in the retained suffix.
func TestDecidedTwiceDeliveredOnceAcrossFold(t *testing.T) {
	d := newDeliveryState()
	a, b, c := m(0, 1, 1), m(1, 1, 1), m(2, 1, 1)
	d.appendBatch(0, []msg.Message{a})
	d.appendBatch(1, []msg.Message{b})
	d.foldPrefix(nil, d.cutBelow(1), 1) // a folded, b retained
	out := d.appendBatch(2, []msg.Message{c, b, a})
	if len(out) != 1 || out[0].Msg.ID != c.ID || out[0].Pos != 2 {
		t.Fatalf("deliveries of the repeat round: %+v", out)
	}
	d.foldPrefix(nil, d.cutBelow(3), 3)
	if out := d.appendBatch(3, []msg.Message{a, b, c}); len(out) != 0 {
		t.Fatalf("folded messages delivered again: %+v", out)
	}
	if d.nextPos() != 3 {
		t.Fatalf("nextPos = %d; want 3", d.nextPos())
	}
}

// goldenState builds a state by appends and folds that cover the clock's
// cases: sequence gaps, a second incarnation, a reshard orphan far above
// the native counters, a message decided twice, and a partial fold.
func goldenState() *deliveryState {
	d := newDeliveryState()
	orphan := m(2, 1, 1<<48+3)
	d.appendBatch(0, []msg.Message{m(0, 1, 1), m(1, 1, 2), m(0, 1, 3)})
	d.appendBatch(1, []msg.Message{m(1, 1, 1), orphan, m(0, 2, 1)})
	d.appendBatch(2, []msg.Message{m(0, 1, 1), m(2, 1, 1)})
	d.foldPrefix([]byte("ckpt"), d.cutBelow(2), 2)
	d.appendBatch(3, []msg.Message{m(0, 1, 2), m(0, 1, 5), orphan})
	d.appendBatch(4, []msg.Message{m(1, 2, 7)})
	d.foldPrefix([]byte("ckpt2"), d.cutBelow(4), 4)
	d.appendBatch(5, []msg.Message{m(0, 1, 4), m(1, 1, 3)})
	return d
}

// TestDeliveryStateEncodingIsUnchanged: the checkpoint record and the
// state-transfer frame carry this encoding, so a state built by the same
// appends and folds must encode to the same bytes as before.
// testdata/delivery-state.golden was written by the encoder that kept a
// per-ID index map beside the clock.
func TestDeliveryStateEncodingIsUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/delivery-state.golden")
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(0)
	goldenState().encode(w)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", w.Bytes(), want)
	}
}

// coveredRepeatState encodes a state whose suffix repeats a message its
// base clock covers, beside one it does not: bytes no encoder writes.
func coveredRepeatState() []byte {
	d := newDeliveryState()
	d.base.VC.Observe(m(0, 1, 1).ID)
	d.base.Pos, d.base.Rounds = 1, 3
	d.msgs = []msg.Message{m(0, 1, 1), m(1, 1, 1)}
	d.rounds = []uint64{3, 3}
	w := wire.NewWriter(0)
	d.encode(w)
	return w.Bytes()
}

// TestDecodeDropsSuffixEntryTheBaseCovers: a decoded suffix entry that
// the base clock already covers is dropped, as the ⊕ rule drops a message
// decided again, and the rest keep the positions that rule gives them.
func TestDecodeDropsSuffixEntryTheBaseCovers(t *testing.T) {
	d := decodeDeliveryState(wire.NewReader(coveredRepeatState()))
	if d == nil {
		t.Fatal("state rejected")
	}
	ds := d.deliveries()
	if len(ds) != 1 || ds[0].Msg.ID != m(1, 1, 1).ID || ds[0].Pos != 1 || d.nextPos() != 2 {
		t.Fatalf("decoded suffix: %+v", ds)
	}
}
