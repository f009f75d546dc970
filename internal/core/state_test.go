package core

import (
	"math/rand/v2"
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
	if len(d.suffix) != 0 {
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
		if len(got.suffix) != len(d.suffix) {
			return false
		}
		for i := range d.suffix {
			if got.suffix[i].m.ID != d.suffix[i].m.ID || got.suffix[i].round != d.suffix[i].round {
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
