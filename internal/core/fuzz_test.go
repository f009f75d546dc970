package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wire"
)

// FuzzOnMessage feeds arbitrary core-channel frames (gossip, digest, pull,
// state, floor and unknown subtypes) to a protocol that has committed
// three rounds (the first delivering two messages) and holds one unordered
// message, so every handler finds state to act on; a floor frame reaches
// its Shard (a fakeShard, which copies it). No frame may panic a
// handler, the state adoption a state frame causes, its upcalls, or a read
// of the state that results. testdata/fuzz holds today's encodings of
// every subtype as the seed corpus.
func FuzzOnMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, _, _ := newTestProtocol(Config{Delta: 1, Shard: newFakeShard()})
		w := wire.NewWriter(64)
		msg.EncodeBatch(w, []msg.Message{m(1, 1, 1), m(2, 1, 1)})
		p.commit(0, w.Bytes())
		p.commit(1, nil)
		p.commit(2, nil)
		if _, err := p.BroadcastAsync([]byte("pending")); err != nil {
			t.Fatal(err)
		}

		p.OnMessage(1, frame)
		p.drainUpcalls()
		_ = p.Round()
		_, _ = p.Sequence()
	})
}

// A state frame whose checkpoint vector clock is malformed decodes as
// corrupt: adopting it would install a nil clock that the next
// membership test dereferences.
func TestOnStateRejectsCorruptVectorClock(t *testing.T) {
	p, _, _ := newTestProtocol(Config{Delta: 1})
	w := wire.NewWriter(64)
	w.U8(subState)
	w.U64(9) // k_q - 1
	w.U64(0) // sender's GC floor
	w.Bool(false)
	w.Bytes32(nil)
	w.U64(1) // one clock entry
	w.I64(1) // sender
	w.U64(1) // incarnation
	w.U64(5) // max
	w.U64(1) // one hole run
	w.U64(0) // lo = 0: runs start at 1
	w.U64(0)
	w.U64(0) // rounds
	w.U64(0) // pos
	w.U64(0) // empty suffix
	p.OnMessage(1, w.Bytes())
	if p.Round() != 0 || p.Delivered(m(1, 1, 1).ID) {
		t.Fatalf("corrupt state adopted: round %d", p.Round())
	}
}

// FuzzDeliveryState runs the delivered sequence against a naive model,
// the whole sequence in delivery order and the length of its folded
// prefix, under the operations the core applies to it. ops drives them:
// decided values decoded, sorted and filtered in place on the suffix's
// tail (repeats within a batch and of earlier rounds, messages the base
// clock covers, sequence gaps, a second incarnation, a reshard orphan far
// above the native counters, a value that does not decode), where the
// model sorts a fresh copy of the batch and appends what it lacks; folds
// at any floor up to the round counter, adoption into a fresh state while
// the source goes on changing, and an encode-decode round trip. After
// every operation contains, nextPos, deliveries and the base clock agree
// with the model, and the suffix's spare capacity holds no message. raw
// is decoded as a hostile state. testdata/fuzz holds
// the seeds, among them a state whose suffix repeats a message its base
// clock covers: the decoder drops that entry, as the ⊕ rule would.
func FuzzDeliveryState(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, raw []byte) {
		checkDecoded(t, raw)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		d := newDeliveryState()
		var model []Delivery // the whole sequence; model[:folded] is folded
		pos := make(map[ids.MsgID]int)
		folded := 0
		var round, rounds uint64 // the next round; the base's Rounds
		var dels []Delivery      // reused, as the machine's buffer is
		for len(ops) > 0 {
			switch op := next(); op % 4 {
			case 0, 1: // a decided value; rounds in between may be empty
				round += uint64(next() % 3)
				batch := make([]msg.Message, next()%8)
				for i := range batch {
					batch[i] = fuzzMsg(next())
				}
				value := encodeBatch(batch)
				if op >= 0xf0 { // cut short: it decodes as an empty batch
					value, batch = value[:len(value)-1], nil
				}
				fresh := len(model)
				sorted := slices.Clone(batch)
				msg.SortCanonical(sorted)
				for _, mm := range sorted {
					if _, ok := pos[mm.ID]; !ok {
						pos[mm.ID] = len(model)
						model = append(model, Delivery{Msg: mm, Round: round, Pos: uint64(len(model))})
					}
				}
				from, decided := d.appendValue(round, value)
				if decided != len(batch) || d.base.Pos+uint64(from) != uint64(fresh) {
					t.Fatalf("appendValue: batch of %d from %d; the model decided %d from %d",
						decided, d.base.Pos+uint64(from), len(batch), fresh)
				}
				dels = d.appendDeliveries(dels[:0], from, 0)
				sameDeliveries(t, "appendValue", dels, model[fresh:])
				round++
			case 2: // a fold at a floor at or below the round counter
				floor := round - min(round, uint64(next()%8))
				cut := 0
				for folded+cut < len(model) && model[folded+cut].Round < floor {
					cut++
				}
				if got := d.cutBelow(floor); got != cut {
					t.Fatalf("cutBelow(%d) = %d; the model cuts %d", floor, got, cut)
				}
				d.foldPrefix([]byte{op}, cut, floor)
				folded += cut
				rounds = max(rounds, floor)
			case 3:
				if next()%2 == 0 {
					src := d
					d = newDeliveryState()
					d.adopt(src)
					src.appendBatch(round, []msg.Message{fuzzMsg(next()), fuzzMsg(next())})
					src.foldPrefix(nil, src.cutBelow(round+1), round+1)
				} else {
					w := wire.NewWriter(0)
					d.encode(w)
					if d = decodeDeliveryState(wire.NewReader(w.Bytes())); d == nil {
						t.Fatal("an encoded state does not decode")
					}
				}
			}
			if d.nextPos() != uint64(len(model)) || d.base.Pos != uint64(folded) || d.base.Rounds != rounds {
				t.Fatalf("nextPos %d, base at %d rounds %d; the model has %d, %d folded, rounds %d",
					d.nextPos(), d.base.Pos, d.base.Rounds, len(model), folded, rounds)
			}
			sameDeliveries(t, "deliveries", d.deliveries(), model[folded:])
			if len(d.rounds) != len(d.msgs) {
				t.Fatalf("%d rounds beside %d messages", len(d.rounds), len(d.msgs))
			}
			for _, mm := range d.msgs[len(d.msgs):cap(d.msgs)] {
				if mm.Payload != nil {
					t.Fatalf("the suffix's spare capacity still holds %v", mm.ID)
				}
			}
			for b := range 256 {
				id := fuzzMsg(byte(b)).ID
				p, in := pos[id]
				if d.contains(id) != in || d.base.VC.Covers(id) != (in && p < folded) {
					t.Fatalf("%v: contains %v, base covers %v; the model has it at %d (%v), %d folded",
						id, d.contains(id), d.base.VC.Covers(id), p, in, folded)
				}
			}
		}
	})
}

// fuzzMsg maps a byte to a message: three senders, two incarnations and
// sequence numbers 1 to 16, so batches repeat and skip, and for 0xff a
// reshard orphan far above the native counters.
func fuzzMsg(b byte) msg.Message {
	if b == 0xff {
		return m(2, 1, 1<<48+1)
	}
	return m(int32(b%3), uint32(1+b/3%2), uint64(1+b/6%16))
}

func sameDeliveries(t *testing.T, what string, got, want []Delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d deliveries; the model has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Msg.ID != w.Msg.ID || g.Round != w.Round || g.Pos != w.Pos {
			t.Fatalf("%s %d: %v round %d at %d; the model has %v round %d at %d",
				what, i, g.Msg.ID, g.Round, g.Pos, w.Msg.ID, w.Round, w.Pos)
		}
	}
}

// checkDecoded decodes raw as a state from a hostile peer or a corrupt
// log. One that decodes keeps no entry its sequence contains twice,
// answers membership as its base clock and suffix together, and encodes to
// bytes that decode to the same state.
func checkDecoded(t *testing.T, raw []byte) {
	d := decodeDeliveryState(wire.NewReader(raw))
	if d == nil {
		return
	}
	inSuffix := make(map[ids.MsgID]bool)
	for _, mm := range d.msgs {
		if d.base.VC.Covers(mm.ID) || inSuffix[mm.ID] {
			t.Fatalf("decoded suffix keeps %v, which the sequence already contains", mm.ID)
		}
		inSuffix[mm.ID] = true
	}
	for b := range 256 {
		id := fuzzMsg(byte(b)).ID
		if d.contains(id) != (inSuffix[id] || d.base.VC.Covers(id)) {
			t.Fatalf("decoded state: contains(%v) = %v", id, d.contains(id))
		}
	}
	w := wire.NewWriter(0)
	d.encode(w)
	e := decodeDeliveryState(wire.NewReader(w.Bytes()))
	if e == nil || e.base.Pos != d.base.Pos || e.base.Rounds != d.base.Rounds ||
		!bytes.Equal(e.base.App, d.base.App) || !e.base.VC.Equal(d.base.VC) {
		t.Fatal("a decoded state does not survive its own round trip")
	}
	sameDeliveries(t, "round trip", e.deliveries(), d.deliveries())
}
