package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/wire"
)

// FuzzOnMessage feeds arbitrary core-channel frames (gossip, digest, pull,
// state, floor and unknown subtypes) to a protocol that has committed
// three rounds (the first delivering two messages) and holds one unordered
// message, so every handler finds state to act on. No frame may panic a
// handler, the state adoption a state frame causes, its upcalls, or a read
// of the state that results. testdata/fuzz holds today's encodings of
// every subtype as the seed corpus.
func FuzzOnMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, _, _ := newTestProtocol(Config{Delta: 1})
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
