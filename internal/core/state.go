package core

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// deliveryState is the Agreed queue generalized per §5.2: an application
// checkpoint (base) plus the messages delivered after it (the suffix). With
// no checkpointing the base stays empty and the suffix is the whole queue —
// the basic protocol's Agreed. The suffix is two parallel slices, the
// messages in delivery order and the Consensus round that ordered each, so
// a decided batch decodes straight onto its tail and a fold hands the
// Checkpointer a view of its prefix. seen is §5.2's coverage clock extended
// to the whole sequence: it contains every message of base and suffix, so
// one lookup answers whether a message is already delivered, and base.VC
// stays exactly the folded prefix that snapshots carry.
type deliveryState struct {
	base   Snapshot
	msgs   []msg.Message
	rounds []uint64 // rounds[i] ordered msgs[i]
	seen   vclock.VC
}

func newDeliveryState() *deliveryState {
	return &deliveryState{base: Snapshot{VC: vclock.New()}, seen: vclock.New()}
}

// contains implements the membership predicate of the redefined delivery
// sequence — explicit in the suffix, or contained in the base checkpoint —
// as one lookup in the clock that covers both.
func (d *deliveryState) contains(id ids.MsgID) bool {
	return d.seen.Covers(id)
}

// nextPos is the global position the next delivered message will get.
func (d *deliveryState) nextPos() uint64 {
	return d.base.Pos + uint64(len(d.msgs))
}

// appendValue applies the ⊕ rule to the batch round decided, encoded as
// value: its messages are decoded onto the suffix's tail, sorted there
// into canonical order, and those the sequence already contains (a
// repeat, within the batch or of an earlier round, or a message the base
// clock covers) are dropped in place. It returns the suffix index of the
// first new entry and the size of the decided batch; a value that does
// not decode is an empty batch.
func (d *deliveryState) appendValue(round uint64, value []byte) (from, decided int) {
	from = len(d.msgs)
	d.msgs = msg.AppendBatch(d.msgs, wire.NewReader(value))
	tail := d.msgs[from:]
	decided = len(tail)
	msg.SortCanonical(tail)
	n := from
	for _, mm := range tail {
		if !d.contains(mm.ID) {
			d.seen.Observe(mm.ID)
			d.msgs[n] = mm
			n++
		}
	}
	clear(d.msgs[n:])
	d.msgs = d.msgs[:n]
	for range n - from {
		d.rounds = append(d.rounds, round)
	}
	return from, decided
}

// add appends m, ordered by round, unless the sequence already contains
// it (the ⊕ rule: a repeat, or a message the base clock covers).
func (d *deliveryState) add(m msg.Message, round uint64) {
	if !d.contains(m.ID) {
		d.seen.Observe(m.ID)
		d.msgs = append(d.msgs, m)
		d.rounds = append(d.rounds, round)
	}
}

// appendDeliveries appends the suffix's entries from index from on to dst
// as group g's Delivery values, with their agreed positions.
func (d *deliveryState) appendDeliveries(dst []Delivery, from int, g ids.GroupID) []Delivery {
	for i := from; i < len(d.msgs); i++ {
		dst = append(dst, Delivery{Msg: d.msgs[i], Round: d.rounds[i], Pos: d.base.Pos + uint64(i), Group: g})
	}
	return dst
}

// cutBelow returns the length of the suffix prefix whose rounds are below
// floor.
func (d *deliveryState) cutBelow(floor uint64) int {
	cut := 0
	for cut < len(d.rounds) && d.rounds[cut] < floor {
		cut++
	}
	return cut
}

// foldPrefix folds the first cut suffix entries — those of rounds below
// floor, as cutBelow computes them — into the base, which adopts app, the
// application state containing every folded message. Entries of rounds at
// or above floor keep their explicit per-round form, so a cross-group
// merge (batch or streaming) can still reconstruct their interleave; they
// move to the front of the same buffers, and the vacated tail is cleared so
// the folded payloads are released.
func (d *deliveryState) foldPrefix(app []byte, cut int, floor uint64) {
	for _, mm := range d.msgs[:cut] {
		d.base.VC.Observe(mm.ID)
	}
	d.base.Pos += uint64(cut)
	if floor > d.base.Rounds {
		d.base.Rounds = floor
	}
	d.base.App = app
	n := copy(d.msgs, d.msgs[cut:])
	clear(d.msgs[n:])
	d.msgs = d.msgs[:n]
	d.rounds = d.rounds[:copy(d.rounds, d.rounds[cut:])]
}

// adopt replaces the whole state with another process's (state transfer,
// §5.3, or checkpoint retrieval on recovery).
func (d *deliveryState) adopt(o *deliveryState) {
	d.base = o.snapshotBase()
	d.msgs = slices.Clone(o.msgs)
	d.rounds = slices.Clone(o.rounds)
	d.seen = o.seen.Clone()
}

// snapshotBase returns a copy of the base snapshot.
func (d *deliveryState) snapshotBase() Snapshot {
	return Snapshot{
		App:    d.base.App,
		VC:     d.base.VC.Clone(),
		Rounds: d.base.Rounds,
		Pos:    d.base.Pos,
	}
}

// sizeHint estimates what encode writes (exact but for the vector clock),
// so the encoder asks for its buffer once.
func (d *deliveryState) sizeHint() int {
	n := 256 + len(d.base.App)
	for _, mm := range d.msgs {
		n += 40 + len(mm.Payload) // round, identity and length varints
	}
	return n
}

// encode serializes the full state (base + suffix with rounds).
func (d *deliveryState) encode(w *wire.Writer) {
	w.Bool(d.base.App != nil)
	w.Bytes32(d.base.App)
	d.base.VC.Encode(w)
	w.U64(d.base.Rounds)
	w.U64(d.base.Pos)
	w.U64(uint64(len(d.msgs)))
	for i, mm := range d.msgs {
		w.U64(d.rounds[i])
		mm.Encode(w)
	}
}

// decodeDeliveryState reads a state written by encode; nil on corruption.
func decodeDeliveryState(r *wire.Reader) *deliveryState {
	d := newDeliveryState()
	hasApp := r.Bool()
	app := r.BytesCopy()
	if !hasApp {
		app = nil
	}
	vc := vclock.Decode(r)
	rounds := r.U64()
	pos := r.U64()
	n := r.U64()
	if r.Err() != nil || vc == nil {
		// vclock.Decode rejects malformed hole runs with a nil clock and
		// no reader error.
		return nil
	}
	d.base = Snapshot{App: app, VC: vc, Rounds: rounds, Pos: pos}
	d.seen = vc.Clone()
	for i := uint64(0); i < n; i++ {
		round := r.U64()
		m := msg.DecodeMessage(r)
		if r.Err() != nil {
			return nil
		}
		d.add(m, round) // an entry already contained is dropped
	}
	return d
}
