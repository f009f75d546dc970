package core

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// suffixEntry is one explicitly delivered message and the Consensus round
// that ordered it.
type suffixEntry struct {
	m     msg.Message
	round uint64
}

// deliveryState is the Agreed queue generalized per §5.2: an application
// checkpoint (base) plus the messages delivered after it (suffix). With no
// checkpointing the base stays empty and the suffix is the whole queue —
// the basic protocol's Agreed. seen is §5.2's coverage clock extended to
// the whole sequence: it contains every message of base and suffix, so
// one lookup answers whether a message is already delivered, and base.VC
// stays exactly the folded prefix that snapshots carry.
type deliveryState struct {
	base   Snapshot
	suffix []suffixEntry
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
	return d.base.Pos + uint64(len(d.suffix))
}

// appendBatch applies the ⊕ rule for the batch decided by round: messages
// not yet contained are appended in canonical order. It sorts batch in
// place, so the caller hands over a batch nothing else reads (commit's is
// freshly decoded). It returns the new deliveries with their agreed
// positions.
func (d *deliveryState) appendBatch(round uint64, batch []msg.Message) []Delivery {
	msg.SortCanonical(batch)
	out := make([]Delivery, 0, len(batch))
	for _, m := range batch {
		if d.add(m, round) {
			out = append(out, Delivery{Msg: m, Round: round, Pos: d.base.Pos + uint64(len(d.suffix)) - 1})
		}
	}
	return out
}

// add appends m, ordered by round, unless the sequence already contains
// it (the ⊕ rule: a repeat, or a message the base clock covers).
func (d *deliveryState) add(m msg.Message, round uint64) bool {
	if d.contains(m.ID) {
		return false
	}
	d.seen.Observe(m.ID)
	d.suffix = append(d.suffix, suffixEntry{m: m, round: round})
	return true
}

// deliveries returns the suffix as Delivery values (for re-delivery on
// recovery and for the pull API).
func (d *deliveryState) deliveries() []Delivery {
	out := make([]Delivery, len(d.suffix))
	for i, e := range d.suffix {
		out[i] = Delivery{Msg: e.m, Round: e.round, Pos: d.base.Pos + uint64(i)}
	}
	return out
}

// suffixMessagesPrefix returns the first cut suffix messages in delivery
// order (cut as computed by cutBelow).
func (d *deliveryState) suffixMessagesPrefix(cut int) []msg.Message {
	out := make([]msg.Message, cut)
	for i := 0; i < cut; i++ {
		out[i] = d.suffix[i].m
	}
	return out
}

// cutBelow returns the length of the suffix prefix whose rounds are below
// floor.
func (d *deliveryState) cutBelow(floor uint64) int {
	cut := 0
	for cut < len(d.suffix) && d.suffix[cut].round < floor {
		cut++
	}
	return cut
}

// foldPrefix folds the first cut suffix entries — those of rounds below
// floor, as cutBelow computes them — into the base, which adopts app, the
// application state containing every folded message. Entries of rounds at
// or above floor keep their explicit per-round form, so a cross-group
// merge (batch or streaming) can still reconstruct their interleave; they
// move to the front of the same buffer, and the vacated tail is cleared so
// the folded payloads are released.
func (d *deliveryState) foldPrefix(app []byte, cut int, floor uint64) {
	for _, e := range d.suffix[:cut] {
		d.base.VC.Observe(e.m.ID)
	}
	d.base.Pos += uint64(cut)
	if floor > d.base.Rounds {
		d.base.Rounds = floor
	}
	d.base.App = app
	n := copy(d.suffix, d.suffix[cut:])
	clear(d.suffix[n:])
	d.suffix = d.suffix[:n]
}

// adopt replaces the whole state with another process's (state transfer,
// §5.3, or checkpoint retrieval on recovery).
func (d *deliveryState) adopt(o *deliveryState) {
	d.base = o.snapshotBase()
	d.suffix = slices.Clone(o.suffix)
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
	for _, e := range d.suffix {
		n += 40 + len(e.m.Payload) // round, identity and length varints
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
	w.U64(uint64(len(d.suffix)))
	for _, e := range d.suffix {
		w.U64(e.round)
		e.m.Encode(w)
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
