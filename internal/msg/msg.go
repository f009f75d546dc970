// Package msg defines application messages, their encoding and the
// Unordered set of Fig. 1. The Agreed queue is the broadcast core's
// delivered sequence (deliveryState in internal/core).
//
// Both implement the idempotent semantics the paper requires:
// "if the same message is added twice the result is the same as if it is
// added just once (since messages have unique identifiers, duplicates can be
// detected and eliminated)" (§4.1).
package msg

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Message is an application message submitted to A-broadcast. Payload is
// immutable from the moment the message exists: containers, proposals,
// deliveries and decoded copies of the message all share the one slice, and
// a decoded message's payload aliases the frame or record it was read from.
type Message struct {
	ID      ids.MsgID
	Payload []byte
}

// Equal reports whether two messages have the same identity and payload.
func (m Message) Equal(o Message) bool {
	return m.ID == o.ID && bytes.Equal(m.Payload, o.Payload)
}

// String implements fmt.Stringer.
func (m Message) String() string {
	return fmt.Sprintf("%v(%dB)", m.ID, len(m.Payload))
}

// Encode appends the message to w.
func (m Message) Encode(w *wire.Writer) {
	EncodeID(w, m.ID)
	w.Bytes32(m.Payload)
}

// DecodeMessage reads one message from r. The payload aliases r's input,
// which under the ownership rule (wire.GetWriter) is a received frame, a
// record read back from the log or a decided value: immutable and the
// decoder's to keep. Input that is none of those must be copied first.
func DecodeMessage(r *wire.Reader) Message {
	var m Message
	m.ID = DecodeID(r)
	m.Payload = r.Bytes32()
	return m
}

// EncodeID appends just a message identity to w — the unit of the
// digest-gossip wire format, which ships IDs (a few bytes) instead of
// payloads.
func EncodeID(w *wire.Writer, id ids.MsgID) {
	w.I64(int64(id.Sender))
	w.U64(uint64(id.Incarnation))
	w.U64(id.Seq)
}

// DecodeID reads one message identity from r.
func DecodeID(r *wire.Reader) ids.MsgID {
	var id ids.MsgID
	id.Sender = ids.ProcessID(r.I64())
	id.Incarnation = uint32(r.U64())
	id.Seq = r.U64()
	return id
}

// EncodeIDs encodes a count-prefixed list of message identities.
func EncodeIDs(w *wire.Writer, idList []ids.MsgID) {
	w.U64(uint64(len(idList)))
	for _, id := range idList {
		EncodeID(w, id)
	}
}

// DecodeIDs decodes a count-prefixed list of message identities.
func DecodeIDs(r *wire.Reader) []ids.MsgID {
	n := r.U64()
	if r.Err() != nil {
		return nil
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096 // n is attacker-controlled
	}
	out := make([]ids.MsgID, 0, capHint)
	for i := uint64(0); i < n; i++ {
		out = append(out, DecodeID(r))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// SortCanonical sorts ms in place by the predetermined deterministic rule
// (ascending MsgID order). Every process applies this rule to the result of
// each Consensus instance, so all processes append a decided batch to their
// Agreed queues in exactly the same order.
func SortCanonical(ms []Message) {
	slices.SortFunc(ms, func(a, b Message) int { return a.ID.Compare(b.ID) })
}

// MaxIDLen bounds the encoding of one identity (EncodeID): three varints.
const MaxIDLen = 20

// maxHeaderLen bounds what Encode writes ahead of a payload: the identity
// and the length prefix.
const maxHeaderLen = MaxIDLen + 5

// BatchSize bounds the encoding of ms by EncodeBatch, so an encoder can ask
// for its buffer once instead of growing it append by append.
func BatchSize(ms []Message) int {
	n := 10 // the count prefix, a uvarint
	for _, m := range ms {
		n += maxHeaderLen + len(m.Payload)
	}
	return n
}

// EncodeBatch encodes a slice of messages (count-prefixed).
func EncodeBatch(w *wire.Writer, ms []Message) {
	w.U64(uint64(len(ms)))
	for _, m := range ms {
		m.Encode(w)
	}
}

// DecodeBatch decodes a slice of messages; like DecodeMessage it aliases
// r's input, so the slice itself is the only allocation. It returns nil on
// corrupt input.
func DecodeBatch(r *wire.Reader) []Message { return AppendBatch(nil, r) }

// AppendBatch decodes a batch EncodeBatch wrote onto the end of dst, the
// messages aliasing r's input as DecodeMessage's do: a dst with room
// decodes without allocating. On corrupt input it returns dst as given.
func AppendBatch(dst []Message, r *wire.Reader) []Message {
	n := r.U64()
	if r.Err() != nil {
		return dst
	}
	// Room for the batch in one allocation that at least doubles dst, the
	// preallocation capped: n is attacker/disk-controlled.
	out := dst
	if want := len(dst) + int(min(n, 4096)); want > cap(dst) {
		out = make([]Message, len(dst), max(want, 2*cap(dst)))
		copy(out, dst)
	}
	for i := uint64(0); i < n; i++ {
		out = append(out, DecodeMessage(r))
		if r.Err() != nil {
			clear(out[len(dst):]) // no decoded payload pins r's input
			return dst
		}
	}
	return out
}
