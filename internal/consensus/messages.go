package consensus

import (
	"repro/internal/wire"
)

// Message kinds on the consensus channel.
const (
	mPrepare     uint8 = 1 // coordinator -> all: claim ballot b for instance k
	mPromise     uint8 = 2 // acceptor -> coordinator: promise + accepted pair
	mAccept      uint8 = 3 // coordinator -> all: accept (b, v)
	mAccepted    uint8 = 4 // acceptor -> coordinator: accepted b
	mNack        uint8 = 5 // acceptor -> coordinator: ballot refused, promised attached
	mDecide      uint8 = 6 // responder -> learner: instance k decided v
	mDecideReq   uint8 = 7 // learner -> all, or the sender of an mChosen: please resend decisions of [k, k+span]
	mForgotten   uint8 = 8 // responder -> learner: instance k was GC'd; floor attached
	mDecideMulti uint8 = 9 // responder -> learner: batched decisions for a window

	// Stable-sequencer lease (the latency fast path). A lease is a ranged
	// promise: the grant attests that the acceptor has no accepted or
	// decided state in any instance >= k (the request's fromK) and will
	// refuse ballots < b there from anyone else, letting the holder run
	// accept-phase-only rounds at ballot b. k carries fromK; b the lease
	// ballot; a nack's promised carries the conflicting ballot.
	mLeaseReq  uint8 = 10 // would-be holder -> all: grant me (fromK, b)
	mLeaseAck  uint8 = 11 // acceptor -> holder: granted (durably logged)
	mLeaseNack uint8 = 12 // acceptor -> holder: refused; conflict attached

	// The coordinator's decision names the ballot, not the value: the value
	// travelled once, in the accept at (k, b), and no two values are ever
	// sent at one (k, b), so an acceptor that accepted at b holds it.
	mChosen uint8 = 13 // coordinator -> all: instance k chosen at ballot b
)

// decideWindow is the extra window a learner asks for with every decide
// request, so one request covers instances [k, k+decideWindow]: with a
// pipelined broadcast layer several instances wait concurrently, and one
// request catching them all up saves a round-trip per instance. The
// requester, the responder's span clamp, and the decoder's reply cap all
// share this single constant.
const decideWindow = 16

// decision is one (instance, value) pair inside an mDecideMulti reply.
type decision struct {
	k   uint64
	val []byte
}

type message struct {
	kind uint8
	k    uint64 // instance
	b    uint64 // ballot
	// Promise fields: the acceptor's accepted pair, if any.
	hasAcc bool
	accB   uint64
	val    []byte // Promise: accepted value; Accept/Decide: the value
	// Nack/Forgotten: the acceptor's current promise / GC floor.
	promised uint64
	// DecideReq: how many instances past k the learner also wants (a
	// pipelined learner asks for its whole window in one request).
	span uint64
	// DecideMulti: the decided instances being returned; k is the first
	// entry's instance (so the floor check applies to a real instance).
	multi []decision
}

// encodeTo appends the message to w (a pooled writer on the send path:
// every transport layer copies synchronously, so the buffer is reusable
// the moment the send call returns).
func (m message) encodeTo(w *wire.Writer) {
	w.U8(m.kind)
	w.U64(m.k)
	w.U64(m.b)
	w.Bool(m.hasAcc)
	w.U64(m.accB)
	w.Bytes32(m.val)
	w.U64(m.promised)
	// The window fields ride only on the message kinds that use them, so
	// the hot-path ballot messages pay nothing for the learner protocol.
	switch m.kind {
	case mDecideReq:
		w.U64(m.span)
	case mDecideMulti:
		w.U64(uint64(len(m.multi)))
		for _, d := range m.multi {
			w.U64(d.k)
			w.Bytes32(d.val)
		}
	}
}

// ReadFrame reads what the simulator's oracle checks of a consensus frame:
// an accept of v at instance k and ballot b (accept).
func ReadFrame(frame []byte) (accept bool, k, b uint64, v []byte) {
	if len(frame) == 0 || frame[0] != mAccept {
		return false, 0, 0, nil
	}
	m, err := decodeMessage(frame)
	if err != nil {
		return false, 0, 0, nil
	}
	return true, m.k, m.b, m.val
}

// decodeMessage parses a received frame. Values alias it: a frame out of
// Recv is immutable and the receiver's to keep, so an accepted or decided
// value is kept as a slice of the frame it arrived in.
func decodeMessage(payload []byte) (message, error) {
	r := wire.NewReader(payload)
	var m message
	m.kind = r.U8()
	m.k = r.U64()
	m.b = r.U64()
	m.hasAcc = r.Bool()
	m.accB = r.U64()
	m.val = r.Bytes32()
	m.promised = r.U64()
	switch m.kind {
	case mDecideReq:
		m.span = r.U64()
	case mDecideMulti:
		n := r.U64()
		if r.Err() == nil && n > 0 {
			if n > decideWindow+1 {
				n = decideWindow + 1
			}
			m.multi = make([]decision, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				m.multi = append(m.multi, decision{k: r.U64(), val: r.Bytes32()})
			}
		}
	}
	return m, r.Done()
}
