package core

import (
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Core-channel message subtypes.
const (
	subGossip uint8 = 1 // gossip(k_p, messages) — full payloads: eager push, pull reply
	subState  uint8 = 2 // state(k_p - 1, Agreed_p)
	subDigest uint8 = 3 // gossip(k_p, IDs of Unordered_p) — the periodic frame
	subPull   uint8 = 4 // pull(IDs): please send these messages' payloads
	subFloor  uint8 = 5 // floor(merge frontier, topology epoch, topology) — cluster GC floor
)

// gossipTask periodically multisends gossip(k_p, Unordered_p): it
// disseminates data messages so every good process eventually proposes
// them, and lets a process that was down discover the most up-to-date round
// (§4.2).
func (p *Protocol) gossipTask() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.GossipInterval)
	defer ticker.Stop()
	p.sendGossip()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-ticker.C:
			p.sendGossip()
		}
	}
}

// sendGossip emits one periodic gossip frame: (k_p, message IDs) — a few
// bytes per unordered message instead of its payload; receivers pull only
// what they miss (see onDigest). The round-discovery half of gossip (§4.2 —
// "discover the most up-to-date round") rides k_p, and a process that
// missed the eager push gets the payload through the pull exchange: the IDs
// do the repeating, and a payload crosses a link again only after a loss.
//
// When the Unordered set exceeds gossipMaxMessages the window ROTATES
// across ticks (gossipCursor): a fixed canonical-prefix truncation would
// starve every message past the cut for as long as the set stays large —
// fairness needs repetition of *all* of Unordered, not its head.
func (p *Protocol) sendGossip() {
	p.mu.Lock()
	p.lastGossip = time.Now()
	k := p.k
	snap := p.unordered.Slice()
	batch := snap
	if len(snap) > gossipMaxMessages {
		start := p.gossipCursor % len(snap)
		batch = make([]msg.Message, 0, gossipMaxMessages)
		for i := 0; i < gossipMaxMessages; i++ {
			batch = append(batch, snap[(start+i)%len(snap)])
		}
		p.gossipCursor = (start + gossipMaxMessages) % len(snap)
	} else {
		p.gossipCursor = 0
	}
	// The frame advertises IDs only, so it never covers the eager buffer:
	// the delta path still owes peers the payload push.
	pending := len(p.eagerBuf) > 0
	p.met.gossipSent.Inc()
	p.met.digestsSent.Inc()
	p.mu.Unlock()

	p.digestFrame(k, batch)
	if fs := p.cfg.FloorSelf; fs != nil {
		// Piggyback the merge-floor frame on the periodic gossip cadence:
		// peers fold it into their cluster-floor view (group.FloorTracker),
		// and the attached topology epoch lets a process whose state
		// transfer skipped the reshard marker rounds resync its topology.
		floor, epoch, topo := fs()
		w := wire.GetWriter(32 + len(topo))
		w.U8(subFloor)
		w.U64(floor)
		w.U64(epoch)
		w.Bytes32(topo)
		p.net.Multisend(w.Bytes())
		wire.PutWriter(w)
	}
	if pending {
		p.eagerGossip() // arms a deferred flush for the kept buffer
	}
}

// gossipFrame encodes one gossip(k, batch) full-payload frame — the shared
// wire format of the eager and pull-reply paths — and multisends it
// (to == ids.Nobody) or sends it to one peer.
func (p *Protocol) gossipFrame(k uint64, batch []msg.Message, to ids.ProcessID) {
	w := wire.GetWriter(16 + msg.BatchSize(batch))
	w.U8(subGossip)
	w.U64(k)
	msg.EncodeBatch(w, batch)
	p.sendFrame(w, to)
}

// sendFrame multisends an encoded frame (to == ids.Nobody) or sends it to
// one peer, and releases its writer: the net borrows the bytes for the call.
func (p *Protocol) sendFrame(w *wire.Writer, to ids.ProcessID) {
	if to == ids.Nobody {
		p.net.Multisend(w.Bytes())
	} else {
		p.net.Send(to, w.Bytes())
	}
	wire.PutWriter(w)
}

// pullFrame encodes one pull(IDs) request and sends it like sendFrame.
func (p *Protocol) pullFrame(idList []ids.MsgID, to ids.ProcessID) {
	w := wire.GetWriter(16 + msg.MaxIDLen*len(idList))
	w.U8(subPull)
	msg.EncodeIDs(w, idList)
	p.sendFrame(w, to)
}

// digestFrame encodes and multisends one digest(k, IDs) frame.
func (p *Protocol) digestFrame(k uint64, batch []msg.Message) {
	w := wire.GetWriter(32 + msg.MaxIDLen*len(batch))
	w.U8(subDigest)
	w.U64(k)
	w.U64(uint64(len(batch)))
	for _, m := range batch {
		msg.EncodeID(w, m.ID)
	}
	p.sendFrame(w, ids.Nobody)
}

// eagerGossip pushes messages added since the last flush right after a
// local A-broadcast, so they reach the other sequencers without waiting
// for the next periodic tick. Unlike the periodic task it sends only the
// delta — re-sending the whole Unordered set per broadcast would make the
// hot path quadratic under load; repetition (which fairness needs) is the
// periodic task's job. It ships full payloads: the delta is exactly the
// data peers cannot have yet, so an ID-only frame would only add a pull
// round-trip. A tiny guard coalesces very tight submission loops (it must
// stay well under the gossip interval, or it phase-locks onto the periodic
// ticker and every broadcast waits a full tick); messages skipped by the
// guard stay buffered for the next flush.
func (p *Protocol) eagerGossip() {
	p.mu.Lock()
	if len(p.eagerBuf) == 0 {
		p.mu.Unlock()
		return
	}
	guard := p.cfg.GossipInterval / 128
	if since := time.Since(p.lastGossip); since < guard {
		// Coalesce: arm a one-shot flush for when the guard expires, so
		// buffered messages never wait for the full periodic tick (the
		// submitters may all be blocked on them).
		if !p.flushArmed {
			p.flushArmed = true
			time.AfterFunc(guard-since, func() {
				p.mu.Lock()
				p.flushArmed = false
				stopped := p.stopped
				p.mu.Unlock()
				if !stopped {
					p.eagerGossip()
				}
			})
		}
		p.mu.Unlock()
		return
	}
	batch := p.eagerBuf
	if len(batch) > gossipMaxMessages {
		p.eagerBuf = batch[gossipMaxMessages:]
		batch = batch[:gossipMaxMessages]
	} else {
		p.eagerBuf = nil
	}
	remainder := len(p.eagerBuf) > 0
	k := p.k
	p.lastGossip = time.Now()
	p.met.gossipSent.Inc()
	p.mu.Unlock()

	p.gossipFrame(k, batch, ids.Nobody)
	if remainder {
		p.eagerGossip() // arms a deferred flush for the truncated tail
	}
}

// OnMessage is the router handler for the core channel.
func (p *Protocol) OnMessage(from ids.ProcessID, payload []byte) {
	if len(payload) < 1 {
		return
	}
	r := wire.NewReader(payload)
	switch r.U8() {
	case subGossip:
		p.onGossip(from, r)
	case subState:
		p.onState(from, r)
	case subDigest:
		p.onDigest(from, r)
	case subPull:
		p.onPull(from, r)
	case subFloor:
		p.onFloor(from, r)
	}
}

// onFloor handles a peer's merge-floor frame (cluster-wide GC floor lane).
func (p *Protocol) onFloor(from ids.ProcessID, r *wire.Reader) {
	floor := r.U64()
	epoch := r.U64()
	topo := r.BytesCopy()
	if r.Err() != nil {
		return
	}
	if cb := p.cfg.OnPeerFloor; cb != nil {
		cb(from, floor, epoch, topo)
	}
}

// noteRoundLocked implements the round-comparison half of "upon receive
// gossip(k_q, U_q)" shared by the full-payload and digest paths: remember
// a more up-to-date round, or ship state to a peer that lagged beyond Δ or
// fell under our GC floor. It returns the encoded state message to send
// (nil if none) — the caller transmits it outside the lock. p.mu held.
func (p *Protocol) noteRoundLocked(from ids.ProcessID, kq uint64) (sendState []byte) {
	lagging := p.cfg.Delta > 0 && p.k > kq+p.cfg.Delta
	// A peer below our GC floor can never learn those rounds through
	// Consensus again (we discarded them, Fig. 4 line (c)); only a state
	// transfer can unblock it, whatever Δ says. This closes a liveness
	// hole the paper leaves implicit in the tuning of Δ.
	gcForced := kq < p.gcFloor
	switch {
	case kq > p.k:
		// q is ahead: remember the most up-to-date round.
		if kq > p.gossipK {
			p.gossipK = kq
		}
	case from != p.cfg.PID && (lagging || gcForced):
		// q lagged behind: ship it our state (rate-limited per
		// destination to avoid flooding a recovering process).
		now := time.Now()
		if now.Sub(p.lastStateTo[from]) >= 2*p.cfg.GossipInterval {
			p.lastStateTo[from] = now
			w := wire.NewWriter(p.ds.sizeHint())
			w.U8(subState)
			w.U64(p.k - 1)
			w.U64(p.gcFloor)
			p.ds.encode(w)
			sendState = w.Bytes()
			p.met.stateSent.Inc()
			cause := "peer lagging"
			if gcForced {
				// The transfer is forced by our GC floor, not by Δ: the
				// cluster-wide merge floor exists to make this rare (a
				// recovering process should find its rounds still live).
				p.met.stateSentGCForced.Inc()
				cause = "peer below gc floor"
			}
			p.fl.Event(obs.EvStateSent, p.cfg.Group, p.k, int64(from), int64(kq), cause)
		}
	}
	return sendState
}

// onGossip merges the sender's Unordered set and compares round numbers
// ("upon receive gossip(k_q, U_q)", Fig. 2 / Fig. 3 line (d)).
func (p *Protocol) onGossip(from ids.ProcessID, r *wire.Reader) {
	kq := r.U64()
	batch := msg.DecodeBatch(r)
	if r.Err() != nil {
		return
	}

	p.mu.Lock()
	p.met.gossipReceived.Inc()
	added := 0
	for _, m := range batch {
		if p.drained || p.ds.contains(m.ID) {
			// Drained: the sealed sequence is complete; gossiped leftovers
			// are orphans the resharding layer re-injects elsewhere, and
			// re-admitting them here would bounce them between peers forever.
			continue
		}
		if p.unordered.Add(m) {
			added++
			// A payload we had asked for by ID arrived: stamp the repair
			// hop so pull latency shows up in the trace plane.
			if _, pulled := p.lastPull[m.ID]; pulled {
				p.tr.Mark(m.ID, obs.StPullRepair)
			}
		}
	}
	if added > 0 {
		p.notePendingLocked()
	}
	sendState := p.noteRoundLocked(from, kq)
	wakeNeeded := added > 0 || kq > p.k
	p.mu.Unlock()

	if wakeNeeded {
		p.poke()
	}
	if sendState != nil {
		p.net.Send(from, sendState)
	}
}

// onDigest handles an ID-only gossip frame: the round comparison is
// identical to onGossip, and for every advertised message this process
// neither holds nor has delivered it sends one pull request back — the
// payloads then arrive as a unicast full-payload gossip frame (onPull).
// This is the anti-entropy loop: steady-state bandwidth is O(|Unordered|)
// IDs, and a process that missed the eager push (loss, or it was down)
// recovers exactly the payloads it misses.
func (p *Protocol) onDigest(from ids.ProcessID, r *wire.Reader) {
	kq := r.U64()
	idList := msg.DecodeIDs(r)
	if r.Err() != nil {
		return
	}

	p.mu.Lock()
	p.met.gossipReceived.Inc()
	now := time.Now()
	var missing []ids.MsgID
	for _, id := range idList {
		if p.drained || p.unordered.Contains(id) || p.ds.contains(id) {
			continue // drained: no pulls — the sealed sequence needs nothing
		}
		// Pull dedup: every peer advertises the same backlog within one
		// interval, so without it one missing message would draw a pull
		// to each of the N-1 senders and N-1 full-payload replies. One
		// pull per message per interval bounds the repair traffic; if
		// the reply is lost, the next interval's digests retry.
		if t, ok := p.lastPull[id]; ok && now.Sub(t) < p.cfg.GossipInterval {
			continue
		}
		p.lastPull[id] = now
		missing = append(missing, id)
	}
	if len(p.lastPull) > 8192 {
		for id, t := range p.lastPull {
			if now.Sub(t) >= p.cfg.GossipInterval {
				delete(p.lastPull, id)
			}
		}
	}
	sendState := p.noteRoundLocked(from, kq)
	if len(missing) > 0 {
		p.met.pullsSent.Inc()
	}
	wakeNeeded := kq > p.k
	p.mu.Unlock()

	if wakeNeeded {
		p.poke()
	}
	if len(missing) > 0 && from != p.cfg.PID {
		p.pullFrame(missing, from)
	}
	if sendState != nil {
		p.net.Send(from, sendState)
	}
}

// onPull serves a pull request: the requested messages still in Unordered
// go back as one unicast full-payload gossip frame (the digest protocol's
// payload fallback). Messages already ordered here are omitted — the
// requester learns them through Consensus or a state transfer, never as
// unordered payloads it might re-propose.
func (p *Protocol) onPull(from ids.ProcessID, r *wire.Reader) {
	idList := msg.DecodeIDs(r)
	if r.Err() != nil || len(idList) == 0 || from == p.cfg.PID {
		return
	}

	p.mu.Lock()
	batch := make([]msg.Message, 0, len(idList))
	for _, id := range idList {
		if len(batch) >= gossipMaxMessages {
			break // the next digest tick re-advertises the rest
		}
		if m, ok := p.unordered.Get(id); ok {
			batch = append(batch, m)
		}
	}
	k := p.k
	if len(batch) > 0 {
		p.met.pullsServed.Inc()
	}
	p.mu.Unlock()

	if len(batch) > 0 {
		p.gossipFrame(k, batch, from)
	}
}

// onState handles a state message ("upon receive state(k_q, A_q)"): if this
// process is seriously late it adopts the state and skips the missed
// Consensus instances; otherwise it just notes the newer round.
func (p *Protocol) onState(from ids.ProcessID, r *wire.Reader) {
	ks := r.U64()
	floor := r.U64()
	ds := decodeDeliveryState(r)
	if ds == nil || r.Err() != nil {
		return
	}
	newK := ks + 1

	p.mu.Lock()
	// Adopt when seriously behind (the paper's Δ rule) or when the
	// sender garbage-collected rounds we still need (we could otherwise
	// never terminate them through Consensus).
	if (p.cfg.Delta > 0 && newK > p.k+p.cfg.Delta) || (p.k < floor && newK > p.k) {
		// Seriously behind: stage the adoption and interrupt every
		// in-flight decision wait (Fig. 3 line (e)); the pipeline
		// restarts from the adopted state (line (f)).
		if p.pending == nil || newK > p.pendingK {
			p.pending = ds
			p.pendingK = newK
		}
		p.interruptInflightLocked()
	} else {
		// Small de-synchronization: treat like gossip.
		if newK > p.gossipK {
			p.gossipK = newK
		}
	}
	p.mu.Unlock()
	p.poke()
}
