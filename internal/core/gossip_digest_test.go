package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// addUnordered injects messages straight into the Unordered set, as if
// they had arrived by gossip — in particular, without ever touching the
// eager buffer (the ISSUE's "never eager-pushed" stale case).
func addUnordered(p *Protocol, ms ...msg.Message) {
	p.l.Lock()
	for _, mm := range ms {
		p.m.unordered.Add(mm)
	}
	p.l.Unlock()
}

// gossipTick runs the gossip task's periodic tick.
func (p *Protocol) gossipTick() { p.step(func(m *machine) { m.sendGossip() }) }

// readvertise delivers a digest frame again one gossip interval from now,
// as the advertiser's next tick would: a message the first sighting showed
// missing is pulled only then.
func (p *Protocol) readvertise(from ids.ProcessID, frame []byte) {
	p.step(func(m *machine) { m.receive(m.now+int64(m.cfg.GossipInterval), from, frame) })
}

// decodeFrame splits one captured core-channel frame into its subtype and
// payload reader.
func decodeFrame(t *testing.T, frame []byte) (uint8, *wire.Reader) {
	t.Helper()
	if len(frame) < 1 {
		t.Fatal("empty frame")
	}
	r := wire.NewReader(frame)
	return r.U8(), r
}

// frameIDs returns the message IDs advertised by one digest frame.
func frameIDs(t *testing.T, frame []byte) []ids.MsgID {
	t.Helper()
	sub, r := decodeFrame(t, frame)
	if sub != subDigest {
		t.Fatalf("unexpected subtype %d", sub)
	}
	r.U64() // k
	return msg.DecodeIDs(r)
}

// backlog returns n unordered messages of one sender, more than one gossip
// frame advertises when n > gossipMaxMessages.
func backlog(n int) []msg.Message {
	all := make([]msg.Message, 0, n)
	for seq := uint64(1); seq <= uint64(n); seq++ {
		all = append(all, m(1, 1, seq))
	}
	return all
}

// TestGossipRotationCoversWholeSet is the truncation-starvation
// regression: with an Unordered set larger than gossipMaxMessages,
// successive periodic ticks must rotate the window so every message —
// including the ones past the truncation point, which a fixed
// canonical-prefix cut would starve for as long as the set stays large — is
// advertised within ceil(len/max) ticks.
func TestGossipRotationCoversWholeSet(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	all := backlog(2*gossipMaxMessages + 100)
	addUnordered(p, all...)

	seen := make(map[ids.MsgID]bool)
	for tick := 0; tick < 3; tick++ {
		p.gossipTick()
	}
	for _, frame := range net.takeMulti() {
		got := frameIDs(t, frame)
		if len(got) > gossipMaxMessages {
			t.Fatalf("frame advertised %d messages, cap is %d", len(got), gossipMaxMessages)
		}
		for _, id := range got {
			seen[id] = true
		}
	}
	for _, mm := range all {
		if !seen[mm.ID] {
			t.Fatalf("message %v past the truncation point never advertised in 3 ticks", mm.ID)
		}
	}
}

// TestGossipRotationReachesPeer drives the same scenario end to end at
// the handler level: messages that were never eager-pushed sit in a's
// Unordered set past the truncation point; after enough rotated ticks,
// each relayed to a second process with the pull and the reply it draws,
// the peer holds every one of them.
func TestGossipRotationReachesPeer(t *testing.T) {
	a, netA, _ := newTestProtocol(Config{})
	b, netB, _ := newTestProtocol(Config{})
	all := backlog(2*gossipMaxMessages + 100)
	addUnordered(a, all...)

	// Both test protocols are PID 0, so each sees the other as peer 1.
	for tick := 0; tick < 3; tick++ {
		a.gossipTick()
		for _, f := range netA.takeMulti() {
			b.OnMessage(1, f)
			b.readvertise(1, f)
		}
		for _, f := range netB.takeSent() {
			a.OnMessage(1, f)
		}
		for _, f := range netA.takeSent() {
			b.OnMessage(1, f)
		}
	}
	for _, mm := range all {
		if !b.unorderedHas(mm.ID) {
			t.Fatalf("peer missing %v after rotated gossip", mm.ID)
		}
	}
}

// TestDigestGossipSendsIDsNotPayloads: the periodic frame carries the IDs
// and round number but none of the payload bytes.
func TestDigestGossipSendsIDsNotPayloads(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	big := m(1, 1, 1)
	big.Payload = make([]byte, 4096)
	addUnordered(p, big)

	p.gossipTick()
	net.mu.Lock()
	frames := append([][]byte(nil), net.multi...)
	net.mu.Unlock()
	if len(frames) != 1 {
		t.Fatalf("%d frames", len(frames))
	}
	sub, _ := decodeFrame(t, frames[0])
	if sub != subDigest {
		t.Fatalf("subtype %d, want digest", sub)
	}
	if len(frames[0]) > 64 {
		t.Fatalf("digest frame is %dB for one 4KiB message — payload leaked", len(frames[0]))
	}
	if got := frameIDs(t, frames[0]); len(got) != 1 || got[0] != big.ID {
		t.Fatalf("digest IDs = %v", got)
	}
	if st := p.Stats(); st.DigestsSent != 1 {
		t.Fatalf("DigestsSent = %d", st.DigestsSent)
	}
}

// TestOnDigestPullsOnlyMissing: a digest listing known, delivered and
// unknown messages, advertised again an interval later, triggers one pull
// naming exactly the unknown ones.
func TestOnDigestPullsOnlyMissing(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	known := m(1, 1, 1)
	delivered := m(1, 1, 2)
	missing := m(1, 1, 3)
	addUnordered(p, known)
	p.l.Lock()
	p.m.ds.appendBatch(0, []msg.Message{delivered})
	p.l.Unlock()

	w := wire.NewWriter(64)
	w.U8(subDigest)
	w.U64(0)
	msg.EncodeIDs(w, []ids.MsgID{known.ID, delivered.ID, missing.ID})
	p.OnMessage(1, w.Bytes())
	p.readvertise(1, w.Bytes())

	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.sent) != 1 || net.to[0] != 1 {
		t.Fatalf("pull sends: %d (to %v)", len(net.sent), net.to)
	}
	sub, r := decodeFrame(t, net.sent[0])
	if sub != subPull {
		t.Fatalf("subtype %d, want pull", sub)
	}
	got := msg.DecodeIDs(r)
	if len(got) != 1 || got[0] != missing.ID {
		t.Fatalf("pulled %v, want just %v", got, missing.ID)
	}
}

// TestOnDigestNoPullWhenNothingMissing: a fully known digest generates no
// traffic.
func TestOnDigestNoPullWhenNothingMissing(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	known := m(1, 1, 1)
	addUnordered(p, known)
	w := wire.NewWriter(64)
	w.U8(subDigest)
	w.U64(0)
	msg.EncodeIDs(w, []ids.MsgID{known.ID})
	p.OnMessage(1, w.Bytes())
	if net.sends() != 0 {
		t.Fatal("pull sent for fully known digest")
	}
}

// TestOnPullServesUnorderedPayloads: a pull request is answered with one
// unicast full-payload gossip frame holding the requested messages still
// in Unordered; already-ordered or unknown IDs are omitted.
func TestOnPullServesUnorderedPayloads(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	held := m(1, 1, 1)
	ordered := m(1, 1, 2)
	addUnordered(p, held)
	p.l.Lock()
	p.m.ds.appendBatch(0, []msg.Message{ordered})
	p.l.Unlock()

	w := wire.NewWriter(64)
	w.U8(subPull)
	msg.EncodeIDs(w, []ids.MsgID{held.ID, ordered.ID, m(9, 9, 9).ID})
	p.OnMessage(1, w.Bytes())

	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.sent) != 1 || net.to[0] != 1 {
		t.Fatalf("pull reply sends: %d", len(net.sent))
	}
	sub, r := decodeFrame(t, net.sent[0])
	if sub != subGossip {
		t.Fatalf("subtype %d, want gossip", sub)
	}
	r.U64() // k
	batch := msg.DecodeBatch(r)
	if len(batch) != 1 || !batch[0].Equal(held) {
		t.Fatalf("served %v, want just %v", batch, held)
	}
	if st := p.Stats(); st.PullsServed != 1 {
		t.Fatalf("PullsServed = %d", st.PullsServed)
	}
}

// TestDigestAntiEntropyRoundTrip relays the full digest → pull → payload
// exchange between two handler-level protocols: the receiver ends up
// holding every message the sender advertised, so a process that missed
// every eager push (it was down, §2.1) still converges — the recovery
// catch-up fallback.
func TestDigestAntiEntropyRoundTrip(t *testing.T) {
	a, netA, _ := newTestProtocol(Config{})
	b, netB, _ := newTestProtocol(Config{})
	var all []msg.Message
	for seq := uint64(1); seq <= 4; seq++ {
		mm := m(1, 1, seq)
		mm.Payload = []byte{byte(seq), 0xAB}
		all = append(all, mm)
	}
	addUnordered(a, all...)

	// Both test protocols are PID 0, so each sees the other as peer 1.
	// a's periodic digest reaches b...
	a.gossipTick()
	for _, f := range netA.takeMulti() {
		b.OnMessage(1, f)
		b.readvertise(1, f)
	}
	// ...b pulls what it misses from a...
	pulls := netB.takeSent()
	if len(pulls) == 0 {
		t.Fatal("no pull emitted")
	}
	for _, f := range pulls {
		a.OnMessage(1, f)
	}
	// ...and a's unicast payload reply fills b's Unordered set.
	replies := netA.takeSent()
	if len(replies) == 0 {
		t.Fatal("no pull reply emitted")
	}
	for _, f := range replies {
		b.OnMessage(1, f)
	}
	for _, mm := range all {
		if !b.unorderedHas(mm.ID) {
			t.Fatalf("receiver missing %v after anti-entropy round trip", mm.ID)
		}
	}
	if st := b.Stats(); st.PullsSent != 1 {
		t.Fatalf("PullsSent = %d", st.PullsSent)
	}
}

// TestLoggedMessageSurvivesLostEagerPush is what a digest-only periodic
// frame must never lose: p0 logs a message under BatchedBroadcast, its one
// eager push is lost, and it crashes. The recovered incarnation retrieves
// the message with nothing owed to the eager path, so the payload can reach
// p1 only as digest -> pull -> unicast full-payload reply; p1 then holds it,
// can propose it, and both deliver it.
func TestLoggedMessageSurvivesLostEagerPush(t *testing.T) {
	st := storage.NewMem()
	cfg := Config{PID: 0, N: 3, Incarnation: 1, BatchedBroadcast: true}
	first := newProto(cfg, st, &fakeNet{}) // its net delivers nothing
	id, err := first.Broadcast(context.Background(), []byte("logged, never pushed"))
	if err != nil {
		t.Fatal(err)
	}
	first.Stop() // crash: only st survives

	cfg.Incarnation = 2
	netA := &fakeNet{}
	a := newProto(cfg, st, netA)
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if !a.unorderedHas(id) || len(a.m.eagerBuf) != 0 {
		t.Fatalf("recovered: holds the message = %v, eager buffer = %d (want true, 0)", a.unorderedHas(id), len(a.m.eagerBuf))
	}
	netB := &fakeNet{}
	b := newProto(Config{PID: 1, N: 3, Incarnation: 1}, storage.NewMem(), netB)
	b.m.restored = true

	a.gossipTick()
	for _, f := range netA.takeMulti() {
		if sub, _ := decodeFrame(t, f); sub != subDigest {
			t.Fatalf("periodic frame has subtype %d, want digest", sub)
		}
		b.OnMessage(0, f)
		b.readvertise(0, f)
	}
	for _, f := range netB.takeSent() {
		a.OnMessage(1, f)
	}
	replies := netA.takeSent()
	if len(replies) != 1 || replies[0][0] != subGossip {
		t.Fatalf("pull drew %d replies, want one full-payload frame", len(replies))
	}
	b.OnMessage(0, replies[0])
	if !b.unorderedHas(id) {
		t.Fatal("p1 never received the payload")
	}

	// p1's proposal for round 0 is its Unordered set; decide it everywhere.
	w := wire.NewWriter(64)
	b.l.Lock()
	msg.EncodeBatch(w, b.m.unordered.Slice())
	b.l.Unlock()
	for _, p := range []*Protocol{a, b} {
		p.commit(0, w.Bytes())
		if !p.Delivered(id) {
			t.Fatalf("p%d did not deliver the message", p.cfg.PID)
		}
	}
}

// TestOnDigestTracksAheadRound: the round-discovery half of §4.2 works
// identically through digests.
func TestOnDigestTracksAheadRound(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	w := wire.NewWriter(16)
	w.U8(subDigest)
	w.U64(7)
	msg.EncodeIDs(w, nil)
	p.OnMessage(1, w.Bytes())
	p.l.Lock()
	gk := p.m.gossipK
	p.l.Unlock()
	if gk != 7 {
		t.Fatalf("gossipK = %d", gk)
	}
}

// TestOnDigestSendsStateWhenPeerLags: the Δ / GC-floor state-transfer
// trigger fires on digests exactly as it does on full gossip.
func TestOnDigestSendsStateWhenPeerLags(t *testing.T) {
	p, net, _ := newTestProtocol(Config{Delta: 3})
	p.l.Lock()
	p.m.k = 10
	p.l.Unlock()
	w := wire.NewWriter(16)
	w.U8(subDigest)
	w.U64(2) // peer at round 2: 10 > 2+3
	msg.EncodeIDs(w, nil)
	p.OnMessage(1, w.Bytes())
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.sent) != 1 {
		t.Fatalf("state sends = %d", len(net.sent))
	}
	if sub, _ := decodeFrame(t, net.sent[0]); sub != subState {
		t.Fatalf("subtype %d, want state", sub)
	}
}

// TestOnPullIgnoresGarbage: malformed pulls and digests have no effect.
func TestOnPullIgnoresGarbage(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	p.OnMessage(1, []byte{subPull})
	p.OnMessage(1, []byte{subPull, 0xff})
	p.OnMessage(1, []byte{subDigest})
	p.OnMessage(1, []byte{subDigest, 0xff, 0xff})
	if net.sends() != 0 {
		t.Fatal("garbage produced traffic")
	}
}

// TestDigestTickKeepsEagerBuffer: a periodic digest ships only IDs, so it
// must NOT clear the eager buffer — the payload push the buffer owes peers
// still happens (as a full-payload delta frame) once the guard window ends.
func TestDigestTickKeepsEagerBuffer(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	defer p.Stop()
	mm := m(0, 1, 1)
	var flushAt int64
	p.step(func(mc *machine) {
		mc.running = true
		mc.unordered.Add(mm)
		mc.eagerBuf = append(mc.eagerBuf, mm)
		mc.sendGossip() // digest tick: IDs only
		flushAt = mc.flushAt
	})
	if flushAt == never {
		t.Fatal("digest tick cancelled the pending eager payload push")
	}
	// The deferred eager flush (armed behind the guard window) ships the
	// payload as a full-payload frame.
	p.step(func(mc *machine) { mc.fire(flushAt) })
	for _, f := range net.takeMulti() {
		if len(f) > 0 && f[0] == subGossip {
			r := wire.NewReader(f[1:])
			r.U64() // k
			if batch := msg.DecodeBatch(r); len(batch) == 1 && batch[0].Equal(mm) {
				return
			}
		}
	}
	t.Fatal("eager payload push never happened after the digest tick")
}

// TestOnDigestPullsAtTheAdvertisersNextDigest: an advertiser digests
// once an interval on its own clock, so its next digest draws the pull
// even when the network brings it under an interval after the first;
// another peer's digest at that moment does not.
func TestOnDigestPullsAtTheAdvertisersNextDigest(t *testing.T) {
	p, net, _ := newTestProtocol(Config{GossipInterval: time.Hour})
	w := wire.NewWriter(32)
	w.U8(subDigest)
	w.U64(0)
	msg.EncodeIDs(w, []ids.MsgID{m(1, 1, 7).ID})
	early := func(from ids.ProcessID) {
		p.step(func(m *machine) { m.receive(m.now+int64(m.cfg.GossipInterval)*9/10, from, w.Bytes()) })
	}
	p.OnMessage(1, w.Bytes())
	early(2)
	if got := net.sends(); got != 0 {
		t.Fatalf("p2's digest, under an interval after p1's, drew %d pulls", got)
	}
	early(1)
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.sent) != 1 || net.to[0] != 1 {
		t.Fatalf("p1's next digest drew pulls to %v, want one to p1", net.to)
	}
}

// TestOnDigestDedupsPullsAcrossPeers: within one gossip interval, digests
// from several peers advertising the same missing message (first seen
// missing an interval before) draw exactly one pull — without the dedup,
// every advertiser would be pulled and would answer with a redundant
// full-payload reply.
func TestOnDigestDedupsPullsAcrossPeers(t *testing.T) {
	p, net, _ := newTestProtocol(Config{GossipInterval: time.Hour})
	missing := m(1, 1, 7)
	frame := func() []byte {
		w := wire.NewWriter(32)
		w.U8(subDigest)
		w.U64(0)
		msg.EncodeIDs(w, []ids.MsgID{missing.ID})
		return w.Bytes()
	}
	p.OnMessage(1, frame())
	p.readvertise(1, frame())
	p.readvertise(2, frame())
	p.readvertise(1, frame())
	if got := net.sends(); got != 1 {
		t.Fatalf("%d pulls for one missing message (want 1)", got)
	}
	if st := p.Stats(); st.PullsSent != 1 {
		t.Fatalf("PullsSent = %d", st.PullsSent)
	}
}
