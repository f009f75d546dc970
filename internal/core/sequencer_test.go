package core

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wire"
)

// payloadFrames returns the full-payload (subGossip) frames among frames.
func payloadFrames(frames [][]byte) [][]byte {
	var out [][]byte
	for _, f := range frames {
		if len(f) > 0 && f[0] == subGossip {
			out = append(out, f)
		}
	}
	return out
}

// TestEagerPushGoesToTheSequencer: the eager push of a broadcast goes to
// the process the lease grant names, and only there; to nobody when that
// is this process (its own accept carries the value), and to every
// process without a grant.
func TestEagerPushGoesToTheSequencer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grant   bool
		named   ids.ProcessID
		unicast bool // one full-payload unicast to named; else a multisend
		none    bool // no full-payload frame at all
	}{
		{name: "other", grant: true, named: 2, unicast: true},
		{name: "self", grant: true, named: 0, none: true},
		{name: "no grant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, net, cons := newTestProtocol(Config{})
			if tc.grant {
				cons.grant(tc.named)
			}
			var id ids.MsgID
			var eager int
			p.step(func(mc *machine) {
				mc.running = true
				id, _ = mc.broadcast(mc.now, make([]byte, 4096), true)
				eager = len(mc.eagerBuf)
			})
			sent, multi := payloadFrames(net.sentFrames()), payloadFrames(net.takeMulti())
			switch {
			case tc.none:
				if len(sent)+len(multi) != 0 {
					t.Fatalf("%d unicast and %d multisend payload frames, want none", len(sent), len(multi))
				}
				if eager != 0 {
					t.Fatalf("eager buffer holds %d messages, want 0", eager)
				}
			case tc.unicast:
				if len(sent) != 1 || len(multi) != 0 {
					t.Fatalf("%d unicast and %d multisend payload frames, want one unicast", len(sent), len(multi))
				}
				if net.to[0] != tc.named {
					t.Fatalf("push went to p%d, want p%d", net.to[0], tc.named)
				}
			default:
				if len(sent) != 0 || len(multi) != 1 {
					t.Fatalf("%d unicast and %d multisend payload frames, want one multisend", len(sent), len(multi))
				}
			}
			if !p.unorderedHas(id) {
				t.Fatal("the message left Unordered")
			}
			batch := proposalBatch(t, cons, 0)
			if len(batch) != 1 || batch[0].ID != id {
				t.Fatalf("round 0 proposes %v, want %v", batch, id)
			}
		})
	}
}

// sentFrames returns a copy of the unicast frames captured since the last
// take, leaving them (and their destinations, to) in place.
func (f *fakeNet) sentFrames() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.sent...)
}

// digestOf encodes a digest of a peer at round 0 advertising list.
func digestOf(list ...ids.MsgID) []byte {
	w := wire.NewWriter(64)
	w.U8(subDigest)
	w.U64(0)
	msg.EncodeIDs(w, list)
	return w.Bytes()
}

// TestPullWaitsAnInterval: the first digest that shows a message missing
// only starts its clock; a digest less than a gossip interval later pulls
// nothing either, and the first one at least an interval later pulls it,
// once.
func TestPullWaitsAnInterval(t *testing.T) {
	p, net, _ := newTestProtocol(Config{GossipInterval: time.Hour})
	frame := digestOf(m(1, 1, 7).ID)
	interval := int64(time.Hour)
	var t0 int64
	at := func(d int64) {
		p.step(func(mc *machine) {
			if t0 == 0 {
				t0 = mc.now
			}
			mc.receive(t0+d, 1, frame)
		})
	}
	at(0)
	if n := net.sends(); n != 0 {
		t.Fatalf("first sighting sent %d frames", n)
	}
	at(interval / 2)
	if n := net.sends(); n != 0 {
		t.Fatalf("a digest half an interval later sent %d frames", n)
	}
	at(interval)
	at(interval + interval/2)
	if n := net.sends(); n != 1 {
		t.Fatalf("%d frames once the message was missing for an interval, want one pull", n)
	}
	if sub, _ := decodeFrame(t, net.sentFrames()[0]); sub != subPull {
		t.Fatalf("subtype %d, want pull", sub)
	}
}

// TestPullClockForgetsWhatArrives: the pull clock holds only messages
// still missing. A non-holder sees every message advertised before it
// has it; after 10k of them are delivered (half through a pull reply
// first), no delivered ID is left, and what is left is exactly the
// advertised messages that never came.
func TestPullClockForgetsWhatArrives(t *testing.T) {
	const rounds, per = 100, 100
	p, _, cons := newTestProtocol(Config{GossipInterval: time.Millisecond})
	cons.grant(2)
	seq := uint64(0)
	for k := range uint64(rounds) {
		batch := make([]msg.Message, per)
		adv := make([]ids.MsgID, 0, per+1)
		for i := range batch {
			seq++
			batch[i] = m(1, 1, seq)
			adv = append(adv, batch[i].ID)
		}
		adv = append(adv, m(2, 1, k+1).ID) // advertised, never arrives
		p.OnMessage(1, digestOf(adv...))
		p.OnMessage(2, encodeGossip(k, batch[:per/2]))
		w := wire.NewWriter(64)
		msg.EncodeBatch(w, batch)
		p.commit(k, w.Bytes())
	}
	p.l.Lock()
	defer p.l.Unlock()
	if got := p.m.ds.nextPos(); got != rounds*per {
		t.Fatalf("%d messages delivered, want %d", got, rounds*per)
	}
	for id := range p.m.pullClock {
		if p.m.ds.contains(id) || id.Sender != 2 {
			t.Fatalf("pull clock holds %v, which is not missing", id)
		}
	}
	if n := len(p.m.pullClock); n != rounds {
		t.Fatalf("pull clock holds %d entries, want the %d that never came", n, rounds)
	}
}
