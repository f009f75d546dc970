package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// fakeNet records sends for handler-level tests.
type fakeNet struct {
	mu    sync.Mutex
	sent  [][]byte
	to    []ids.ProcessID
	multi [][]byte
}

func (f *fakeNet) Send(to ids.ProcessID, payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, append([]byte(nil), payload...))
	f.to = append(f.to, to)
}

func (f *fakeNet) Multisend(payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.multi = append(f.multi, append([]byte(nil), payload...))
}

func (f *fakeNet) sends() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

// takeMulti and takeSent return the frames captured since the last take,
// so a test can relay one exchange at a time between two protocols.
func (f *fakeNet) takeMulti() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.multi
	f.multi = nil
	return out
}

func (f *fakeNet) takeSent() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.sent
	f.sent, f.to = nil, nil
	return out
}

// fakeCons is a consensus stub: decisions are fed manually and reach the
// protocol through its settle upcall, as a real engine's do.
type fakeCons struct {
	mu        sync.Mutex
	proposals map[uint64][]byte
	decisions map[uint64][]byte
	floor     uint64
	settle    func(k uint64, v []byte, decided bool)
}

func newFakeCons() *fakeCons {
	return &fakeCons{
		proposals: make(map[uint64][]byte),
		decisions: make(map[uint64][]byte),
	}
}

func (f *fakeCons) Propose(k uint64, v []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.proposals[k]; !ok {
		f.proposals[k] = append([]byte(nil), v...)
	}
	return nil
}

func (f *fakeCons) WaitDecided(ctx context.Context, k uint64) ([]byte, error) {
	for {
		f.mu.Lock()
		v, ok := f.decisions[k]
		f.mu.Unlock()
		if ok {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fakeCons) DecidedLocal(k uint64) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.decisions[k]
	return v, ok
}

func (f *fakeCons) Proposal(k uint64) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.proposals[k]
	return v, ok
}

func (f *fakeCons) DiscardBelow(k uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k > f.floor {
		f.floor = k
	}
	return nil
}

func (f *fakeCons) OnSettle(fn func(k uint64, v []byte, decided bool)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.settle = fn
}

func (f *fakeCons) decide(k uint64, batch []msg.Message) {
	w := wire.NewWriter(64)
	msg.EncodeBatch(w, batch)
	f.mu.Lock()
	f.decisions[k] = w.Bytes()
	settle := f.settle
	f.mu.Unlock()
	settle(k, w.Bytes(), true)
}

// newTestProtocol builds an unstarted Protocol over fakes, recovered from
// an empty log, for direct handler testing.
func newTestProtocol(cfg Config) (*Protocol, *fakeNet, *fakeCons) {
	cfg.PID = 0
	cfg.N = 3
	cfg.Incarnation = 1
	net := &fakeNet{}
	cons := newFakeCons()
	p := New(cfg, storage.NewMem(), cons, net)
	p.m.restored = true
	return p, net, cons
}

// step runs one machine input through the adapter, as its own entry points
// do, then the upcalls it queued (an unstarted protocol has no upcall
// goroutine).
func (p *Protocol) step(in func(m *machine)) {
	p.mu.Lock()
	p.m.now = p.now()
	in(p.m)
	p.run()
	p.drainUpcalls()
}

// drainUpcalls runs the queued upcalls on the caller's goroutine: an
// unstarted protocol has no upcall goroutine.
func (p *Protocol) drainUpcalls() {
	for {
		p.mu.Lock()
		batch := p.upcalls
		p.upcalls = nil
		p.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		p.runUpcalls(batch)
	}
}

// commit has the protocol learn round k's decision.
func (p *Protocol) commit(k uint64, value []byte) {
	p.step(func(m *machine) { m.decided(m.now, k, value) })
}

func encodeGossip(k uint64, batch []msg.Message) []byte {
	w := wire.NewWriter(64)
	w.U8(subGossip)
	w.U64(k)
	msg.EncodeBatch(w, batch)
	return w.Bytes()
}

func encodeState(ks, floor uint64, ds *deliveryState) []byte {
	w := wire.NewWriter(64)
	w.U8(subState)
	w.U64(ks)
	w.U64(floor)
	ds.encode(w)
	return w.Bytes()
}

func TestOnGossipMergesUnordered(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	mm := m(1, 1, 1)
	p.OnMessage(1, encodeGossip(0, []msg.Message{mm}))
	if !p.unorderedHas(mm.ID) {
		t.Fatal("gossiped message not merged")
	}
	// Duplicate gossip is idempotent.
	p.OnMessage(1, encodeGossip(0, []msg.Message{mm}))
	if p.UnorderedLen() != 1 {
		t.Fatalf("unordered len = %d", p.UnorderedLen())
	}
}

// unorderedHas is a test accessor.
func (p *Protocol) unorderedHas(id ids.MsgID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.unordered.Contains(id)
}

func TestOnGossipSkipsDeliveredMessages(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	mm := m(1, 1, 1)
	p.mu.Lock()
	p.m.ds.appendBatch(0, []msg.Message{mm})
	p.mu.Unlock()
	p.OnMessage(1, encodeGossip(1, []msg.Message{mm}))
	if p.UnorderedLen() != 0 {
		t.Fatal("already-delivered message re-added to Unordered")
	}
}

func TestOnGossipTracksAheadRound(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	p.OnMessage(1, encodeGossip(7, nil))
	p.mu.Lock()
	gk := p.m.gossipK
	p.mu.Unlock()
	if gk != 7 {
		t.Fatalf("gossipK = %d", gk)
	}
	// A lower round does not regress it.
	p.OnMessage(2, encodeGossip(3, nil))
	p.mu.Lock()
	gk = p.m.gossipK
	p.mu.Unlock()
	if gk != 7 {
		t.Fatalf("gossipK regressed to %d", gk)
	}
}

func TestOnGossipSendsStateWhenPeerLagsBeyondDelta(t *testing.T) {
	p, net, _ := newTestProtocol(Config{Delta: 3})
	p.mu.Lock()
	p.m.k = 10
	p.mu.Unlock()
	// Peer at round 2: 10 > 2+3 — send state.
	p.OnMessage(1, encodeGossip(2, nil))
	if net.sends() != 1 {
		t.Fatalf("state sends = %d", net.sends())
	}
	if p.Stats().StateSent != 1 {
		t.Fatal("state send not counted")
	}
	// Rate limit: an immediate second gossip from the same peer does not
	// trigger another state message.
	p.OnMessage(1, encodeGossip(2, nil))
	if net.sends() != 1 {
		t.Fatalf("rate limit failed: %d sends", net.sends())
	}
}

func TestOnGossipNoStateWithinDelta(t *testing.T) {
	p, net, _ := newTestProtocol(Config{Delta: 10})
	p.mu.Lock()
	p.m.k = 5
	p.mu.Unlock()
	p.OnMessage(1, encodeGossip(2, nil)) // lag 3 <= Δ=10
	if net.sends() != 0 {
		t.Fatal("state sent within Δ")
	}
}

func TestOnGossipGCFloorForcesState(t *testing.T) {
	// Even with a huge Δ, a peer below our GC floor must get a state
	// message — it can never replay the discarded instances.
	p, net, _ := newTestProtocol(Config{Delta: 1000, CheckpointEvery: 5})
	p.mu.Lock()
	p.m.k = 12
	p.m.gcFloor = 10
	p.mu.Unlock()
	p.OnMessage(1, encodeGossip(4, nil))
	if net.sends() != 1 {
		t.Fatalf("GC-forced state not sent (sends=%d)", net.sends())
	}
}

func TestOnStateStagesAdoptionWhenBehind(t *testing.T) {
	p, _, _ := newTestProtocol(Config{Delta: 2})
	src := newDeliveryState()
	src.appendBatch(0, []msg.Message{m(1, 1, 1)})
	p.OnMessage(1, encodeState(9, 0, src)) // newK=10 > 0+2
	if p.Round() != 10 || !p.Delivered(m(1, 1, 1).ID) {
		t.Fatalf("state not adopted: round %d", p.Round())
	}
}

func TestOnStateSmallDesyncOnlyUpdatesGossipK(t *testing.T) {
	p, _, _ := newTestProtocol(Config{Delta: 10})
	src := newDeliveryState()
	p.OnMessage(1, encodeState(4, 0, src)) // newK=5 <= 0+10
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m.k != 0 {
		t.Fatal("state adopted for a small desync")
	}
	if p.m.gossipK != 5 {
		t.Fatalf("gossipK = %d", p.m.gossipK)
	}
}

func TestOnStateAdoptsWhenBelowSendersFloor(t *testing.T) {
	// newK (6) is within Δ (10), but the sender GC'd everything below 5:
	// we are at 0 < 5, so we must adopt anyway.
	p, _, _ := newTestProtocol(Config{Delta: 10})
	src := newDeliveryState()
	p.OnMessage(1, encodeState(5, 5, src))
	if p.Round() != 6 {
		t.Fatalf("GC-forced adoption: round %d, want 6", p.Round())
	}
}

// TestOnStateInterruptsSequencer: a state transfer is Fig. 3's "terminate
// task sequencer" for the whole window: the in-flight rounds are given up
// (their messages pending again, a decision held for one of them dropped)
// and the pipeline restarts from the adopted round.
func TestOnStateInterruptsSequencer(t *testing.T) {
	p, _, cons := newTestProtocol(Config{Delta: 1, PipelineDepth: 3})
	defer p.Stop()
	p.step(func(m *machine) { m.start(m.now) })
	id, _ := p.BroadcastAsync([]byte("in flight"))
	if _, ok := cons.Proposal(0); !ok {
		t.Fatal("round 0 not proposed")
	}
	cons.decide(1, nil) // held: round 0 is undecided
	p.OnMessage(1, encodeState(99, 0, newDeliveryState()))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m.k != 100 || p.m.window[1].ok {
		t.Fatalf("window not restarted: k=%d, round 1's decision held=%v", p.m.k, p.m.window[1].ok)
	}
	// The message is proposed again, from the adopted round on.
	if r, ok := p.m.inflight[id]; !p.m.unordered.Contains(id) || !ok || r != 100 {
		t.Fatalf("in-flight message: unordered=%v, round %d (%v), want round 100", p.m.unordered.Contains(id), r, ok)
	}
}

func TestOnMessageIgnoresGarbage(t *testing.T) {
	p, net, _ := newTestProtocol(Config{})
	p.OnMessage(1, nil)
	p.OnMessage(1, []byte{99})             // unknown subtype
	p.OnMessage(1, []byte{subGossip})      // truncated
	p.OnMessage(1, []byte{subState, 0xff}) // truncated
	if net.sends() != 0 || p.UnorderedLen() != 0 {
		t.Fatal("garbage had effects")
	}
}

func TestMaybeAdoptSkipsStaleTransfer(t *testing.T) {
	p, _, _ := newTestProtocol(Config{Delta: 1})
	p.mu.Lock()
	p.m.k = 50
	p.mu.Unlock()
	p.OnMessage(1, encodeState(9, 0, newDeliveryState())) // older than our round
	if p.Round() != 50 || p.Stats().StateAdopted != 0 {
		t.Fatal("stale transfer adopted")
	}
}

func TestMaybeAdoptInstallsStateAndNotifiesWaiters(t *testing.T) {
	var restored []Snapshot
	var delivered []Delivery
	p, _, cons := newTestProtocol(Config{
		Delta:     1,
		OnRestore: func(s Snapshot) { restored = append(restored, s) },
		OnDeliver: func(d Delivery) { delivered = append(delivered, d) },
	})
	mm := m(0, 1, 1) // our own broadcast, covered by the transfer
	waiter := make(chan error, 1)
	src := newDeliveryState()
	src.appendBatch(0, []msg.Message{mm})
	src.foldPrefix([]byte("app"), src.cutBelow(1), 1)
	src.appendBatch(1, []msg.Message{m(1, 1, 1)})

	p.mu.Lock()
	p.m.blocked[mm.ID] = struct{}{}
	p.waiting[mm.ID] = waiter
	p.mu.Unlock()
	p.OnMessage(1, encodeState(1, 0, src))
	p.drainUpcalls()

	select {
	case <-waiter:
	default:
		t.Fatal("waiter not notified by adoption")
	}
	if len(restored) != 1 || string(restored[0].App) != "app" {
		t.Fatalf("restore callback: %+v", restored)
	}
	if len(delivered) != 1 || delivered[0].Msg.ID != (m(1, 1, 1)).ID {
		t.Fatalf("suffix redelivery: %+v", delivered)
	}
	if p.Round() != 2 {
		t.Fatalf("round = %d", p.Round())
	}
	st := p.Stats()
	if st.StateAdopted != 1 || st.DeliveredByTransfer != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// The adoption persisted a checkpoint and discarded consensus state.
	if _, ok, _ := p.st.Get(keyCkpt); !ok {
		t.Fatal("adoption did not persist a checkpoint")
	}
	cons.mu.Lock()
	floor := cons.floor
	cons.mu.Unlock()
	if floor != 2 {
		t.Fatalf("consensus floor = %d", floor)
	}
}
