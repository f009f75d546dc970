package core

import (
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/loop"
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

// fakeCons is a consensus box run in-step on the protocol's loop:
// decisions are fed manually and reach the protocol through Settle, as a
// real engine's do. Its mutex serves the test goroutine's reads.
type fakeCons struct {
	l         *loop.Loop
	mu        sync.Mutex
	proposals map[uint64][]byte
	decisions map[uint64][]byte
	floor     uint64
	logged    uint64        // Logged: the replay waits for the rounds below it
	settled   []uint64      // decided, not yet handed out by Settle
	named     ids.ProcessID // the lease grant's holder, when granted
	granted   bool
}

func newFakeCons(l *loop.Loop) *fakeCons {
	return &fakeCons{
		l:         l,
		proposals: make(map[uint64][]byte),
		decisions: make(map[uint64][]byte),
	}
}

func (f *fakeCons) Propose(k uint64, v []byte, _ int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.proposals[k]; !ok {
		f.proposals[k] = append([]byte(nil), v...)
	}
	return nil
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

func (f *fakeCons) Forgot(k uint64) bool { return false }

func (f *fakeCons) Logged() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logged
}

func (f *fakeCons) Sequencer() (ids.ProcessID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.named, f.granted
}

// grant has the box name q as the sequencer, as a lease grant does.
func (f *fakeCons) grant(q ids.ProcessID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.named, f.granted = q, true
}

func (f *fakeCons) DiscardBelow(k uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.floor = max(f.floor, k)
}

func (f *fakeCons) Settle() (uint64, []byte, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.settled) == 0 {
		return 0, nil, false, false
	}
	k := f.settled[0]
	f.settled = f.settled[1:]
	return k, f.decisions[k], true, true
}

// decide has consensus decide round k, as one step of the protocol's loop.
func (f *fakeCons) decide(k uint64, batch []msg.Message) {
	w := wire.NewWriter(64)
	msg.EncodeBatch(w, batch)
	if !f.l.Enter() {
		return
	}
	f.mu.Lock()
	f.decisions[k] = w.Bytes()
	f.settled = append(f.settled, k)
	f.mu.Unlock()
	f.l.Exit()
}

// newProto builds a Protocol over a fake consensus box on a loop of its
// own over st.
func newProto(cfg Config, st storage.Stable, net *fakeNet) *Protocol {
	l := loop.New(st)
	return New(cfg, l, newFakeCons(l), net)
}

// newTestProtocol builds an unstarted Protocol over fakes, recovered from
// an empty log, for direct handler testing.
func newTestProtocol(cfg Config) (*Protocol, *fakeNet, *fakeCons) {
	cfg.PID = 0
	cfg.N = 3
	cfg.Incarnation = 1
	net := &fakeNet{}
	p := newProto(cfg, storage.NewMem(), net)
	p.m.restored = true
	return p, net, p.cons.(*fakeCons)
}

// step runs one machine input through the adapter, as its own entry points
// do, then the upcalls it queued (an unstarted protocol has no upcall
// goroutine).
func (p *Protocol) step(in func(m *machine)) {
	p.l.Lock()
	p.m.now = p.l.Now()
	in(p.m)
	p.l.Exit()
	p.drainUpcalls()
}

// drainUpcalls runs the queued upcalls on the caller's goroutine: an
// unstarted protocol has no upcall goroutine.
func (p *Protocol) drainUpcalls() {
	for {
		p.l.Lock()
		p.TakeUpcalls()
		p.l.Unlock()
		if len(p.batch) == 0 {
			return
		}
		p.RunUpcalls()
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
	p.l.Lock()
	defer p.l.Unlock()
	return p.m.unordered.Contains(id)
}

func TestOnGossipSkipsDeliveredMessages(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	mm := m(1, 1, 1)
	p.l.Lock()
	p.m.ds.appendBatch(0, []msg.Message{mm})
	p.l.Unlock()
	p.OnMessage(1, encodeGossip(1, []msg.Message{mm}))
	if p.UnorderedLen() != 0 {
		t.Fatal("already-delivered message re-added to Unordered")
	}
}

func TestOnGossipTracksAheadRound(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	p.OnMessage(1, encodeGossip(7, nil))
	p.l.Lock()
	gk := p.m.gossipK
	p.l.Unlock()
	if gk != 7 {
		t.Fatalf("gossipK = %d", gk)
	}
	// A lower round does not regress it.
	p.OnMessage(2, encodeGossip(3, nil))
	p.l.Lock()
	gk = p.m.gossipK
	p.l.Unlock()
	if gk != 7 {
		t.Fatalf("gossipK regressed to %d", gk)
	}
}

func TestOnGossipSendsStateWhenPeerLagsBeyondDelta(t *testing.T) {
	p, net, _ := newTestProtocol(Config{Delta: 3})
	p.l.Lock()
	p.m.k = 10
	p.l.Unlock()
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
	p.l.Lock()
	p.m.k = 5
	p.l.Unlock()
	p.OnMessage(1, encodeGossip(2, nil)) // lag 3 <= Δ=10
	if net.sends() != 0 {
		t.Fatal("state sent within Δ")
	}
}

func TestOnGossipGCFloorForcesState(t *testing.T) {
	// Even with a huge Δ, a peer below our GC floor must get a state
	// message — it can never replay the discarded instances.
	p, net, _ := newTestProtocol(Config{Delta: 1000, CheckpointEvery: 5})
	p.l.Lock()
	p.m.k = 12
	p.m.gcFloor = 10
	p.l.Unlock()
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
	p.l.Lock()
	defer p.l.Unlock()
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
	p.l.Lock()
	defer p.l.Unlock()
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
	p.l.Lock()
	p.m.k = 50
	p.l.Unlock()
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

	p.l.Lock()
	p.m.blocked[mm.ID] = struct{}{}
	p.waiting[mm.ID] = waiter
	p.l.Unlock()
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
	if _, ok, _ := p.l.Store().Get(keyCkpt); !ok {
		t.Fatal("adoption did not persist a checkpoint")
	}
	cons.mu.Lock()
	floor := cons.floor
	cons.mu.Unlock()
	if floor != 2 {
		t.Fatalf("consensus floor = %d", floor)
	}
}
