package core

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wire"
)

// fakeShard is a scripted Shard: it reports the floors and the floor
// report a test sets, and records the upcalls and peer reports it hears.
type fakeShard struct {
	mu            sync.Mutex
	fold, discard uint64
	report        []byte
	rounds        []uint64
	skips         []uint64
	ckpts         []uint64
	peers         []ids.ProcessID
	reports       [][]byte // copies of the reports PeerFloor received
}

func newFakeShard() *fakeShard {
	return &fakeShard{fold: math.MaxUint64, discard: math.MaxUint64}
}

func (f *fakeShard) Round(k uint64, _ []Delivery) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rounds = append(f.rounds, k)
}

func (f *fakeShard) Skip(next uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.skips = append(f.skips, next)
}

func (f *fakeShard) Checkpointed(k uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ckpts = append(f.ckpts, k)
}

func (f *fakeShard) FoldFloor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fold
}

func (f *fakeShard) DiscardFloor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.discard
}

func (f *fakeShard) AppendFloor(w *wire.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.Raw(f.report)
}

func (f *fakeShard) PeerFloor(from ids.ProcessID, report []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers = append(f.peers, from)
	f.reports = append(f.reports, bytes.Clone(report))
}

// commitOne commits rounds [from, to), each delivering one message of
// sender 1.
func commitOne(p *Protocol, from, to uint64) {
	for k := from; k < to; k++ {
		p.commit(k, encodeBatch([]msg.Message{m(1, 1, k+1)}))
	}
}

// cell reads the round counter a logged cell (keyCkpt, keyGCFloor)
// records.
func cell(t *testing.T, p *Protocol, key string) uint64 {
	t.Helper()
	v, ok, _ := p.l.Store().Get(key)
	if !ok {
		t.Fatalf("no %s cell", key)
	}
	return wire.NewReader(v).U64()
}

// TestCheckpointFoldsBelowShardFoldFloor: a checkpoint folds only rounds
// below min(k, FoldFloor()); the rounds at and above the floor keep their
// per-round deliveries, and a floor past k folds everything delivered.
func TestCheckpointFoldsBelowShardFoldFloor(t *testing.T) {
	sh := newFakeShard()
	sh.fold = 2
	p, _, cons := newTestProtocol(Config{Checkpointer: &recordingCheckpointer{}, Shard: sh})
	commitOne(p, 0, 4)
	if !slices.Equal(sh.rounds, []uint64{0, 1, 2, 3}) {
		t.Fatalf("Round heard %v, want rounds 0-3", sh.rounds)
	}
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	base, suffix := p.Sequence()
	if base.Rounds != 2 || base.Pos != 2 || len(suffix) != 2 || suffix[0].Round != 2 {
		t.Fatalf("fold under floor 2: base %+v, suffix %+v", base, suffix)
	}
	// The fold floor bounds the fold alone: the discard goes to k.
	cons.mu.Lock()
	floor := cons.floor
	cons.mu.Unlock()
	if floor != 4 || cell(t, p, keyCkpt) != 4 {
		t.Fatalf("consensus floor %d, checkpoint cell %d; want 4 and 4", floor, cell(t, p, keyCkpt))
	}

	sh.mu.Lock()
	sh.fold = 100
	sh.mu.Unlock()
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if base, suffix := p.Sequence(); base.Rounds != 4 || base.Pos != 4 || len(suffix) != 0 {
		t.Fatalf("fold under floor 100 at k=4: base %+v, suffix %d", base, len(suffix))
	}
}

// TestCheckpointDiscardsBelowShardDiscardFloor: a checkpoint discards
// consensus state and raises the GC floor only below
// min(k, DiscardFloor()), while its cell records k and Checkpointed hears
// k.
func TestCheckpointDiscardsBelowShardDiscardFloor(t *testing.T) {
	sh := newFakeShard()
	sh.discard = 1
	p, _, cons := newTestProtocol(Config{Shard: sh})
	commitOne(p, 0, 3)
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	p.drainUpcalls()
	cons.mu.Lock()
	floor := cons.floor
	cons.mu.Unlock()
	if floor != 1 || cell(t, p, keyGCFloor) != 1 || p.m.gcFloor != 1 {
		t.Fatalf("discard under floor 1: consensus %d, cell %d, machine %d", floor, cell(t, p, keyGCFloor), p.m.gcFloor)
	}
	if cell(t, p, keyCkpt) != 3 || !slices.Equal(sh.ckpts, []uint64{3}) {
		t.Fatalf("checkpoint cell %d, Checkpointed heard %v; want 3 and [3]", cell(t, p, keyCkpt), sh.ckpts)
	}

	sh.mu.Lock()
	sh.discard = 100
	sh.mu.Unlock()
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cons.mu.Lock()
	floor = cons.floor
	cons.mu.Unlock()
	if floor != 3 || cell(t, p, keyGCFloor) != 3 {
		t.Fatalf("discard under floor 100 at k=3: consensus %d, cell %d", floor, cell(t, p, keyGCFloor))
	}
}

// TestShardCheckpointedOnAdoption: a state adoption logs the adopted
// state as a checkpoint; once durable, Checkpointed hears the adopted
// counter, after Skip reported the jump.
func TestShardCheckpointedOnAdoption(t *testing.T) {
	sh := newFakeShard()
	p, _, _ := newTestProtocol(Config{Delta: 1, Shard: sh})
	src := newDeliveryState()
	src.appendBatch(0, []msg.Message{m(1, 1, 1)})
	p.OnMessage(1, encodeState(9, 0, src))
	p.drainUpcalls()
	if p.Round() != 10 || !slices.Equal(sh.skips, []uint64{10}) || !slices.Equal(sh.ckpts, []uint64{10}) {
		t.Fatalf("round %d, Skip heard %v, Checkpointed %v; want 10, [10], [10]", p.Round(), sh.skips, sh.ckpts)
	}
	if len(sh.rounds) != 0 {
		t.Fatalf("Round heard %v for rounds the adoption skipped", sh.rounds)
	}
}

// TestShardCheckpointedOnceAtRecovery: an incarnation that restores a
// checkpoint reports its counter to Checkpointed once, with the skip.
func TestShardCheckpointedOnceAtRecovery(t *testing.T) {
	prev, _, _ := newTestProtocol(Config{})
	commitOne(prev, 0, 5)
	if err := prev.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	sh := newFakeShard()
	p := newProto(Config{PID: 0, N: 3, Incarnation: 2, Shard: sh}, prev.l.Store(), &fakeNet{})
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	p.drainUpcalls()
	if !slices.Equal(sh.ckpts, []uint64{5}) || !slices.Equal(sh.skips, []uint64{5}) {
		t.Fatalf("recovery: Checkpointed heard %v, Skip %v; want [5] and [5]", sh.ckpts, sh.skips)
	}
}

// TestPeerFloorReachesShardUnchanged: the bytes after a floor frame's tag
// reach the Shard as they came, with the sender; the machine never sees
// the frame, and a protocol without a Shard drops it.
func TestPeerFloorReachesShardUnchanged(t *testing.T) {
	report := []byte{subGossip, 0xff, 0, 7, subState}
	frame := append([]byte{subFloor}, report...)

	sh := newFakeShard()
	p, net, _ := newTestProtocol(Config{Shard: sh})
	p.OnMessage(2, frame)
	if !slices.Equal(sh.peers, []ids.ProcessID{2}) || len(sh.reports) != 1 || !bytes.Equal(sh.reports[0], report) {
		t.Fatalf("PeerFloor heard %v: %x; want p2: %x", sh.peers, sh.reports, report)
	}
	if net.sends() != 0 || p.Stats().GossipReceived != 0 {
		t.Fatal("the machine handled a floor frame")
	}

	bare, net, _ := newTestProtocol(Config{})
	bare.OnMessage(2, frame)
	if net.sends() != 0 || bare.Stats().GossipReceived != 0 {
		t.Fatal("a floor frame had effects without a Shard")
	}
}

// TestShardFloorReportRidesTheGossip: each gossip tick multisends one
// floor frame, the tag and the Shard's report, beside its digest; a Shard
// that appends nothing sends no floor frame.
func TestShardFloorReportRidesTheGossip(t *testing.T) {
	floors := func(report []byte) [][]byte {
		sh := newFakeShard()
		sh.report = report
		p, net, _ := newTestProtocol(Config{Shard: sh})
		p.step(func(m *machine) { m.sendGossip() })
		var out [][]byte
		digests := 0
		for _, f := range net.takeMulti() {
			switch f[0] {
			case subFloor:
				out = append(out, f[1:])
			case subDigest:
				digests++
			}
		}
		if digests != 1 {
			t.Fatalf("%d digests in a gossip tick, want 1", digests)
		}
		return out
	}
	if got := floors([]byte("report")); len(got) != 1 || string(got[0]) != "report" {
		t.Fatalf("floor frames %q, want one carrying %q", got, "report")
	}
	if got := floors(nil); len(got) != 0 {
		t.Fatalf("a Shard that appends nothing sent floor frames %q", got)
	}
}
