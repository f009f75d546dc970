package core

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/storage"
	"repro/internal/testenv"
	"repro/internal/wire"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.GossipInterval <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestBroadcastAssignsMonotoneIDs(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	id1, err := p.BroadcastAsync([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := p.BroadcastAsync([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if id1.Sender != 0 || id1.Incarnation != 1 || id1.Seq != 1 {
		t.Fatalf("id1 = %v", id1)
	}
	if id2.Seq != 2 {
		t.Fatalf("id2 = %v", id2)
	}
	if p.Stats().Broadcasts != 2 {
		t.Fatal("broadcasts not counted")
	}
}

func TestBroadcastCopiesPayload(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	buf := []byte("mutable")
	id, _ := p.BroadcastAsync(buf)
	buf[0] = 'X'
	p.l.Lock()
	defer p.l.Unlock()
	for _, mm := range p.m.unordered.Slice() {
		if mm.ID == id && string(mm.Payload) != "mutable" {
			t.Fatal("payload aliased caller buffer")
		}
	}
}

func TestBroadcastAfterStopFails(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	p.Stop()
	if _, err := p.BroadcastAsync([]byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

// TestBlockingBroadcastBeforeStartIsRefused: the node publishes an
// incarnation before its protocol has started, so a caller can reach the
// blocking Broadcast first. It waits on the incarnation's context, which
// Start makes: refused with ErrStopped and nothing admitted (it used to
// dereference the nil context and take the process down).
func TestBlockingBroadcastBeforeStartIsRefused(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	if _, err := p.Broadcast(context.Background(), []byte("early")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if n := p.UnorderedLen(); n != 0 {
		t.Fatalf("a refused broadcast left %d messages in Unordered", n)
	}
}

func TestBatchedBroadcastLogsBeforeReturn(t *testing.T) {
	p, _, _ := newTestProtocol(Config{BatchedBroadcast: true})
	ctx := context.Background()
	if _, err := p.Broadcast(ctx, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// The Unordered cell must already be on stable storage.
	raw, ok, err := p.l.Store().Get(keyUnord)
	if err != nil || !ok {
		t.Fatalf("unordered cell missing: %v %v", ok, err)
	}
	r := wire.NewReader(raw)
	set := msg.DecodeSet(r)
	if set.Len() != 1 {
		t.Fatalf("logged set len = %d", set.Len())
	}
}

func TestBatchedIncrementalBroadcastAppendsRecord(t *testing.T) {
	p, _, _ := newTestProtocol(Config{BatchedBroadcast: true, IncrementalLog: true})
	for i := 0; i < 3; i++ {
		if _, err := p.Broadcast(context.Background(), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := p.l.Store().Records(keyUnordLog)
	if err != nil || len(recs) != 3 {
		t.Fatalf("incremental records = %d (%v)", len(recs), err)
	}
}

func TestRecoverUnorderedMergesCellAndLog(t *testing.T) {
	st := storage.NewMem()
	// Simulate a previous incarnation: full cell with one message plus
	// two incremental records (one duplicated, one torn).
	mkMsg := func(seq uint64) msg.Message {
		return msg.Message{
			ID:      ids.MsgID{Sender: 0, Incarnation: 1, Seq: seq},
			Payload: []byte{byte(seq)},
		}
	}
	w := wire.NewWriter(0)
	set := msg.NewSet()
	set.Add(mkMsg(1))
	set.Encode(w)
	st.Put(keyUnord, w.Bytes())

	w2 := wire.NewWriter(0)
	mkMsg(2).Encode(w2)
	st.Append(keyUnordLog, w2.Bytes())
	w3 := wire.NewWriter(0)
	mkMsg(1).Encode(w3) // duplicate of the cell entry
	st.Append(keyUnordLog, w3.Bytes())
	st.Append(keyUnordLog, []byte{0xff}) // torn record

	cfg := Config{PID: 0, N: 3, Incarnation: 2, BatchedBroadcast: true}
	p := newProto(cfg, st, &fakeNet{})
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	if p.UnorderedLen() != 2 {
		t.Fatalf("recovered %d messages, want 2", p.UnorderedLen())
	}
	if p.Stats().RecoveredUnordered != 2 {
		t.Fatalf("stats: %+v", p.Stats())
	}
}

func TestCommitNotifiesWaitersAndSubtractsUnordered(t *testing.T) {
	var delivered []Delivery
	p, _, _ := newTestProtocol(Config{
		OnDeliver: func(d Delivery) { delivered = append(delivered, d) },
	})
	mm := m(0, 1, 1)
	ch := make(chan error, 1)
	p.l.Lock()
	p.m.unordered.Add(mm)
	p.m.blocked[mm.ID] = struct{}{}
	p.waiting[mm.ID] = ch
	p.l.Unlock()

	w := wire.NewWriter(0)
	msg.EncodeBatch(w, []msg.Message{mm})
	p.commit(0, w.Bytes())

	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("waiter not notified")
	}
	if p.UnorderedLen() != 0 {
		t.Fatal("ordered message still in Unordered")
	}
	if p.Round() != 1 {
		t.Fatalf("round = %d", p.Round())
	}
	if len(delivered) != 1 || delivered[0].Pos != 0 {
		t.Fatalf("deliveries: %+v", delivered)
	}
	st := p.Stats()
	if st.Rounds != 1 || st.Delivered != 1 || st.EmptyRounds != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCommitEmptyRoundCounted(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	w := wire.NewWriter(0)
	msg.EncodeBatch(w, nil)
	p.commit(0, w.Bytes())
	if p.Stats().EmptyRounds != 1 {
		t.Fatal("empty round not counted")
	}
}

func TestSequenceExposesBaseAndSuffix(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	w := wire.NewWriter(0)
	msg.EncodeBatch(w, []msg.Message{m(1, 1, 1)})
	p.commit(0, w.Bytes())
	base, suffix := p.Sequence()
	if base.Pos != 0 || len(suffix) != 1 {
		t.Fatalf("sequence: base=%+v suffix=%d", base, len(suffix))
	}
	if !p.Delivered(m(1, 1, 1).ID) {
		t.Fatal("Delivered lookup failed")
	}
	if p.Delivered(m(2, 1, 9).ID) {
		t.Fatal("phantom delivery")
	}
}

func TestCheckpointNowFoldsWithCheckpointer(t *testing.T) {
	fold := &recordingCheckpointer{}
	p, _, cons := newTestProtocol(Config{CheckpointEvery: 100, Checkpointer: fold})
	w := wire.NewWriter(0)
	msg.EncodeBatch(w, []msg.Message{m(1, 1, 1), m(2, 1, 1)})
	p.commit(0, w.Bytes())
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	base, suffix := p.Sequence()
	if base.Pos != 2 || len(suffix) != 0 {
		t.Fatalf("fold failed: base=%+v suffix=%d", base, len(suffix))
	}
	if fold.calls != 1 || fold.lastCount != 2 {
		t.Fatalf("checkpointer: %+v", fold)
	}
	if _, ok, _ := p.l.Store().Get(keyCkpt); !ok {
		t.Fatal("checkpoint cell not written")
	}
	cons.mu.Lock()
	defer cons.mu.Unlock()
	if cons.floor != 1 {
		t.Fatalf("consensus floor = %d", cons.floor)
	}
	if p.Stats().Checkpoints != 1 {
		t.Fatal("checkpoint not counted")
	}
}

// tallyFold is an application whose state is the count of messages it
// folded, kept in a buffer of its own: a fold allocates nothing.
type tallyFold struct{ state [8]byte }

func (f *tallyFold) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	var n uint64
	if len(prev) == 8 {
		n = binary.LittleEndian.Uint64(prev)
	}
	binary.LittleEndian.PutUint64(f.state[:], n+uint64(len(delivered)))
	return f.state[:]
}

func (f *tallyFold) Restore([]byte) {}

// TestCommittedRoundAllocatesNothing pins the learner's path: once warm,
// one decided round of 32 messages goes from its value to OnDeliver —
// decoded onto the delivered sequence, its deliveries written to the
// machine's buffer, the buffers swapped by TakeUpcalls and read by
// RunUpcalls — and through a checkpoint fold without a heap allocation.
func TestCommittedRoundAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const per, warm, runs = 32, 8, 50
	delivered := 0
	fold := &tallyFold{}
	p, _, _ := newTestProtocol(Config{
		OnDeliver:    func(Delivery) { delivered++ },
		Checkpointer: fold,
	})
	p.m.running = true // past the replay phase: a commit asks and pumps
	// The values are encoded outside the measured rounds: the warm-up's,
	// AllocsPerRun's own warm-up run's and the measured ones.
	values := make([][]byte, warm+1+runs)
	for r := range values {
		batch := make([]msg.Message, per)
		for i := range batch {
			batch[i] = m(int32(per-1-i), 1, uint64(r+1)) // out of canonical order
		}
		values[r] = encodeBatch(batch)
	}
	var k uint64
	round := func() {
		p.l.Lock()
		p.m.decided(p.l.Now(), k, values[k])
		p.m.fold()
		p.l.Exit()
		p.l.Lock()
		p.TakeUpcalls()
		p.l.Unlock()
		p.RunUpcalls()
		k++
	}
	for range warm {
		round()
	}
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Errorf("a committed round allocates %v times; want 0", got)
	}
	if total := uint64(len(values) * per); uint64(delivered) != total || binary.LittleEndian.Uint64(fold.state[:]) != total {
		t.Fatalf("%d delivered and %d folded; want %d of each", delivered, binary.LittleEndian.Uint64(fold.state[:]), total)
	}
	if p.m.ds.base.Pos != k*per || len(p.m.ds.msgs) != 0 {
		t.Fatalf("the folds left base at %d and %d in the suffix; want %d and 0", p.m.ds.base.Pos, len(p.m.ds.msgs), k*per)
	}
}

type recordingCheckpointer struct {
	calls     int
	lastCount int
}

func (r *recordingCheckpointer) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	r.calls++
	r.lastCount = len(delivered)
	return append(prev, byte(len(delivered)))
}

func (r *recordingCheckpointer) Restore([]byte) {}

func TestCheckpointNowWithoutCheckpointerKeepsSuffix(t *testing.T) {
	p, _, _ := newTestProtocol(Config{CheckpointEvery: 100})
	w := wire.NewWriter(0)
	msg.EncodeBatch(w, []msg.Message{m(1, 1, 1)})
	p.commit(0, w.Bytes())
	if err := p.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// §5.1 without §5.2: the full queue is logged, nothing is folded.
	base, suffix := p.Sequence()
	if base.Pos != 0 || len(suffix) != 1 {
		t.Fatalf("unexpected fold: base=%+v suffix=%d", base, len(suffix))
	}
}

func TestDoubleStartRejected(t *testing.T) {
	p, _, _ := newTestProtocol(Config{})
	p.l.Lock()
	p.started = true
	p.l.Unlock()
	if err := p.Start(context.Background()); err == nil {
		t.Fatal("double start accepted")
	}
}

// TestAwaitReplayNamesTheRoundItWaitsOn: a replay phase waiting on a
// round with a logged value that consensus never settles ends with its
// context, and the error names the round it waits on and the GC floor.
func TestAwaitReplayNamesTheRoundItWaitsOn(t *testing.T) {
	p := newProto(Config{PID: 0, N: 3, Incarnation: 2}, storage.NewMem(), &fakeNet{})
	p.cons.(*fakeCons).logged = 1
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.Start(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "waits on round 0 (GC floor 0)") {
		t.Fatalf("Start: %v, want the deadline naming round 0 and floor 0", err)
	}
	if !p.Replaying() {
		t.Fatal("the phase ended")
	}
}
