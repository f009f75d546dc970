package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Protocol is one process's Atomic Broadcast endpoint for one incarnation:
// the machine run over the process's log, network, consensus engine and
// wall clock. Create it with New, then Start (which runs the recovery
// procedure), then use Broadcast and the delivery APIs. Stop ends the
// incarnation.
//
// Every input steps the machine under p.mu, on the goroutine it arrives
// on; the effects are carried out in order: writes are issued under the
// lock (so the log sees them in step order), frames and proposals go out
// after it, and the ordered upcalls run on the one goroutine the adapter
// starts, outside every lock.
type Protocol struct {
	cfg  Config
	st   storage.Stable
	ast  storage.AsyncStable
	cons consensus.API
	net  router.Net

	met                *metrics
	recoveredFromCkpt  atomic.Bool
	recoveredUnordered atomic.Int64

	epoch  time.Time
	ctx    context.Context // the incarnation: cancelled by Stop
	cancel context.CancelFunc

	mu        sync.Mutex
	m         *machine
	started   bool
	stopped   bool
	waiting   map[ids.MsgID]chan error // Broadcast calls the machine releases
	ckptWaits []chan error             // CheckpointNow calls, in checkpoint order
	writes    []pendingWrite           // issued, reported to the machine in issue order
	onDone    func(error)              // p.onWrite, bound once
	wall      *time.Timer              // runs p.onAlarm at wallAt
	wallAt    int64
	drainedCh chan struct{}

	// The ordered upcalls, run by upcallLoop in the order the machine
	// emitted them; busy while it runs a batch.
	upcalls  []effect
	upcallCV *sync.Cond
	busy     bool
	loopDone chan struct{}
}

type pendingWrite struct {
	c      *storage.Completion
	ef     effect
	hooked bool
}

// New creates a Protocol. st is the process's stable storage, cons the
// consensus building block, net the router binding for the core channel.
// Register OnMessage with the router before calling Start.
func New(cfg Config, st storage.Stable, cons consensus.API, net router.Net) *Protocol {
	cfg.fill()
	met := newMetrics(cfg.Obs.Reg(), cfg.Group)
	p := &Protocol{
		cfg:       cfg,
		st:        st,
		ast:       storage.Async(st),
		cons:      cons,
		net:       net,
		met:       met,
		epoch:     time.Now(),
		m:         newMachine(cfg, met, cfg.Obs.Trace(), cfg.Obs.Flight()),
		waiting:   make(map[ids.MsgID]chan error),
		wallAt:    never,
		drainedCh: make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.onDone = p.onWrite
	p.upcallCV = sync.NewCond(&p.mu)
	p.wall = time.AfterFunc(math.MaxInt64, p.onAlarm) // opArm effects reset it
	cons.OnSettle(p.onSettle)
	return p
}

// now is the adapter's clock: monotonic ns since New.
func (p *Protocol) now() int64 { return int64(time.Since(p.epoch)) }

// Start runs the paper's "upon initialization or recovery" procedure:
// retrieve logged state, replay logged Consensus instances, then start the
// sequencer, gossip and checkpoint work. It blocks until the replay phase
// completes and its upcalls have run (so its return marks the end of
// recovery). Cancelling ctx stops the incarnation like Stop.
func (p *Protocol) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("core: already started")
	}
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped // a crash raced the boot
	}
	p.started = true
	context.AfterFunc(ctx, p.Stop)
	go p.upcallLoop()
	p.mu.Unlock()

	if err := p.Recover(); err != nil {
		return err
	}
	if err := p.replay(); err != nil {
		return err
	}
	if !p.lock() {
		return ErrStopped
	}
	p.m.start(p.now())
	p.run()
	// Recovery ends once its upcalls have run.
	p.mu.Lock()
	defer p.mu.Unlock()
	for (len(p.upcalls) > 0 || p.busy) && !p.stopped {
		p.upcallCV.Wait()
	}
	if p.stopped {
		return ErrStopped
	}
	return nil
}

// Stop ends the incarnation: nothing steps the machine any more, the
// upcall goroutine exits, and pending Broadcast calls return ErrStopped.
// The stable storage is untouched. It may run concurrently with Start,
// and not from inside an upcall.
func (p *Protocol) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.cancel()
	p.wall.Stop()
	p.upcallCV.Broadcast()
	started := p.started
	p.mu.Unlock()
	if started {
		<-p.loopDone
	}
}

// Recover is Start's first step alone, the retrieve of the logged state,
// for a caller that runs it before the network delivers anything: it
// hands Consensus its GC floor back before the engine takes part in any
// instance. Start skips it once it ran.
func (p *Protocol) Recover() error {
	p.mu.Lock()
	restored := p.m.restored
	p.mu.Unlock()
	if restored {
		return nil
	}
	return p.recover()
}

// recover retrieves the logged state (retrieve) into the machine.
func (p *Protocol) recover() error {
	ckpt, floor, unord, recs, err := retrieve(p.st, p.cfg.BatchedBroadcast)
	if err != nil {
		return err
	}
	p.mu.Lock()
	n, err := p.m.recover(ckpt, floor, unord, recs)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.recoveredFromCkpt.Store(ckpt != nil)
	p.recoveredUnordered.Store(int64(n))
	p.run()
	return nil
}

// replay is the replay phase (ReplayNext): re-deliveries reconstruct the
// Agreed queue.
func (p *Protocol) replay() error {
	for {
		p.mu.Lock()
		k := p.m.k
		p.mu.Unlock()
		move, v := ReplayNext(p.cons, k)
		switch move {
		case ReplayEnd:
			return nil
		case ReplayAwait:
			err := p.cons.Propose(k, v)
			if err == nil {
				v, err = p.cons.WaitDecided(p.ctx, k)
			}
			if errors.Is(err, consensus.ErrDiscarded) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("core: replay %d: %w", k, err)
			}
		}
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return ErrStopped
		}
		p.m.decided(p.now(), k, v)
		p.run()
	}
}

// run carries out the machine's effects and releases p.mu. Under the
// lock, in order: writes, the upcall queue, and the consensus calls that
// never settle an instance — the learn (a decision already here is an
// input at once) and the discard. Frames and proposals go after it.
func (p *Protocol) run() {
	var buf [8]effect
	later := buf[:0]
	m := p.m
	for i := 0; i < len(m.out); i++ {
		ef := &m.out[i]
		switch ef.op {
		case opPut, opAppend, opDelete:
			p.issue(ef)
		case opLearn:
			if v, ok := p.cons.DecidedLocal(ef.k); ok {
				m.decided(p.now(), ef.k, v)
			}
		case opDiscard:
			// A delete failing at issue means a dying log; the cells it
			// leaves below the floor go with the next discard.
			_ = p.cons.DiscardBelow(ef.k)
		case opArm:
			if ef.at < p.wallAt {
				p.wallAt = ef.at
				p.wall.Reset(time.Duration(ef.at - p.now()))
			}
		case opRelease:
			if ch, ok := p.waiting[ef.id]; ok {
				ch <- ef.err
				delete(p.waiting, ef.id)
			}
		case opDrained:
			close(p.drainedCh)
		case opCheckpointed:
			if ef.err == nil && p.cfg.OnCheckpoint != nil {
				p.upcall(ef)
			}
			if ef.release {
				p.ckptWaits[0] <- ef.err
				p.ckptWaits = p.ckptWaits[1:]
			}
		case opRestore, opDeliver, opRound, opSkip, opCheckpointDue:
			p.upcall(ef)
		default:
			later = append(later, *ef)
		}
	}
	m.flushed()
	p.mu.Unlock()
	for i := range later {
		ef := &later[i]
		switch ef.op {
		case opSend:
			// Send/Multisend copy before returning at every transport layer,
			// so the buffer is released right after the call.
			if ef.to == ids.Nobody {
				p.net.Multisend(ef.w.Bytes())
			} else {
				p.net.Send(ef.to, ef.w.Bytes())
			}
			wire.PutWriter(ef.w)
		case opPropose:
			// Propose borrows the value (it keeps a copy of its own). It
			// fails only in a dying incarnation: every round proposed is at
			// or above the consensus floor.
			_ = p.cons.Propose(ef.k, ef.w.Bytes())
			wire.PutWriter(ef.w)
		case opFloor:
			p.sendFloor()
		}
	}
}

// issue hands one write to the log and queues its completion.
func (p *Protocol) issue(ef *effect) {
	var c *storage.Completion
	switch ef.op {
	case opPut:
		c = p.ast.PutAsync(ef.key, ef.w.Bytes())
	case opAppend:
		c = p.ast.AppendAsync(ef.key, ef.w.Bytes())
	default:
		c = p.ast.DeleteAsync(ef.key)
	}
	if ef.w != nil {
		wire.PutWriter(ef.w) // the log borrows the value for the call
		ef.w = nil
	}
	p.writes = append(p.writes, pendingWrite{c: c, ef: *ef})
	p.settleWrites()
}

// settleWrites reports the resolved writes at the head of the issue queue
// to the machine: it sees completions in issue order even where a store
// resolves them out of it. p.mu held.
func (p *Protocol) settleWrites() {
	for len(p.writes) > 0 {
		w := &p.writes[0]
		err, done := w.c.Poll()
		if !done {
			if !w.hooked {
				w.hooked = true
				w.c.OnDone(p.onDone)
			}
			return
		}
		ef := w.ef
		n := copy(p.writes, p.writes[1:])
		p.writes[n] = pendingWrite{}
		p.writes = p.writes[:n]
		p.m.persisted(p.now(), &ef, err)
	}
}

// onWrite is the completion callback of a write that did not resolve at
// issue; it runs on the log's completion goroutine.
func (p *Protocol) onWrite(error) {
	if p.lock() {
		p.settleWrites()
		p.run()
	}
}

// onAlarm is the wall-clock timer: it fires the machine's due timers.
func (p *Protocol) onAlarm() {
	if p.lock() {
		p.wallAt = never
		p.m.fire(p.now())
		p.run()
	}
}

// onSettle is the consensus engine's decided/forgotten upcall.
func (p *Protocol) onSettle(k uint64, v []byte, decided bool) {
	if !p.lock() {
		return
	}
	if decided {
		p.m.decided(p.now(), k, v)
	} else {
		p.m.forgotten(p.now(), k)
	}
	p.run()
}

// lock takes p.mu for an input and reports whether the incarnation still
// takes inputs; it releases the lock when not.
func (p *Protocol) lock() bool {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return false
	}
	return true
}

// sendFloor piggybacks the merge-floor frame on the periodic gossip: peers
// fold it into their cluster-floor view (group.FloorTracker), and the
// topology epoch lets a process whose state transfer skipped the reshard
// marker rounds resync its topology.
func (p *Protocol) sendFloor() {
	floor, epoch, topo := p.cfg.FloorSelf()
	w := wire.GetWriter(32 + len(topo))
	w.U8(subFloor)
	w.U64(floor)
	w.U64(epoch)
	w.Bytes32(topo)
	p.net.Multisend(w.Bytes())
	wire.PutWriter(w)
}

// ---- the ordered upcalls ----

// upcall queues one ordered upcall. p.mu held.
func (p *Protocol) upcall(ef *effect) {
	p.upcalls = append(p.upcalls, *ef)
	p.upcallCV.Broadcast()
}

// upcallLoop is the adapter's one goroutine: it runs the ordered upcalls
// outside every lock, so a slow application stalls neither the transport
// nor consensus.
func (p *Protocol) upcallLoop() {
	defer close(p.loopDone)
	var batch []effect
	p.mu.Lock()
	for {
		for len(p.upcalls) == 0 && !p.stopped {
			p.upcallCV.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		batch, p.upcalls = p.upcalls, batch[:0]
		p.busy = true
		p.mu.Unlock()
		p.runUpcalls(batch)
		p.mu.Lock()
		p.busy = false
		p.upcallCV.Broadcast() // Start may wait for the queue to empty
	}
}

func (p *Protocol) runUpcalls(batch []effect) {
	c := &p.cfg
	for i := range batch {
		ef := &batch[i]
		switch ef.op {
		case opRestore:
			if c.OnRestore != nil {
				c.OnRestore(ef.snap)
			}
		case opDeliver, opRound:
			if c.OnDeliver != nil {
				for _, d := range ef.ds {
					c.OnDeliver(d)
				}
			}
			if ef.op == opRound && c.OnRound != nil {
				c.OnRound(c.Group, ef.k, ef.ds)
			}
		case opSkip:
			if c.OnRoundSkip != nil {
				c.OnRoundSkip(c.Group, ef.k)
			}
		case opCheckpointed:
			c.OnCheckpoint(ef.k)
		case opCheckpointDue:
			_ = p.checkpoint(nil)
		}
	}
	clear(batch)
}

// ---- client calls ----

// OnMessage is the router handler for the core channel.
func (p *Protocol) OnMessage(from ids.ProcessID, payload []byte) {
	if len(payload) > 0 && payload[0] == subFloor {
		p.onFloor(from, payload[1:])
		return
	}
	if p.lock() {
		p.m.receive(p.now(), from, payload)
		p.run()
	}
}

// onFloor hands a peer's merge-floor frame (the cluster-wide GC floor
// lane) to OnPeerFloor, on the transport's delivery goroutine.
func (p *Protocol) onFloor(from ids.ProcessID, frame []byte) {
	r := wire.NewReader(frame)
	floor := r.U64()
	epoch := r.U64()
	topo := r.BytesCopy()
	if r.Err() == nil && p.cfg.OnPeerFloor != nil {
		p.cfg.OnPeerFloor(from, floor, epoch, topo)
	}
}

// Broadcast implements A-broadcast(m). In the basic protocol it blocks
// until m is in the Agreed queue ("A-broadcast(m) does not return until the
// message m is in the agreed queue", §4.2). With BatchedBroadcast it
// returns once m's Unordered record is durable (§5.4): concurrent callers
// share one group commit on engines that have it.
func (p *Protocol) Broadcast(ctx context.Context, payload []byte) (ids.MsgID, error) {
	p.mu.Lock()
	if p.stopped || (!p.started && !p.cfg.BatchedBroadcast) {
		// The node publishes the incarnation before Start runs, so a caller
		// can get here first; the blocking form needs the tasks running.
		p.mu.Unlock()
		return ids.MsgID{}, ErrStopped
	}
	id, err := p.m.broadcast(p.now(), payload, false)
	if err != nil {
		p.mu.Unlock()
		return id, err
	}
	ch := make(chan error, 1)
	p.waiting[id] = ch
	p.run()
	var drained, cancelled <-chan struct{}
	if !p.cfg.BatchedBroadcast {
		drained, cancelled = p.drainedCh, ctx.Done()
	}
	select {
	case err := <-ch:
		if err != nil {
			// The log write failed (the incarnation is dying), but m is in
			// the volatile Unordered set and may have been gossiped: like a
			// crash inside A-broadcast, m "may or may have not been
			// A-broadcast" — its identity lets the caller track it.
			return id, fmt.Errorf("core: log unordered: %w", err)
		}
		return id, nil
	case <-drained:
		// The group sealed and drained while we waited: m is delivered
		// here, or an orphan the resharding layer re-injects (same MsgID)
		// into the successor group — "may have been A-broadcast" either way.
		if p.Delivered(id) {
			return id, nil
		}
		return id, ErrSealed
	case <-cancelled:
		return id, ctx.Err()
	case <-p.ctx.Done():
		return id, ErrStopped
	}
}

// BroadcastAsync adds m to the Unordered set and returns at once without
// any delivery guarantee for this incarnation (the caller behaves as if it
// might crash immediately after invoking A-broadcast). Load generators use
// it to drive open-loop workloads.
func (p *Protocol) BroadcastAsync(payload []byte) (ids.MsgID, error) {
	if !p.lock() {
		return ids.MsgID{}, ErrStopped
	}
	id, err := p.m.broadcast(p.now(), payload, true)
	p.run()
	return id, err
}

// Inject adds m, under its existing identity, to the Unordered set: the
// resharding layer re-injects a retired group's orphans into their
// successor group through it. It reports whether the message was new here;
// one already delivered, or arriving after a drain (the sealed sequence is
// complete), is dropped.
func (p *Protocol) Inject(m msg.Message) bool {
	if !p.lock() {
		return false
	}
	added := p.m.inject(p.now(), m)
	p.run()
	return added
}

// CheckpointNow performs one checkpoint (Fig. 4 lines (b)/(c)) and returns
// once its cells are durable and the Consensus state below it is
// discarded. Applications and experiments use it to force a checkpoint at
// a chosen moment; the periodic one runs every CheckpointEvery rounds.
func (p *Protocol) CheckpointNow() error {
	ch := make(chan error, 1)
	if err := p.checkpoint(ch); err != nil {
		return err
	}
	select {
	case err := <-ch:
		if err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
		return nil
	case <-p.ctx.Done():
		return ErrStopped
	}
}

// checkpoint steps a checkpoint; ch, when set, receives its outcome (the
// periodic one, with none, does not wait).
func (p *Protocol) checkpoint(ch chan error) error {
	if !p.lock() {
		return ErrStopped
	}
	if !p.m.restored {
		p.mu.Unlock()
		return fmt.Errorf("core: checkpoint before recovery")
	}
	if ch != nil {
		p.ckptWaits = append(p.ckptWaits, ch)
	}
	p.m.checkpoint(p.now(), ch != nil)
	p.run()
	return nil
}

// Seal marks the group as retiring with final round `final`: Broadcast
// rejects new messages with ErrSealed from now on, and the sequencer
// proposes only empty batches for the remaining rounds [k, final], so every
// process's round counter deterministically reaches final+1 and stops. The
// caller learns `final` from the SEAL marker ordered in the group itself
// (final = marker round + drain window), so all processes seal at the same
// boundary. Idempotent; a later seal is ignored.
func (p *Protocol) Seal(final uint64) {
	if p.lock() {
		p.m.seal(p.now(), final)
		p.run()
	}
}

// Sealed returns the retirement seal state: whether Seal was applied and,
// if so, the final round of the sealed sequence.
func (p *Protocol) Sealed() (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.sealed, p.m.sealFinal
}

// Drained reports whether a sealed group has committed its full sequence
// (round counter past the final round). Always false before Seal.
func (p *Protocol) Drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.drained
}

// TakeOrphans removes and returns the messages left in the Unordered set
// after a sealed group drained: admitted before the seal but never ordered
// by the final rounds. The resharding layer re-injects them — same MsgID —
// into the successor group, where delivery-state dedup keeps the injection
// idempotent across the processes all doing the same. Nil until the drain.
func (p *Protocol) TakeOrphans() []msg.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.takeOrphans()
}

// Round returns the current round counter k_p.
func (p *Protocol) Round() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.k
}

// Delivered reports whether id is in the delivery sequence (explicitly or
// via the base checkpoint).
func (p *Protocol) Delivered(id ids.MsgID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.ds.contains(id)
}

// Sequence implements A-deliver-sequence(): it returns the base snapshot
// that initiates the sequence (empty in the basic protocol) and the
// explicitly delivered suffix.
func (p *Protocol) Sequence() (Snapshot, []Delivery) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.ds.snapshotBase(), p.m.tagGroup(p.m.ds.deliveries())
}

// UnorderedLen returns the size of the Unordered set (observability).
func (p *Protocol) UnorderedLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.unordered.Len()
}

// Stats returns a snapshot of the protocol counters for this incarnation.
// The read is lock-free (every counter is an atomic), so it is safe to call
// from delivery callbacks and concurrently with delivery itself.
func (p *Protocol) Stats() Stats {
	s := p.met.incarnation()
	s.RecoveredFromCkpt = p.recoveredFromCkpt.Load()
	s.RecoveredUnordered = int(p.recoveredUnordered.Load())
	return s
}
