package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/msg"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Protocol is one process's Atomic Broadcast endpoint for one incarnation:
// the machine run on the incarnation's loop (internal/loop), beside the
// consensus box it drives, over the process's log, network and wall clock.
// Create it with New, then Start (which runs the recovery procedure), then
// use Broadcast and the delivery APIs. Stop ends the incarnation.
//
// Every input steps the machine under the loop's lock, on the goroutine it
// arrives on, and the loop's drain carries out both layers' effects in
// that step: the consensus box's decided and forgotten instances are this
// machine's inputs, and its propose, learn and discard effects the box's.
// Writes are issued under the lock (so the log sees them in step order),
// frames go out after it, and the ordered upcalls run on the loop's one
// goroutine, outside every lock.
type Protocol struct {
	cfg  Config
	l    *loop.Loop
	cons Consensus
	net  router.Net

	met                *metrics
	recoveredFromCkpt  atomic.Bool
	recoveredUnordered atomic.Int64

	m         *machine
	replay    replay
	started   bool
	waiting   map[ids.MsgID]chan error // Broadcast calls the machine releases
	ckptWaits []chan error             // CheckpointNow calls, in checkpoint order
	writes    loop.Queue[effect]       // issued, not yet reported to the machine
	drainedCh chan struct{}
	replayed  chan struct{} // closed once the upcalls of recovery ran

	// The ordered upcalls, in the order the machine emitted them, and the
	// batch the loop's goroutine runs; dels holds the deliveries of the
	// batch (the machine's buffer holds the queued ones').
	upcalls, batch []effect
	dels           []Delivery
}

// Consensus is Fig. 1's consensus box as the broadcast layer drives it:
// in-step, on the loop the two layers share, with its lock held
// (consensus.Box). Propose and DiscardBelow are its inputs; Settle carries
// out its effects up to its next decided(k, v) or forgotten(k), which is
// then this layer's input in the same step. The rest are reads: the
// replay phase parses the log through Logged, DecidedLocal and Forgot.
type Consensus interface {
	Sequencer
	Propose(k uint64, v []byte, now int64) error
	DiscardBelow(k uint64)
	Settle() (k uint64, v []byte, decided, ok bool)
	DecidedLocal(k uint64) ([]byte, bool)
	Forgot(k uint64) bool
	// Logged is one past the last instance whose value (a proposal or an
	// accepted value) recovery found in the log. Consensus learns every
	// instance below it again from the start, since it logs no decision.
	Logged() uint64
}

// Sequencer names the process this process's acceptor granted its lease
// to, whose accepts carry a value to the others; ok is false without one.
type Sequencer interface {
	Sequencer() (ids.ProcessID, bool)
}

// New creates a Protocol on l, the incarnation's loop, whose store is the
// process's stable storage; cons is the consensus box on the same loop,
// net the router binding for the core channel. New binds the loop to the
// protocol. Register OnMessage with the router before calling Start.
func New(cfg Config, l *loop.Loop, cons Consensus, net router.Net) *Protocol {
	cfg.fill()
	met := newMetrics(cfg.Obs.Reg(), cfg.Group)
	p := &Protocol{
		cfg:       cfg,
		l:         l,
		cons:      cons,
		net:       net,
		met:       met,
		m:         newMachine(cfg, cons, met, cfg.Obs.Trace(), cfg.Obs.Flight()),
		waiting:   make(map[ids.MsgID]chan error),
		drainedCh: make(chan struct{}),
		replayed:  make(chan struct{}),
	}
	p.replay = replay{m: p.m, log: cons}
	l.Bind(p.drain, p)
	return p
}

// Start runs the paper's "upon initialization or recovery" procedure:
// retrieve logged state, replay logged Consensus instances, then start the
// sequencer, gossip and checkpoint work. It blocks until the replay phase
// completes and its upcalls have run (so its return marks the end of
// recovery). Cancelling ctx stops the incarnation like Stop. It is Begin,
// then AwaitReplay.
func (p *Protocol) Start(ctx context.Context) error {
	if err := p.Begin(ctx); err != nil {
		return err
	}
	return p.AwaitReplay(ctx)
}

// Begin is Start's step: the retrieve, unless Recover ran it, and the
// start of the replay phase, whose end AwaitReplay waits for and Replaying
// polls. Cancelling ctx stops the incarnation like Stop.
func (p *Protocol) Begin(ctx context.Context) error {
	if !p.l.Enter() {
		return ErrStopped // a crash raced the boot
	}
	started := p.started
	p.started = true
	p.l.Exit()
	if started {
		return fmt.Errorf("core: already started")
	}
	if err := p.Recover(); err != nil {
		return err
	}
	p.l.Start(ctx)
	if !p.l.Enter() {
		return ErrStopped
	}
	p.replay.begin(p.l.Now())
	p.l.Exit()
	return nil
}

// AwaitReplay is Start's wait: it returns once the replay phase Begin
// started has ended and its upcalls have run. If the incarnation or ctx
// ends first, the error names the round the phase waits on and the GC
// floor the process recovered.
func (p *Protocol) AwaitReplay(ctx context.Context) error {
	var err error
	select {
	case <-p.replayed:
		return nil
	case <-p.l.Done():
		err = ErrStopped
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.l.Lock()
	on, k, floor := p.replay.on, p.replay.waitK, p.m.gcFloor
	p.l.Unlock()
	if on {
		return fmt.Errorf("%w: the replay waits on round %d (GC floor %d)", err, k, floor)
	}
	return err
}

// Replaying reports whether the replay phase Begin started has yet to end.
func (p *Protocol) Replaying() bool {
	select {
	case <-p.replayed:
		return false
	default:
		return true
	}
}

// Stop ends the incarnation: nothing steps the machine any more, the
// upcall goroutine exits, and pending Broadcast calls return ErrStopped.
// The stable storage is untouched. It may run concurrently with Start,
// and not from inside an upcall.
func (p *Protocol) Stop() { p.l.Stop() }

// Recover is Start's first step alone, the retrieve of the logged state,
// for a caller that runs it before the network delivers anything: it
// hands Consensus its GC floor back before the engine takes part in any
// instance. Start skips it once it ran.
func (p *Protocol) Recover() error {
	p.l.Lock()
	restored := p.m.restored
	p.l.Unlock()
	if restored {
		return nil
	}
	ckpt, floor, unord, recs, err := retrieve(p.l.Store(), p.cfg.BatchedBroadcast)
	if err != nil {
		return err
	}
	if !p.l.Enter() {
		return ErrStopped
	}
	n, err := p.m.recover(ckpt, floor, unord, recs)
	if err == nil {
		p.recoveredFromCkpt.Store(ckpt != nil)
		p.recoveredUnordered.Store(int64(n))
	}
	p.l.Exit()
	return err
}

// The broadcast layer's stable-storage keys.
const (
	KeyCkpt     = keyCkpt
	KeyUnord    = keyUnord
	KeyUnordLog = keyUnordLog
	KeyGCFloor  = keyGCFloor
)

// retrieve reads the logged state the recovery procedure starts from
// (Fig. 2 / Fig. 3): the checkpoint cell and GC floor, present only if the
// alternative protocol's checkpoint (or a past state-transfer adoption)
// logged them, and, with BatchedBroadcast, the Unordered cell and log.
func retrieve(st storage.Stable, batched bool) (ckpt, floor, unord []byte, recs [][]byte, err error) {
	ckpt, hasCkpt, err := st.Get(keyCkpt)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: retrieve checkpoint: %w", err)
	}
	if hasCkpt {
		if floor, _, err = st.Get(keyGCFloor); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retrieve gc floor: %w", err)
		}
	} else {
		ckpt = nil
	}
	if batched {
		if unord, _, err = st.Get(keyUnord); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retrieve unordered: %w", err)
		}
		if recs, err = st.Records(keyUnordLog); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: read unordered log: %w", err)
		}
	}
	return ckpt, floor, unord, recs, nil
}

// replay is the replay phase of "upon initialization or recovery" (Fig. 2),
// run in-step by the drain. The recovery procedure "parses the log of
// proposed and agreed values (which is kept internally by Consensus)"
// (§4.2). Consensus logs the proposed values only, and from its start
// learns every instance up to the last one it has a value logged for
// (Logged): the phase commits each of those rounds in order as its
// decision comes in, and waits for it otherwise. The first round past
// them ends the phase, and so does a round whose instance peers
// garbage-collected: the gossip exchange then triggers a state transfer
// that skips it (§5.3). The end of the phase starts the machine.
type replay struct {
	m     *machine
	log   Consensus
	on    bool
	waitK uint64 // the round whose decision the phase waits for
}

// begin starts the phase at the machine's round, after its retrieve.
func (r *replay) begin(now int64) {
	r.on = true
	r.advance(now)
}

// settled is Consensus's decided(k) (decided) or forgotten(k), after the
// machine took it as its input: the awaited round decided goes on with
// the next round, a forgotten one ends the phase.
func (r *replay) settled(now int64, k uint64, decided bool) {
	switch {
	case !r.on || k != r.waitK:
	case decided:
		r.advance(now)
	default:
		r.end(now)
	}
}

// discarded is a discardBelow that reached Consensus: a wait on a round it
// discarded ends the phase.
func (r *replay) discarded(now int64) {
	if r.on && r.log.Forgot(r.waitK) {
		r.end(now)
	}
}

func (r *replay) advance(now int64) {
	for r.on {
		k := r.m.k
		if v, ok := r.log.DecidedLocal(k); ok {
			if r.m.decided(now, k, v); r.m.k == k {
				panic(fmt.Sprintf("core: replay: round %d's decision did not commit", k))
			}
			continue
		}
		if k < r.log.Logged() && !r.log.Forgot(k) {
			r.waitK = k
			return
		}
		r.end(now)
	}
}

func (r *replay) end(now int64) {
	r.on = false
	r.m.start(now)
}

// drain is the loop's drain: it carries out both layers' effects until
// neither has any. The loop's lock is held.
func (p *Protocol) drain() {
	for {
		now := p.l.Now()
		for {
			k, v, decided, ok := p.cons.Settle()
			if !ok {
				break
			}
			if decided {
				p.m.decided(now, k, v)
			} else {
				p.m.forgotten(now, k)
			}
			p.replay.settled(now, k, decided)
		}
		if len(p.m.out) == 0 {
			return
		}
		p.run(now)
	}
}

// run carries out the machine's effects, in order: writes go to the log,
// frames to the loop, which sends them after the lock; propose, learn and
// discard are inputs of the consensus box; the ordered upcalls are queued
// for the loop's goroutine.
func (p *Protocol) run(now int64) {
	m := p.m
	for i := 0; i < len(m.out); i++ {
		ef := &m.out[i]
		switch ef.op {
		case opSend:
			p.l.Send(p.net, ef.to, ef.w)
		case opPut, opAppend, opDelete:
			p.issue(ef)
		case opPropose:
			// Propose borrows the value: it keeps an owned copy only where
			// the value can leave the process (a pooled one while another
			// process's lease defers it). It fails only below the
			// consensus floor: every round proposed is at or above it.
			_ = p.cons.Propose(ef.k, ef.w.Bytes(), now)
			wire.PutWriter(ef.w)
		case opLearn:
			if v, ok := p.cons.DecidedLocal(ef.k); ok {
				m.decided(now, ef.k, v)
			}
		case opDiscard:
			p.cons.DiscardBelow(ef.k)
			p.replay.discarded(now)
		case opArm:
			p.l.Arm(p, ef.at, loop.Token{K: uint64(ef.at)})
		case opRelease:
			if ch, ok := p.waiting[ef.id]; ok {
				delete(p.waiting, ef.id)
				ch <- ef.err
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
		default: // the ordered upcalls, and the floor frame they order
			p.upcall(ef)
		}
	}
	m.flushed()
}

// issue hands one write to the log and queues its completion.
func (p *Protocol) issue(ef *effect) {
	var c *storage.Completion
	ast := p.l.Store()
	switch ef.op {
	case opPut:
		c = ast.PutAsync(ef.key, ef.w.Bytes())
	case opAppend:
		c = ast.AppendAsync(ef.key, ef.w.Bytes())
	default:
		c = ast.DeleteAsync(ef.key)
	}
	if ef.w != nil {
		wire.PutWriter(ef.w) // the log borrows the value for the call
		ef.w = nil
	}
	p.writes.Push(*ef)
	p.l.Issue(p, c)
}

// Persisted implements loop.Layer: the loop reports the machine's writes
// in issue order, even where a store resolves them out of it.
func (p *Protocol) Persisted(now int64, err error) {
	ef := p.writes.Pop()
	p.m.persisted(now, &ef, err)
}

// Fire implements loop.Layer: the wall clock reached the machine's timer.
func (p *Protocol) Fire(now int64, _ loop.Token) { p.m.fire(now) }

// Live implements loop.Layer: the machine asks for one wake-up at a time,
// the earliest.
func (p *Protocol) Live(tok loop.Token) bool { return int64(tok.K) == p.m.wakeAt }

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

// upcall queues one ordered upcall. The lock is held.
func (p *Protocol) upcall(ef *effect) {
	p.upcalls = append(p.upcalls, *ef)
	p.l.Upcall()
}

// TakeUpcalls implements loop.Upcaller. The deliveries buffers swap with
// the queues: the machine appends the next rounds' deliveries to the one
// the last batch ran from, so neither allocates once warm.
func (p *Protocol) TakeUpcalls() {
	p.batch, p.upcalls = p.upcalls, p.batch[:0]
	p.dels, p.m.dels = p.m.dels, p.dels[:0]
}

// RunUpcalls implements loop.Upcaller: it runs the batch on the loop's
// goroutine, outside every lock, so a slow application stalls neither the
// transport nor consensus. OnDeliver and OnRound read deliveries that
// nothing writes until the batch has run.
func (p *Protocol) RunUpcalls() {
	c := &p.cfg
	for i := range p.batch {
		ef := &p.batch[i]
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
		case opFloor:
			p.sendFloor()
		case opStarted:
			close(p.replayed)
		}
	}
	clear(p.batch)
	clear(p.dels) // releases the payloads
}

// ---- client calls ----

// OnMessage is the router handler for the core channel.
func (p *Protocol) OnMessage(from ids.ProcessID, payload []byte) {
	if len(payload) > 0 && payload[0] == subFloor {
		p.onFloor(from, payload[1:])
		return
	}
	if p.l.Enter() {
		p.m.receive(p.l.Now(), from, payload)
		p.l.Exit()
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

// waitChans recycles Broadcast's wait channels: one goes back only once
// its caller received the value the release (which first removes it from
// waiting) sent. A channel its caller left stays in waiting, unrecycled.
var waitChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// Broadcast implements A-broadcast(m). In the basic protocol it blocks
// until m is in the Agreed queue ("A-broadcast(m) does not return until the
// message m is in the agreed queue", §4.2). With BatchedBroadcast it
// returns once m's Unordered record is durable (§5.4): concurrent callers
// share one group commit on engines that have it. It is Submit, then the
// call's Wait.
func (p *Protocol) Broadcast(ctx context.Context, payload []byte) (ids.MsgID, error) {
	b, err := p.Submit(payload)
	if err != nil {
		return b.ID, err
	}
	return b.ID, b.Wait(ctx)
}

// Pending is a Broadcast call between its step (Submit) and its return.
type Pending struct {
	ID ids.MsgID
	p  *Protocol
	ch chan error
}

// Submit is Broadcast's step: m joins the Unordered set, and the call
// waits for its release.
func (p *Protocol) Submit(payload []byte) (Pending, error) {
	if !p.l.Enter() {
		return Pending{}, ErrStopped
	}
	if !p.started && !p.cfg.BatchedBroadcast {
		// The node publishes the incarnation before Start runs, so a caller
		// can get here first; the blocking form needs the tasks running.
		p.l.Unlock()
		return Pending{}, ErrStopped
	}
	id, err := p.m.broadcast(p.l.Now(), payload, false)
	if err != nil {
		p.l.Unlock()
		return Pending{ID: id}, err
	}
	ch := waitChans.Get().(chan error)
	p.waiting[id] = ch
	p.l.Exit()
	return Pending{ID: id, p: p, ch: ch}, nil
}

// Wait is Broadcast's wait: it returns once the machine released the
// call, or the group drained, ctx ended (basic protocol) or the
// incarnation stopped.
func (b Pending) Wait(ctx context.Context) error {
	p := b.p
	var drained, cancelled <-chan struct{}
	if !p.cfg.BatchedBroadcast {
		drained, cancelled = p.drainedCh, ctx.Done()
	}
	select {
	case err := <-b.ch:
		waitChans.Put(b.ch)
		return released(err)
	case <-drained:
		// The group sealed and drained while we waited: m is delivered
		// here, or an orphan the resharding layer re-injects (same MsgID)
		// into the successor group — "may have been A-broadcast" either way.
		if p.Delivered(b.ID) {
			return nil
		}
		return ErrSealed
	case <-cancelled:
		return ctx.Err()
	case <-p.l.Done():
		return ErrStopped
	}
}

// Poll is Wait for a caller that cannot block, the simulator: it reports
// whether the machine has released the call, and its outcome. A call is
// released once.
func (b Pending) Poll() (bool, error) {
	select {
	case err := <-b.ch:
		waitChans.Put(b.ch)
		return true, released(err)
	default:
		return false, nil
	}
}

// released is a Broadcast's outcome at its release.
func released(err error) error {
	if err != nil {
		// The log write failed (the incarnation is dying), but m is in
		// the volatile Unordered set and may have been gossiped: like a
		// crash inside A-broadcast, m "may or may have not been
		// A-broadcast" — its identity lets the caller track it.
		return fmt.Errorf("core: log unordered: %w", err)
	}
	return nil
}

// BroadcastAsync adds m to the Unordered set and returns at once without
// any delivery guarantee for this incarnation (the caller behaves as if it
// might crash immediately after invoking A-broadcast). Load generators use
// it to drive open-loop workloads.
func (p *Protocol) BroadcastAsync(payload []byte) (ids.MsgID, error) {
	if !p.l.Enter() {
		return ids.MsgID{}, ErrStopped
	}
	id, err := p.m.broadcast(p.l.Now(), payload, true)
	p.l.Exit()
	return id, err
}

// Inject adds m, under its existing identity, to the Unordered set: the
// resharding layer re-injects a retired group's orphans into their
// successor group through it. It reports whether the message was new here;
// one already delivered, or arriving after a drain (the sealed sequence is
// complete), is dropped.
func (p *Protocol) Inject(m msg.Message) bool {
	if !p.l.Enter() {
		return false
	}
	added := p.m.inject(p.l.Now(), m)
	p.l.Exit()
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
	case <-p.l.Done():
		return ErrStopped
	}
}

// checkpoint steps a checkpoint; ch, when set, receives its outcome (the
// periodic one, with none, does not wait).
func (p *Protocol) checkpoint(ch chan error) error {
	if !p.l.Enter() {
		return ErrStopped
	}
	if !p.m.restored {
		p.l.Unlock()
		return fmt.Errorf("core: checkpoint before recovery")
	}
	if ch != nil {
		p.ckptWaits = append(p.ckptWaits, ch)
	}
	p.m.checkpoint(p.l.Now(), ch != nil)
	p.l.Exit()
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
	if p.l.Enter() {
		p.m.seal(p.l.Now(), final)
		p.l.Exit()
	}
}

// Drained reports whether a sealed group has committed its full sequence
// (round counter past the final round). Always false before Seal.
func (p *Protocol) Drained() bool {
	p.l.Lock()
	defer p.l.Unlock()
	return p.m.drained
}

// TakeOrphans removes and returns the messages left in the Unordered set
// after a sealed group drained: admitted before the seal but never ordered
// by the final rounds. The resharding layer re-injects them — same MsgID —
// into the successor group, where delivery-state dedup keeps the injection
// idempotent across the processes all doing the same. Nil until the drain.
func (p *Protocol) TakeOrphans() []msg.Message {
	p.l.Lock()
	defer p.l.Unlock()
	return p.m.takeOrphans()
}

// Round returns the current round counter k_p.
func (p *Protocol) Round() uint64 {
	p.l.Lock()
	defer p.l.Unlock()
	return p.m.k
}

// Delivered reports whether id is in the delivery sequence (explicitly or
// via the base checkpoint).
func (p *Protocol) Delivered(id ids.MsgID) bool {
	p.l.Lock()
	defer p.l.Unlock()
	return p.m.ds.contains(id)
}

// Sequence implements A-deliver-sequence(): it returns the base snapshot
// that initiates the sequence (empty in the basic protocol) and the
// explicitly delivered suffix.
func (p *Protocol) Sequence() (Snapshot, []Delivery) {
	p.l.Lock()
	defer p.l.Unlock()
	ds := p.m.ds
	return ds.snapshotBase(), ds.appendDeliveries(make([]Delivery, 0, len(ds.msgs)), 0, p.cfg.Group)
}

// UnorderedLen returns the size of the Unordered set (observability).
func (p *Protocol) UnorderedLen() int {
	p.l.Lock()
	defer p.l.Unlock()
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
