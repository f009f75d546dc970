package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Stable-storage keys owned by the broadcast layer. The basic protocol
// writes none of them.
const (
	keyCkpt     = "abcast/ckpt"     // (k, Agreed) checkpoint cell (§5.1/§5.2)
	keyUnord    = "abcast/unord"    // full Unordered set cell (§5.4)
	keyUnordLog = "abcast/unordlog" // incremental Unordered log (§5.5)
	keyGCFloor  = "abcast/gcfloor"  // round the last checkpoint discarded below
)

// Protocol is one process's Atomic Broadcast endpoint for one incarnation.
// Create it with New, then Start (which runs the recovery procedure), then
// use Broadcast and the delivery APIs. Stop ends the incarnation.
type Protocol struct {
	cfg Config
	st  storage.Stable
	// ast is the asynchronous view of st: Broadcast's unordered-log write
	// is issued through it and awaited outside the protocol lock, so all
	// concurrent Broadcast callers share one group commit on engines that
	// support it (storage.WAL); synchronous engines resolve eagerly.
	ast  storage.AsyncStable
	cons consensus.API
	net  router.Net

	mu        sync.Mutex
	k         uint64 // current round (next Consensus instance)
	gossipK   uint64 // highest round known decided, via gossip
	unordered *msg.Set
	ds        *deliveryState
	seq       uint64 // local sequence numbers for MsgIDs
	waiters   map[ids.MsgID][]chan struct{}

	pending  *deliveryState // state transfer awaiting adoption
	pendingK uint64
	gcFloor  uint64 // consensus instances below this were discarded

	// Retirement seal (live resharding). Once sealed, Broadcast rejects new
	// messages with ErrSealed and the sequencer proposes only empty batches
	// for rounds up to sealFinal — so the round counter deterministically
	// reaches sealFinal+1 (the drain) and stops. drainedCh closes at the
	// drain; messages admitted before the seal but never ordered by the
	// final round become orphans (TakeOrphans) for the successor group.
	sealed    bool
	sealFinal uint64
	drained   bool
	drainedCh chan struct{}

	// Pipeline state. inflightRounds marks the rounds with a live decision
	// waiter; the waiters of one window share the context waits, which
	// interruptInflightLocked cancels and the next startWaiter replaces.
	// inflightMsgs marks unordered messages already inside an in-flight
	// proposal (so later rounds don't re-propose them); pendingSince is the
	// arrival time of the oldest pending (not yet proposed) message,
	// driving the adaptive batching time trigger.
	inflightRounds map[uint64]struct{}
	waits          context.Context
	cancelWaits    context.CancelFunc
	inflightMsgs   map[ids.MsgID]uint64
	pendingSince   time.Time
	resCh          chan roundResult
	batchScratch   []msg.Message // assembleBatch's reused pending slice

	// lastProgress is when the last round committed (or the incarnation
	// started); the idle-heartbeat deadline is measured from it.
	lastProgress time.Time

	lastStateTo  map[ids.ProcessID]time.Time // state-message rate limiting
	lastGossip   time.Time                   // eager-gossip rate limiting
	eagerBuf     []msg.Message               // locally added messages awaiting a delta gossip
	flushArmed   bool                        // a deferred eager-gossip flush is scheduled
	gossipCursor int                         // rotating window start for truncated gossip
	lastPull     map[ids.MsgID]time.Time     // pull dedup: all peers advertise the same IDs

	// met holds the atomic counter set (registry-backed when Config.Obs is
	// set); tr and fl are the sampled lifecycle tracer and the anomaly
	// flight recorder (nil-safe). recoveredFromCkpt/recoveredUnordered are
	// the two genuinely per-incarnation Stats fields.
	met                *metrics
	tr                 *obs.Tracer
	fl                 *obs.Recorder
	recoveredFromCkpt  atomic.Bool
	recoveredUnordered atomic.Int64

	ctx     context.Context
	cancel  context.CancelFunc
	wake    chan struct{} // capacity 1: pokes the sequencer
	ckptCh  chan struct{} // capacity 1: pokes the checkpoint task
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// New creates a Protocol. st is the process's stable storage, cons the
// consensus building block, net the router binding for the core channel.
// Register OnMessage with the router before calling Start.
func New(cfg Config, st storage.Stable, cons consensus.API, net router.Net) *Protocol {
	cfg.fill()
	depth := cfg.PipelineDepth
	if depth < 1 {
		depth = 1
	}
	return &Protocol{
		cfg:            cfg,
		st:             st,
		ast:            storage.Async(st),
		cons:           cons,
		net:            net,
		met:            newMetrics(cfg.Obs.Reg(), cfg.Group),
		tr:             cfg.Obs.Trace(),
		fl:             cfg.Obs.Flight(),
		unordered:      msg.NewSet(),
		ds:             newDeliveryState(),
		waiters:        make(map[ids.MsgID][]chan struct{}),
		lastStateTo:    make(map[ids.ProcessID]time.Time),
		lastPull:       make(map[ids.MsgID]time.Time),
		inflightRounds: make(map[uint64]struct{}),
		inflightMsgs:   make(map[ids.MsgID]uint64),
		resCh:          make(chan roundResult, depth+1),
		drainedCh:      make(chan struct{}),
		wake:           make(chan struct{}, 1),
		ckptCh:         make(chan struct{}, 1),
	}
}

// Start runs the paper's "upon initialization or recovery" procedure:
// retrieve logged state, replay logged Consensus instances, then fork the
// sequencer, gossip and checkpoint tasks. It blocks until the replay phase
// completes (so its return marks the end of recovery).
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
	// Under the lock with started: a Broadcast that finds the protocol
	// started also finds its context.
	p.ctx, p.cancel = context.WithCancel(ctx)
	p.mu.Unlock()

	if err := p.recover(); err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		// Stop ran during recovery: fork nothing it would not wait for.
		return ErrStopped
	}
	p.lastProgress = time.Now()
	p.wg.Add(2)
	go p.sequencerTask()
	go p.gossipTask()
	if p.cfg.CheckpointEvery > 0 {
		p.wg.Add(1)
		go p.checkpointTask()
	}
	return nil
}

// Stop ends the incarnation: tasks stop, pending Broadcast calls return
// ErrStopped. The stable storage is untouched. It may run concurrently
// with Start.
func (p *Protocol) Stop() {
	p.mu.Lock()
	p.stopped = true
	cancel := p.cancel
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	p.wg.Wait()
}

// recover implements retrieve + replay (Fig. 2 / Fig. 3).
func (p *Protocol) recover() error {
	// retrieve (k_p, Agreed_p) — present only if the alternative
	// protocol's checkpoint task (or a past state-transfer adoption)
	// logged it.
	raw, hasCkpt, err := p.st.Get(keyCkpt)
	if err != nil {
		return fmt.Errorf("core: retrieve checkpoint: %w", err)
	}
	if !hasCkpt {
		// The delivery sequence restarts from ⊥: tell the application
		// to reset to its initial state before the replay phase
		// re-delivers the history (otherwise re-deliveries would be
		// applied on top of stale pre-crash state).
		if cb := p.cfg.OnRestore; cb != nil {
			cb(Snapshot{VC: p.ds.base.VC.Clone()})
		}
	} else {
		r := wire.NewReader(raw)
		k := r.U64()
		ds := decodeDeliveryState(r)
		if ds == nil || r.Done() != nil {
			return fmt.Errorf("core: corrupt checkpoint cell")
		}
		// The checkpoint task discarded Consensus state below the floor
		// it persisted alongside the cell; without one (a cell written
		// before floors existed, or an adoption) assume the worst case —
		// everything below k is gone.
		gcFloor := k
		if fraw, ok, err := p.st.Get(keyGCFloor); err != nil {
			return fmt.Errorf("core: retrieve gc floor: %w", err)
		} else if ok {
			fr := wire.NewReader(fraw)
			if f := fr.U64(); fr.Done() == nil && f < gcFloor {
				gcFloor = f
			}
		}
		p.mu.Lock()
		p.k = k
		p.ds = ds
		p.gcFloor = gcFloor
		p.recoveredFromCkpt.Store(true)
		base := ds.snapshotBase()
		redeliver := p.tagGroup(ds.deliveries())
		restoreCb := p.cfg.OnRestore
		deliverCb := p.cfg.OnDeliver
		skipCb := p.cfg.OnRoundSkip
		p.mu.Unlock()
		if restoreCb != nil {
			restoreCb(base)
		}
		if deliverCb != nil {
			for _, d := range redeliver {
				deliverCb(d)
			}
		}
		if skipCb != nil {
			// Rounds the checkpoint folded will never reach OnRound in
			// this incarnation: announce the jump, exactly like a state-
			// transfer adoption does. Without this a recovered DRAINED
			// group (which commits nothing ever again) would leave the
			// round stream's counter at zero forever.
			skipCb(p.cfg.Group, k)
		}
		// The restored counter is this incarnation's recoverable prefix:
		// re-arm the durable-frontier gossip with it.
		if cb := p.cfg.OnCheckpoint; cb != nil {
			cb(k)
		}
	}

	// retrieve (Unordered_p) — present only with BatchedBroadcast.
	if p.cfg.BatchedBroadcast {
		if err := p.recoverUnordered(); err != nil {
			return err
		}
	}

	// replay (): the recovery procedure "parses the log of proposed and
	// agreed values (which is kept internally by Consensus)" (§4.2).
	// Rounds with a logged decision are committed straight from the log;
	// a round with only a logged proposal is re-proposed idempotently
	// and awaited. Re-deliveries reconstruct the Agreed queue.
	replayed := uint64(0)
	for {
		p.mu.Lock()
		k := p.k
		p.mu.Unlock()
		if res, ok := p.cons.DecidedLocal(k); ok {
			p.commit(k, res)
			replayed++
			continue
		}
		prop, ok := p.cons.Proposal(k)
		if !ok {
			break
		}
		if err := p.cons.Propose(k, prop); err != nil {
			if errors.Is(err, consensus.ErrDiscarded) {
				break
			}
			return fmt.Errorf("core: replay propose %d: %w", k, err)
		}
		res, err := p.cons.WaitDecided(p.ctx, k)
		if errors.Is(err, consensus.ErrDiscarded) {
			// Peers garbage-collected this instance: replay cannot
			// finish it. Stop here — once the tasks fork, the
			// gossip exchange triggers a state transfer that skips
			// over the missing rounds (§5.3).
			break
		}
		if err != nil {
			return fmt.Errorf("core: replay wait %d: %w", k, err)
		}
		p.commit(k, res)
		replayed++
	}
	p.mu.Lock()
	p.met.replayedRounds.Add(replayed)
	p.mu.Unlock()
	return nil
}

// recoverUnordered restores the Unordered set from the full cell plus the
// incremental log (§5.4/§5.5).
func (p *Protocol) recoverUnordered() error {
	recovered := 0
	if raw, ok, err := p.st.Get(keyUnord); err != nil {
		return fmt.Errorf("core: retrieve unordered: %w", err)
	} else if ok {
		r := wire.NewReader(raw)
		set := msg.DecodeSet(r)
		if r.Done() != nil {
			return fmt.Errorf("core: corrupt unordered cell")
		}
		p.mu.Lock()
		for _, m := range set.Slice() {
			if !p.ds.contains(m.ID) && p.unordered.Add(m) {
				recovered++
			}
			if m.ID.Sender == p.cfg.PID && m.ID.Seq > p.seq {
				p.seq = m.ID.Seq
			}
		}
		p.mu.Unlock()
	}
	recs, err := p.st.Records(keyUnordLog)
	if err != nil {
		return fmt.Errorf("core: read unordered log: %w", err)
	}
	p.mu.Lock()
	for _, rec := range recs {
		r := wire.NewReader(rec)
		m := msg.DecodeMessage(r)
		if r.Done() != nil {
			continue // torn/corrupt record: treated as never logged
		}
		if !p.ds.contains(m.ID) && p.unordered.Add(m) {
			recovered++
		}
		if m.ID.Sender == p.cfg.PID && m.ID.Seq > p.seq {
			p.seq = m.ID.Seq
		}
	}
	p.recoveredUnordered.Store(int64(recovered))
	if recovered > 0 {
		p.notePendingLocked()
	}
	p.mu.Unlock()
	return nil
}

// Broadcast implements A-broadcast(m). In the basic protocol it blocks
// until m is in the Agreed queue ("A-broadcast(m) does not return until the
// message m is in the agreed queue", §4.2). With BatchedBroadcast it logs
// the Unordered set and returns immediately (§5.4).
func (p *Protocol) Broadcast(ctx context.Context, payload []byte) (ids.MsgID, error) {
	p.mu.Lock()
	if p.stopped || (!p.started && !p.cfg.BatchedBroadcast) {
		// The blocking form below waits on the incarnation's context,
		// which Start makes; the node publishes the incarnation before
		// Start runs, so a caller can get here first.
		p.mu.Unlock()
		return ids.MsgID{}, ErrStopped
	}
	if p.sealed {
		// Rejected at entry: nothing was admitted, so the caller re-routes
		// the payload (with a fresh identity) to the successor group.
		p.mu.Unlock()
		return ids.MsgID{}, ErrSealed
	}
	p.seq++
	m := msg.Message{
		ID:      ids.MsgID{Sender: p.cfg.PID, Incarnation: p.cfg.Incarnation, Seq: p.seq},
		Payload: append([]byte(nil), payload...),
	}
	p.unordered.Add(m)
	p.eagerBuf = append(p.eagerBuf, m)
	p.notePendingLocked()
	p.met.broadcasts.Inc()
	p.tr.Mark(m.ID, obs.StBroadcast)

	if p.cfg.BatchedBroadcast {
		// Issue the Unordered log write under the lock (so records hit
		// the log in Unordered-set order) but wait for durability outside
		// it: on a group-commit engine every concurrent Broadcast shares
		// one fsync, and the sequencer/gossip may already work on m in
		// the meantime — safe, because until Broadcast returns, m "may
		// or may have not been A-broadcast" (§4.2).
		var c *storage.Completion
		// Pooled: the log borrows the record for the call only.
		if p.cfg.IncrementalLog {
			w := wire.GetWriter(32 + len(m.Payload))
			m.Encode(w)
			c = p.ast.AppendAsync(keyUnordLog, w.Bytes())
			wire.PutWriter(w)
		} else {
			w := wire.GetWriter(msg.BatchSize(p.unordered.Slice()))
			p.unordered.Encode(w)
			c = p.ast.PutAsync(keyUnord, w.Bytes())
			wire.PutWriter(w)
		}
		p.mu.Unlock()
		p.poke()
		p.eagerGossip()
		if err := c.Wait(); err != nil {
			// The log write failed (the incarnation is dying), but m is
			// already in the volatile Unordered set and may have been
			// gossiped: like a crash inside A-broadcast, m "may or may
			// have not been A-broadcast" — return its identity so the
			// caller can track the outcome.
			return m.ID, fmt.Errorf("core: log unordered: %w", err)
		}
		return m.ID, nil
	}

	ch := make(chan struct{})
	p.waiters[m.ID] = append(p.waiters[m.ID], ch)
	p.mu.Unlock()
	p.poke()
	p.eagerGossip()

	select {
	case <-ch:
		return m.ID, nil
	case <-p.drainedCh:
		// The group sealed and drained while we waited. If the final rounds
		// ordered m it is delivered here; otherwise it is now an orphan the
		// resharding layer re-injects (same MsgID) into the successor group —
		// either way the caller's outcome is "may have been A-broadcast",
		// the same as a crash mid-call.
		if p.Delivered(m.ID) {
			return m.ID, nil
		}
		return m.ID, ErrSealed
	case <-ctx.Done():
		return m.ID, ctx.Err()
	case <-p.ctx.Done():
		return m.ID, ErrStopped
	}
}

// BroadcastAsync adds m to the Unordered set and returns at once without
// any delivery guarantee for this incarnation (the caller behaves as if it
// might crash immediately after invoking A-broadcast). Load generators use
// it to drive open-loop workloads.
func (p *Protocol) BroadcastAsync(payload []byte) (ids.MsgID, error) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ids.MsgID{}, ErrStopped
	}
	if p.sealed {
		p.mu.Unlock()
		return ids.MsgID{}, ErrSealed
	}
	p.seq++
	m := msg.Message{
		ID:      ids.MsgID{Sender: p.cfg.PID, Incarnation: p.cfg.Incarnation, Seq: p.seq},
		Payload: append([]byte(nil), payload...),
	}
	p.unordered.Add(m)
	p.eagerBuf = append(p.eagerBuf, m)
	p.notePendingLocked()
	p.met.broadcasts.Inc()
	p.tr.Mark(m.ID, obs.StBroadcast)
	p.mu.Unlock()
	p.poke()
	p.eagerGossip()
	return m.ID, nil
}

// Inject adds m, under its existing identity, to the Unordered set: the
// resharding layer re-injects a retired group's orphans into their
// successor group through it. It reports whether the message was new here;
// one already delivered, or arriving after a drain (the sealed sequence is
// complete), is dropped.
func (p *Protocol) Inject(m msg.Message) bool {
	p.mu.Lock()
	if p.stopped || p.drained || p.ds.contains(m.ID) {
		p.mu.Unlock()
		return false
	}
	added := p.unordered.Add(m)
	if added {
		p.notePendingLocked()
	}
	p.mu.Unlock()
	if added {
		p.poke()
	}
	return added
}

// commit finishes round: the decided batch is appended to Agreed by the
// deterministic rule, the round counter advances, and ordered messages
// leave the Unordered set. Deliveries run on the caller's goroutine (the
// sequencer or the recovery procedure), preserving order. The decided value
// carries every payload it orders, so a decided round always commits.
func (p *Protocol) commit(round uint64, result []byte) {
	batch := msg.DecodeBatch(wire.NewReader(result))

	p.mu.Lock()
	deliveries := p.tagGroup(p.ds.appendBatch(round, batch))
	p.k = round + 1
	p.unordered.SubtractDelivered(p.ds.contains)
	// Messages we proposed in rounds up to this one are settled: either
	// delivered (gone from Unordered) or lost to a competing batch, in
	// which case they become pending again and a later round re-proposes
	// them.
	leftover := false
	for id, r := range p.inflightMsgs {
		if r <= round {
			delete(p.inflightMsgs, id)
			if p.unordered.Contains(id) {
				leftover = true
			}
		}
	}
	if leftover {
		p.notePendingLocked()
	}
	if p.unordered.Len() == 0 {
		// The pool drained (possibly via remotely decided batches): a
		// stale pendingSince would defeat the next batch's time trigger.
		p.pendingSince = time.Time{}
	}
	for _, d := range deliveries {
		p.notifyWaitersLocked(d.Msg.ID)
	}
	p.met.rounds.Inc()
	if len(batch) == 0 {
		p.met.emptyRounds.Inc()
	}
	p.met.delivered.Add(uint64(len(deliveries)))
	p.lastProgress = time.Now()
	if p.sealed && !p.drained && p.k >= p.sealFinal+1 {
		// The final round committed: the retiring group's sequence is
		// complete. Waiting Broadcast callers resolve via drainedCh and
		// whatever is left unordered is the orphan set.
		p.drained = true
		close(p.drainedCh)
	}
	ckptDue := p.cfg.CheckpointEvery > 0 && p.k%uint64(p.cfg.CheckpointEvery) == 0
	deliverCb := p.cfg.OnDeliver
	roundCb := p.cfg.OnRound
	p.mu.Unlock()

	if p.tr != nil {
		// Close the sampled lifecycle spans: fold the round-scoped
		// consensus stamps in, then stamp delivery.
		mids := make([]ids.MsgID, len(deliveries))
		for i, d := range deliveries {
			mids[i] = d.Msg.ID
		}
		p.tr.FoldRound(p.cfg.Group, round, mids)
		for _, id := range mids {
			p.tr.Mark(id, obs.StDeliver)
			p.tr.Finish(id, obs.StDeliver)
		}
	}

	if deliverCb != nil {
		for _, d := range deliveries {
			deliverCb(d)
		}
	}
	if roundCb != nil {
		// After OnDeliver (per-message consumers stay ahead of per-round
		// ones) and before the checkpoint trigger, so a merge frontier
		// driven by these events has seen every round a checkpoint
		// triggered here may fold under.
		roundCb(p.cfg.Group, round, deliveries)
	}
	if ckptDue {
		select {
		case p.ckptCh <- struct{}{}:
		default:
		}
	}
}

// tagGroup stamps the protocol's owning group on deliveries about to
// leave the core (OnDeliver callbacks, Sequence). Every emission path
// must pass through it — a sharded process's shared handler keys on
// Delivery.Group to tell its groups apart.
func (p *Protocol) tagGroup(ds []Delivery) []Delivery {
	for i := range ds {
		ds[i].Group = p.cfg.Group
	}
	return ds
}

// notePendingLocked records the arrival of a pending (not yet proposed)
// unordered message for the adaptive batching time trigger. p.mu held.
func (p *Protocol) notePendingLocked() {
	if p.pendingSince.IsZero() {
		p.pendingSince = time.Now()
	}
}

// notifyWaitersLocked releases Broadcast callers waiting on id. p.mu held.
func (p *Protocol) notifyWaitersLocked(id ids.MsgID) {
	if chans, ok := p.waiters[id]; ok {
		for _, ch := range chans {
			close(ch)
		}
		delete(p.waiters, id)
	}
}

// poke wakes the sequencer.
func (p *Protocol) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Seal marks the group as retiring with final round `final`: Broadcast
// rejects new messages with ErrSealed from now on, and the sequencer
// proposes only empty batches for the remaining rounds [k, final], so every
// process's round counter deterministically reaches final+1 and stops. The
// caller learns `final` from the SEAL marker ordered in the group itself
// (final = marker round + drain window), so all processes seal at the same
// boundary. Idempotent; a smaller final than an earlier seal is ignored.
func (p *Protocol) Seal(final uint64) {
	p.mu.Lock()
	if p.sealed {
		p.mu.Unlock()
		return
	}
	p.sealed = true
	p.sealFinal = final
	if !p.drained && p.k >= final+1 {
		// Already past the boundary (a restart re-applying the seal, or a
		// state adoption that jumped the counter).
		p.drained = true
		close(p.drainedCh)
	}
	p.mu.Unlock()
	p.poke() // the sequencer's batch-delay hold no longer applies
}

// Sealed returns the retirement seal state: whether Seal was applied and,
// if so, the final round of the sealed sequence.
func (p *Protocol) Sealed() (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sealed, p.sealFinal
}

// Drained reports whether a sealed group has committed its full sequence
// (round counter past the final round). Always false before Seal.
func (p *Protocol) Drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drained
}

// DrainedChan returns a channel closed when the sealed group drains (never,
// for an unsealed group). The resharding layer waits on it to bound the
// drain window.
func (p *Protocol) DrainedChan() <-chan struct{} {
	return p.drainedCh
}

// TakeOrphans removes and returns the messages left in the Unordered set
// after a sealed group drained: admitted before the seal but never ordered
// by the final rounds. The resharding layer re-injects them — same MsgID —
// into the successor group, where delivery-state dedup keeps the injection
// idempotent across the processes all doing the same. Nil until the drain.
func (p *Protocol) TakeOrphans() []msg.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.drained {
		return nil
	}
	orphans := p.unordered.Slice()
	if len(orphans) == 0 {
		return nil
	}
	out := make([]msg.Message, len(orphans))
	copy(out, orphans)
	for _, m := range out {
		p.unordered.Remove(m.ID)
	}
	return out
}

// Round returns the current round counter k_p.
func (p *Protocol) Round() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.k
}

// Delivered reports whether id is in the delivery sequence (explicitly or
// via the base checkpoint).
func (p *Protocol) Delivered(id ids.MsgID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ds.contains(id)
}

// Sequence implements A-deliver-sequence(): it returns the base snapshot
// that initiates the sequence (empty in the basic protocol) and the
// explicitly delivered suffix.
func (p *Protocol) Sequence() (Snapshot, []Delivery) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ds.snapshotBase(), p.tagGroup(p.ds.deliveries())
}

// UnorderedLen returns the size of the Unordered set (observability).
func (p *Protocol) UnorderedLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unordered.Len()
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
