package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/consensus"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// roundResult is the outcome of one in-flight round's decision wait,
// delivered to the sequencer by its waiter goroutine.
type roundResult struct {
	k   uint64
	val []byte
	err error
}

// depth returns the effective pipeline depth (>= 1).
func (p *Protocol) depth() uint64 {
	if p.cfg.PipelineDepth > 1 {
		return uint64(p.cfg.PipelineDepth)
	}
	return 1
}

// sequencerTask is the heart of the ordering protocol (Fig. 2), generalized
// into a round pipeline: up to PipelineDepth consensus rounds may be in
// flight at once (proposed, decision pending) while decided batches commit
// strictly in round order — so the Agreed queue every process builds is
// identical to the sequential sequencer's. Depth 1 reproduces Fig. 2
// exactly: propose k, wait until decided(k), commit, repeat.
//
// The task is an event loop: pump fills the pipeline window (restarting
// waiters for logged proposals and submitting fresh adaptive batches),
// commitReady drains in-order decisions, and the select waits for the next
// decision, a wake (new messages, gossip news, staged state transfer), or
// the adaptive-batching time trigger.
func (p *Protocol) sequencerTask() {
	defer p.wg.Done()
	results := make(map[uint64][]byte) // decided out of order, pending commit
	var cooldown time.Time             // backoff after a discarded wait
	// One timer for every timed wait of the loop (a stopped or reset timer
	// leaves no stale tick behind since go 1.23).
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if p.ctx.Err() != nil {
			return
		}
		p.maybeAdopt()

		p.mu.Lock()
		head := p.k
		p.mu.Unlock()
		for r := range results {
			if r < head {
				delete(results, r) // committed or skipped by an adoption
			}
		}

		var delay time.Duration
		if wait := time.Until(cooldown); wait > 0 {
			delay = wait
		} else {
			delay = p.pump(results)
		}

		if p.commitReady(results) {
			continue // the window slid: refill it before blocking
		}

		var timerC <-chan time.Time
		if delay > 0 {
			timer.Reset(delay)
			timerC = timer.C
		}
		select {
		case <-p.ctx.Done():
		case res := <-p.resCh:
			p.handleResult(res, results, &cooldown)
		case <-p.wake:
			cooldown = time.Time{} // news may unblock a discarded round
		case <-timerC:
		}
	}
}

// handleResult absorbs one waiter outcome. Decisions park in results until
// their turn; failures (interrupt by a state transfer, instance discarded
// by peers) back off until the next gossip brings news or an adoption skips
// the round.
func (p *Protocol) handleResult(res roundResult, results map[uint64][]byte, cooldown *time.Time) {
	p.mu.Lock()
	delete(p.inflightRounds, res.k)
	head := p.k
	p.mu.Unlock()
	if res.err != nil {
		// Stale failures (res.k < head) were already skipped by an
		// adoption; backing off for them would freeze fresh proposals
		// right after the node caught up.
		if res.k >= head && p.ctx.Err() == nil && errors.Is(res.err, consensus.ErrDiscarded) {
			*cooldown = time.Now().Add(p.cfg.GossipInterval)
		}
		return
	}
	if res.k >= head {
		results[res.k] = res.val
	}
}

// commitReady commits decided rounds in order, starting at the head.
func (p *Protocol) commitReady(results map[uint64][]byte) bool {
	committed := false
	for {
		p.mu.Lock()
		head := p.k
		p.mu.Unlock()
		val, ok := results[head]
		if !ok {
			return committed
		}
		p.commit(head, val)
		delete(results, head)
		committed = true
	}
}

// pump fills the pipeline window [k, k+depth): rounds with a locally known
// decision short-circuit into results, rounds with a logged proposal get a
// decision waiter (re-proposing idempotently so a driver runs), and the
// first open round receives a fresh proposal assembled under the adaptive
// batching triggers. The returned duration, when positive, says how long
// the sequencer may sleep before the time trigger ripens a held-back batch.
func (p *Protocol) pump(results map[uint64][]byte) time.Duration {
	depth := p.depth()
	for {
		p.mu.Lock()
		if p.pending != nil {
			p.mu.Unlock()
			return 0 // adopt first; anything proposed now would be stale
		}
		head := p.k
		var r uint64
		slot := false
		for r = head; r < head+depth; r++ {
			if _, ok := results[r]; ok {
				continue
			}
			if _, ok := p.inflightRounds[r]; ok {
				continue
			}
			slot = true
			break
		}
		p.mu.Unlock()
		if !slot {
			return 0 // window full: wait for a decision
		}

		if v, ok := p.cons.DecidedLocal(r); ok {
			results[r] = v
			continue
		}
		if prop, ok := p.cons.Proposal(r); ok {
			// Logged by a previous incarnation or an interrupted wait:
			// re-propose idempotently so a driver pushes it, then wait.
			if err := p.cons.Propose(r, prop); err != nil {
				return 0 // below the GC floor: an adoption will skip it
			}
			p.startWaiter(r)
			continue
		}

		batch, delay, ok := p.assembleBatch(r)
		if !ok {
			return delay
		}
		// Pooled: Propose borrows the value (it keeps a copy of its own).
		w := wire.GetWriter(msg.BatchSize(batch))
		msg.EncodeBatch(w, batch)
		// "Proposed_p[k_p] ← Unordered_p; log(Proposed_p[k_p]);
		// propose(k_p, ...)". The log is the first operation of the
		// Consensus (§4.2) — Propose issues it. On a group-commit engine
		// the write is asynchronous: Propose returns once it is issued,
		// the proposal logs of all PipelineDepth in-flight rounds share
		// one fsync, and the engine sends this value only after it is
		// durable. The decision wait below resolves on a value an accept
		// quorum holds durably; the local decision cell may still be in
		// flight when commit delivers it (see consensus.API).
		err := p.cons.Propose(r, w.Bytes())
		wire.PutWriter(w)
		if err != nil {
			p.unmarkRound(r)
			return 0
		}
		for _, m := range batch {
			p.tr.Mark(m.ID, obs.StPropose)
		}
		p.startWaiter(r)
	}
}

// assembleBatch collects the proposal for fresh round r: the pending
// unordered messages (those not already inside an in-flight proposal),
// truncated by MaxBatchBytes. ok=false means the round must not
// be proposed yet; a positive delay says when the time trigger ripens it.
// batch is borrowed until the next call: it is a prefix of a scratch slice
// the sequencer goroutine reuses (most calls only answer "hold back" or
// "nothing to order"), so pump encodes it before the next call.
func (p *Protocol) assembleBatch(r uint64) (batch []msg.Message, delay time.Duration, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending != nil || r < p.k || r >= p.k+p.depth() {
		return nil, 0, false // the world moved while the lock was free
	}
	if p.sealed {
		if r > p.sealFinal {
			return nil, 0, false // the sealed sequence ends at sealFinal
		}
		// Drain: propose empty rounds for the remainder of the sealed
		// sequence, so every process's counter reaches final+1 without
		// admitting new content. Proposals logged before the seal still
		// compete and may win these rounds — their messages are delivered;
		// everything else becomes an orphan for the successor group.
		p.met.proposalsSubmitted.Inc()
		if r > p.k {
			p.met.pipelinedProposals.Inc()
		}
		return nil, 0, true
	}
	used := len(p.batchScratch) // what the last pass left in the scratch
	pending := p.batchScratch[:0]
	pendingBytes := 0
	for m := range p.unordered.All() {
		if _, busy := p.inflightMsgs[m.ID]; busy {
			continue
		}
		pending = append(pending, m)
		pendingBytes += len(m.Payload)
	}
	if len(pending) < used {
		// Same array, shorter fill: drop the last pass's tail, or the
		// scratch would pin those payloads after they were delivered.
		clear(pending[len(pending):used])
	}
	p.batchScratch = pending // keep what append grew
	msg.SortCanonical(pending)
	// Per-sender fairness: when the pending pool overflows the batch cap,
	// a canonical-order truncation would fill the whole batch from the
	// lowest-pid hot broadcaster and starve everyone behind it. Interleave
	// round-robin across senders first, so the truncation cuts every
	// sender's tail instead.
	if p.cfg.MaxBatchBytes > 0 && pendingBytes > p.cfg.MaxBatchBytes {
		pending = fairInterleave(pending)
	}
	var size int
	full, leftover := false, false
	for i, m := range pending {
		if p.cfg.MaxBatchBytes > 0 && i > 0 && size+len(m.Payload) > p.cfg.MaxBatchBytes {
			full, leftover = true, true
			break
		}
		batch = pending[:i+1]
		size += len(m.Payload)
	}
	if p.cfg.MaxBatchBytes > 0 && size >= p.cfg.MaxBatchBytes {
		full = true // at the size cap: the batch cannot grow, don't delay it
	}
	// behind: the group decided rounds we have not learned; propose (even
	// an empty batch) so WaitDecided pulls the missing decisions in.
	behind := p.gossipK > r
	if len(batch) == 0 && !behind {
		if p.cfg.IdleHeartbeat <= 0 || r != p.k {
			return nil, 0, false // nothing to order and nothing to learn
		}
		// Idle heartbeat: propose an empty round at the head once no round
		// has committed for (PID+1) idle intervals. The stagger means
		// normally only the lowest live process fires; duplicates are
		// harmless empty rounds. This keeps an idle group's round counter
		// advancing, so a cross-group merge frontier — and the checkpoint
		// folds gated on it — moves past the group instead of pinning on it.
		deadline := p.lastProgress.Add(p.cfg.IdleHeartbeat * time.Duration(p.cfg.PID+1))
		if wait := time.Until(deadline); wait > 0 {
			return nil, wait, false // not idle long enough yet
		}
		p.met.heartbeatRounds.Inc()
	}
	if len(batch) > 0 && !full && !behind && p.cfg.MaxBatchDelay > 0 {
		if wait := p.cfg.MaxBatchDelay - time.Since(p.pendingSince); wait > 0 {
			return nil, wait, false // hold back: let the batch grow
		}
	}
	for _, m := range batch {
		p.inflightMsgs[m.ID] = r
	}
	if !leftover {
		p.pendingSince = time.Time{}
	}
	p.met.proposalsSubmitted.Inc()
	p.met.proposedMessages.Add(uint64(len(batch)))
	if len(batch) > 0 {
		// Seal cause (bench/ reads it as core.full_seal_ratio): full seals
		// say the size caps fire before the delay does, timer seals say
		// load is too light to fill a batch within the window.
		if full {
			p.met.batchFullSeals.Inc()
		} else {
			p.met.batchTimerSeals.Inc()
		}
	}
	if r > p.k {
		p.met.pipelinedProposals.Inc()
	}
	for _, m := range batch {
		p.tr.Mark(m.ID, obs.StBatchSeal)
	}
	return batch, 0, true
}

// fairInterleave reorders a canonically sorted pending slice into a
// round-robin across senders: message i of every sender precedes message
// i+1 of any sender. Within one sender the canonical (sequence) order is
// preserved, so the batch truncation that follows takes an even share from
// each sender's head instead of one sender's entire backlog.
func fairInterleave(pending []msg.Message) []msg.Message {
	// Canonical order sorts by sender first: per-sender runs are
	// contiguous.
	var runs [][]msg.Message
	start := 0
	for i := 1; i <= len(pending); i++ {
		if i == len(pending) || pending[i].ID.Sender != pending[start].ID.Sender {
			runs = append(runs, pending[start:i])
			start = i
		}
	}
	if len(runs) <= 1 {
		return pending
	}
	out := make([]msg.Message, 0, len(pending))
	for i := 0; len(out) < len(pending); i++ {
		for _, run := range runs {
			if i < len(run) {
				out = append(out, run[i])
			}
		}
	}
	return out
}

// unmarkRound releases the in-flight marks taken for round r when its
// proposal could not be submitted.
func (p *Protocol) unmarkRound(r uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	leftover := false
	for id, rr := range p.inflightMsgs {
		if rr == r {
			delete(p.inflightMsgs, id)
			leftover = true
		}
	}
	if leftover {
		p.notePendingLocked()
	}
}

// startWaiter forks a goroutine waiting for round r's decision; the result
// lands on resCh for the sequencer to commit in order. The waiter's context
// is the window's interrupt handle (Fig. 3 line (e) generalizes to
// cancelling the whole window when a state transfer arrives).
func (p *Protocol) startWaiter(r uint64) {
	p.mu.Lock()
	if _, ok := p.inflightRounds[r]; ok {
		p.mu.Unlock()
		return
	}
	if p.waits == nil || p.waits.Err() != nil {
		p.waits, p.cancelWaits = context.WithCancel(p.ctx)
	}
	wctx := p.waits
	p.inflightRounds[r] = struct{}{}
	if p.pending != nil {
		p.cancelWaits() // an adoption is staged: don't outwait it
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		val, err := p.cons.WaitDecided(wctx, r)
		select {
		case p.resCh <- roundResult{k: r, val: val, err: err}:
		case <-p.ctx.Done():
		}
	}()
}

// interruptInflightLocked cancels every in-flight decision wait (the
// pipelined form of Fig. 3's "terminate task sequencer"). p.mu held.
func (p *Protocol) interruptInflightLocked() {
	if p.cancelWaits != nil {
		p.cancelWaits()
	}
}

// maybeAdopt applies a pending state transfer (Fig. 3's "upon receive
// state" when p is late): in-flight waits were interrupted, the state is
// installed, rounds are skipped, and the pipeline restarts from the new
// round.
func (p *Protocol) maybeAdopt() {
	p.mu.Lock()
	if p.pending == nil {
		p.mu.Unlock()
		return
	}
	newDS, newK := p.pending, p.pendingK
	p.pending = nil
	if newK <= p.k {
		p.mu.Unlock()
		return // stale transfer; we caught up on our own
	}
	p.interruptInflightLocked()
	clear(p.inflightMsgs)
	oldNext := p.ds.nextPos()
	p.ds.adopt(newDS)
	p.k = newK
	if p.sealed && !p.drained && p.k >= p.sealFinal+1 {
		p.drained = true
		close(p.drainedCh)
	}
	p.unordered.SubtractDelivered(p.ds.contains)
	if p.unordered.Len() > 0 {
		p.pendingSince = time.Now()
	} else {
		p.pendingSince = time.Time{}
	}
	// Release Broadcast callers whose messages the adopted state covers.
	for id := range p.waiters {
		if p.ds.contains(id) {
			p.notifyWaitersLocked(id)
		}
	}
	p.met.stateAdopted.Inc()
	var byTransfer int64
	if next := p.ds.nextPos(); next > oldNext {
		p.met.deliveredByTransfer.Add(next - oldNext)
		byTransfer = int64(next - oldNext)
	}
	p.fl.Event(obs.EvStateAdopt, p.cfg.Group, newK, byTransfer, 0, "state transfer adopted")
	base := p.ds.snapshotBase()
	suffix := p.tagGroup(p.ds.deliveries())
	restoreCb := p.cfg.OnRestore
	deliverCb := p.cfg.OnDeliver
	skipCb := p.cfg.OnRoundSkip
	w := wire.GetWriter(p.ds.sizeHint())
	defer wire.PutWriter(w)
	w.U64(p.k)
	p.ds.encode(w)
	ckptBytes := w.Bytes()
	p.mu.Unlock()

	if restoreCb != nil {
		restoreCb(base)
	}
	if deliverCb != nil {
		for _, d := range suffix {
			deliverCb(d)
		}
	}
	if skipCb != nil {
		// The adoption jumped the round counter: rounds never committed
		// here will never reach OnRound.
		skipCb(p.cfg.Group, newK)
	}

	// Persist the adopted state as a checkpoint so a crash right after
	// adoption does not replay into Consensus instances that peers may
	// have garbage-collected, then drop our own state for the skipped
	// instances. (Their decisions are stable — the transferred Agreed
	// queue contains them — so discarding acceptor cells is safe.)
	if err := p.st.Put(keyCkpt, ckptBytes); err != nil {
		return // dying incarnation
	}
	discard := newK
	if p.cfg.DiscardFloor != nil {
		if f := p.cfg.DiscardFloor(); f < discard {
			discard = f
		}
	}
	fw := wire.GetWriter(16)
	fw.U64(discard)
	_ = p.st.Put(keyGCFloor, fw.Bytes())
	wire.PutWriter(fw)
	_ = p.cons.DiscardBelow(discard)
	p.mu.Lock()
	if discard > p.gcFloor {
		p.gcFloor = discard
	}
	p.mu.Unlock()
	if cb := p.cfg.OnCheckpoint; cb != nil {
		cb(newK)
	}
}
