package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
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

// Core-channel message subtypes.
const (
	subGossip uint8 = 1 // gossip(k_p, messages) — full payloads: eager push (to the sequencer), pull reply
	subState  uint8 = 2 // state(k_p - 1, Agreed_p)
	subDigest uint8 = 3 // gossip(k_p, IDs of Unordered_p) — the periodic frame
	subPull   uint8 = 4 // pull(IDs): please send these messages' payloads
	subFloor  uint8 = 5 // floor(the Shard's report, opaque here)
)

// Effect kinds: what a step asks its runner to do, in order.
const (
	opSend    uint8 = iota + 1 // frame w to `to` (Nobody: every other process); never to this one
	opPut                      // write w to cell key; the completion is an input (persisted)
	opAppend                   // append record w to log key; likewise
	opDelete                   // remove key; likewise
	opPropose                  // consensus: propose(k, w)
	opLearn                    // consensus: report k's decision now if it is already known here
	opDiscard                  // consensus: discardBelow(k)
	opArm                      // call fire at `at`; an earlier arm supersedes, a stale one is harmless
	opFloor                    // multisend the Shard's floor report, from the upcall goroutine
	opRelease                  // the Broadcast call of id returns err
	opDrained                  // the sealed group has drained
	// The ordered upcalls: run in this order, outside every lock.
	opRestore       // OnRestore(snap)
	opDeliver       // OnDeliver of each of ds
	opRound         // OnDeliver of each of ds, then Shard.Round(k, ds)
	opSkip          // Shard.Skip(k)
	opCheckpointed  // Shard.Checkpointed(k) unless err; releases a CheckpointNow caller if release
	opCheckpointDue // run the periodic checkpoint (off the delivery path)
	opStarted       // the replay phase is over: recovery ends once the upcalls before it ran
)

// What a write's completion does.
const (
	thenRelease  uint8 = iota + 1 // a BatchedBroadcast returns: its record is durable (§5.4)
	thenCkpt                      // one of a checkpoint's writes
	thenCkptDone                  // a checkpoint's last write: discard below n, announce k
)

// never is the deadline of a timer that is not armed.
const never = math.MaxInt64

// effect is one output of a step.
type effect struct {
	op      uint8
	then    uint8 // opPut/opAppend/opDelete: what its completion does
	release bool  // opCheckpointed, thenCkptDone: a CheckpointNow caller waits for it
	to      ids.ProcessID
	key     string
	w       *wire.Writer // a frame, cell value, record or proposal; pooled, released by the runner
	k       uint64
	n       uint64 // thenCkptDone: the discard floor
	at      int64  // opArm
	id      ids.MsgID
	err     error
	ds      []Delivery
	snap    Snapshot
}

// sighting is a missing message's pull clock: first seen missing, or last
// pulled, at, in a digest of from.
type sighting struct {
	at     int64
	from   ids.ProcessID
	pulled bool
}

// slot holds a decided round of the pipeline window until its turn.
type slot struct {
	val []byte
	ok  bool
}

// machine is the broadcast state of one process incarnation: Figs. 2-4's
// tasks and handlers as step functions. Every input — a received frame, a
// decided or forgotten instance, a write's completion, a timer firing, a
// client call — runs to completion and leaves its effects in out. The
// machine does no I/O, reads no clock (now is an argument) and starts no
// goroutine; it queries the Checkpointer, the Shard's floors and the
// consensus box's Sequencer, and writes the observability sinks; only the
// Sequencer's answer shapes a step (where a push goes).
type machine struct {
	cfg Config
	box Sequencer
	met *metrics
	tr  *obs.Tracer
	fl  *obs.Recorder
	now int64 // the clock of the running step

	restored bool // recovery loaded the logged state: the machine takes inputs
	running  bool // the replay phase is over: the tasks run

	k         uint64 // current round (next Consensus instance)
	gossipK   uint64 // highest round known decided, via gossip
	unordered *msg.Set
	ds        *deliveryState
	seq       uint64                 // local sequence numbers for MsgIDs
	blocked   map[ids.MsgID]struct{} // basic-protocol Broadcast calls waiting for delivery
	gcFloor   uint64                 // consensus instances below this were discarded

	// Retirement seal (live resharding): see Protocol.Seal.
	sealed    bool
	sealFinal uint64
	drained   bool

	// The round pipeline, rounds [k, k+depth). window[r%depth] holds round
	// r's decision until it commits; rounds below proposed were proposed
	// (or found decided) in this incarnation, rounds below learned were
	// asked of consensus. inflight marks unordered messages inside an
	// in-flight proposal; pendingSince is when the oldest pending (not yet
	// proposed) message arrived, the adaptive batching time trigger.
	window       []slot
	proposed     uint64
	learned      uint64
	inflight     map[ids.MsgID]uint64
	pendingSince int64 // never: nothing pending
	cooldown     int64 // no proposals before it (a discarded round)
	// A batch the time trigger holds back until holdUntil, with heldBytes
	// pending since: until then only the size trigger, a newer round, a
	// seal or an adoption can ripen it, so a pump that sees none of them
	// skips the rescan.
	holdUntil    int64
	heldBytes    int
	batchScratch []msg.Message
	lastProgress int64 // the idle-heartbeat deadline counts from it

	// dels holds the deliveries the ordered upcalls in out and in the
	// runner's queue carry (their ds are slices of it), until the runner
	// takes the queue and swaps in the buffer its last batch ran from.
	dels []Delivery
	// gossiped is onGossip's decoded batch, empty between steps.
	gossiped []msg.Message

	lastStateTo  map[ids.ProcessID]int64 // state-message rate limiting
	lastGossip   int64                   // eager-gossip rate limiting
	eagerBuf     []msg.Message           // locally added messages awaiting a delta gossip
	gossipCursor int                     // rotating window start for truncated gossip
	// Advertised messages still missing, and since when: the pull gate (onDigest).
	pullClock map[ids.MsgID]sighting

	// Deadlines (never: unarmed); wakeAt is the one the runner was asked for.
	gossipAt, flushAt, pumpAt, wakeAt int64

	ckptErr error // the first failure among the in-flight checkpoint's writes

	out []effect
}

func newMachine(cfg Config, box Sequencer, met *metrics, tr *obs.Tracer, fl *obs.Recorder) *machine {
	m := &machine{
		cfg:          cfg,
		box:          box,
		met:          met,
		tr:           tr,
		fl:           fl,
		unordered:    msg.NewSet(),
		ds:           newDeliveryState(),
		blocked:      make(map[ids.MsgID]struct{}),
		inflight:     make(map[ids.MsgID]uint64),
		lastStateTo:  make(map[ids.ProcessID]int64),
		pullClock:    make(map[ids.MsgID]sighting),
		pendingSince: never,
		cooldown:     math.MinInt64,
		holdUntil:    math.MinInt64,
		lastGossip:   math.MinInt64 / 2,
		gossipAt:     never,
		flushAt:      never,
		pumpAt:       never,
		wakeAt:       never,
	}
	m.window = make([]slot, m.depth())
	return m
}

// depth returns the effective pipeline depth (>= 1).
func (m *machine) depth() uint64 {
	if m.cfg.PipelineDepth > 1 {
		return uint64(m.cfg.PipelineDepth)
	}
	return 1
}

// flushed empties out once every effect in it is carried out.
func (m *machine) flushed() {
	clear(m.out)
	m.out = m.out[:0]
}

func (m *machine) emit(ef effect) { m.out = append(m.out, ef) }

// arm asks the runner to call fire at `at`, unless an earlier call is due.
func (m *machine) arm(at int64) {
	if at < m.wakeAt {
		m.wakeAt = at
		m.emit(effect{op: opArm, at: at})
	}
}

// ---- recovery ----

// recover is the retrieve half of "upon initialization or recovery"
// (Figs. 2/3): ckpt is the logged (k, Agreed) cell and floor the GC-floor
// cell, unord and recs the logged Unordered set and log (nil when absent).
// It returns how many unordered messages it retrieved. The replay of the
// logged Consensus instances follows as decided inputs; start ends it.
func (m *machine) recover(ckpt, floor, unord []byte, recs [][]byte) (int, error) {
	if ckpt == nil {
		// The delivery sequence restarts from ⊥: the application resets to
		// its initial state before the replay phase re-delivers the history
		// (otherwise re-deliveries would apply on top of stale state).
		m.emit(effect{op: opRestore, snap: Snapshot{VC: m.ds.base.VC.Clone()}})
	} else {
		r := wire.NewReader(ckpt)
		k := r.U64()
		ds := decodeDeliveryState(r)
		if ds == nil || r.Done() != nil {
			return 0, fmt.Errorf("core: corrupt checkpoint cell")
		}
		// The checkpoint discarded Consensus state below the floor it
		// logged beside the cell, and only once both cells were durable: a
		// crash between the two writes leaves the previous floor cell, or
		// none before the first discard, and nothing went past it. An
		// unreadable floor cell assumes the worst — everything below k is
		// gone.
		if floor != nil {
			m.gcFloor = k
			fr := wire.NewReader(floor)
			if f := fr.U64(); fr.Done() == nil && f < k {
				m.gcFloor = f
			}
			// Consensus keeps no floor of its own across a crash: an
			// acceptor whose cells below it are gone would promise in those
			// instances as if it had never accepted there, and let a stale
			// logged proposal be chosen a second time. Restore it first.
			m.emit(effect{op: opDiscard, k: m.gcFloor})
		}
		m.k, m.ds = k, ds
		// Rounds the checkpoint folded never reach Shard.Round in this
		// incarnation (a recovered drained group commits nothing ever
		// again). The restored counter is its recoverable prefix.
		m.installed()
		m.emit(effect{op: opCheckpointed, k: k})
	}
	recovered := 0
	if m.cfg.BatchedBroadcast {
		// retrieve (Unordered_p): the full cell plus the incremental log
		// (§5.4/§5.5); a torn or corrupt record was never logged.
		var logged []msg.Message
		if unord != nil {
			r := wire.NewReader(unord)
			set := msg.DecodeSet(r)
			if r.Done() != nil {
				return 0, fmt.Errorf("core: corrupt unordered cell")
			}
			logged = set.Slice()
		}
		for _, rec := range recs {
			r := wire.NewReader(rec)
			if mm := msg.DecodeMessage(r); r.Done() == nil {
				logged = append(logged, mm)
			}
		}
		for _, mm := range logged {
			if !m.ds.contains(mm.ID) && m.unordered.Add(mm) {
				recovered++
			}
			if mm.ID.Sender == m.cfg.PID && mm.ID.Seq > m.seq {
				m.seq = mm.ID.Seq
			}
		}
		if recovered > 0 {
			m.notePending()
		}
	}
	m.restored = true
	m.proposed, m.learned = m.k, m.k
	return recovered, nil
}

// start ends the replay phase and forks the tasks (Fig. 2): the first
// gossip goes out, the window asks consensus for what it already knows, and
// the sequencer fills it.
func (m *machine) start(now int64) {
	m.now = now
	m.running = true
	m.emit(effect{op: opStarted})
	m.lastProgress = now
	m.sendGossip()
	m.ask()
	m.pump()
}

// ---- client calls ----

// broadcast is A-broadcast(payload)'s step. A blocking call (async false)
// is released by an opRelease: in the basic protocol once the message is
// in the Agreed queue (§4.2), with BatchedBroadcast once its Unordered
// record is durable (§5.4). An async call is released at once, without any
// delivery guarantee for this incarnation.
func (m *machine) broadcast(now int64, payload []byte, async bool) (ids.MsgID, error) {
	m.now = now
	if m.sealed {
		// Rejected at entry: nothing was admitted, so the caller re-routes
		// the payload (with a fresh identity) to the successor group.
		return ids.MsgID{}, ErrSealed
	}
	m.seq++
	mm := msg.Message{
		ID:      ids.MsgID{Sender: m.cfg.PID, Incarnation: m.cfg.Incarnation, Seq: m.seq},
		Payload: append([]byte(nil), payload...),
	}
	m.unordered.Add(mm)
	m.eagerBuf = append(m.eagerBuf, mm)
	m.heldBytes += len(mm.Payload)
	m.notePending()
	m.met.broadcasts.Inc()
	m.tr.Mark(mm.ID, obs.StBroadcast)
	switch {
	case async:
	case m.cfg.BatchedBroadcast:
		// The write is issued in Unordered-set order; the sequencer and the
		// gossip may work on m before it is durable — safe, because until
		// Broadcast returns, m "may or may have not been A-broadcast" (§4.2).
		var w *wire.Writer
		op, key := opAppend, keyUnordLog
		if m.cfg.IncrementalLog {
			w = wire.GetWriter(32 + len(mm.Payload))
			mm.Encode(w)
		} else {
			w = wire.GetWriter(msg.BatchSize(m.unordered.Slice()))
			m.unordered.Encode(w)
			op, key = opPut, keyUnord
		}
		m.emit(effect{op: op, key: key, w: w, then: thenRelease, id: mm.ID})
	default:
		m.blocked[mm.ID] = struct{}{}
	}
	m.poke()
	m.eagerGossip()
	return mm.ID, nil
}

// inject adds m, under its existing identity, to the Unordered set (orphan
// re-injection by the resharding layer). It reports whether m was new; one
// already delivered, or arriving after a drain, is dropped.
func (m *machine) inject(now int64, mm msg.Message) bool {
	m.now = now
	if m.drained || m.ds.contains(mm.ID) || !m.unordered.Add(mm) {
		return false
	}
	m.heldBytes += len(mm.Payload)
	m.notePending()
	m.poke()
	return true
}

// seal is Protocol.Seal's step.
func (m *machine) seal(now int64, final uint64) {
	m.now = now
	if m.sealed {
		return
	}
	m.sealed, m.sealFinal, m.holdUntil = true, final, math.MinInt64
	// Already past the boundary: a restart re-applying the seal, or an
	// adoption that jumped the counter.
	m.checkDrained()
	m.poke() // the batch-delay hold no longer applies
}

func (m *machine) checkDrained() {
	if m.sealed && !m.drained && m.k >= m.sealFinal+1 {
		m.drained = true
		m.emit(effect{op: opDrained})
	}
}

// takeOrphans removes and returns the messages left unordered after the
// sealed group drained.
func (m *machine) takeOrphans() []msg.Message {
	if !m.drained || m.unordered.Len() == 0 {
		return nil
	}
	out := slices.Clone(m.unordered.Slice())
	for _, mm := range out {
		m.unordered.Remove(mm.ID)
	}
	return out
}

// ---- consensus's answers ----

// decided is Fig. 1's decided(k, v) upcall. Decisions commit strictly in
// round order; one beyond the window is dropped, and asked for again when
// its round enters the window.
func (m *machine) decided(now int64, k uint64, v []byte) {
	m.now = now
	if !m.restored || k < m.k || k >= m.k+m.depth() {
		return
	}
	m.window[k%m.depth()] = slot{val: v, ok: true}
	committed := false
	for s := &m.window[m.k%m.depth()]; s.ok; s = &m.window[m.k%m.depth()] {
		val := s.val
		*s = slot{}
		m.commit(m.k, val)
		committed = true
	}
	if committed {
		m.ask()
		m.pump() // the window slid
	}
}

// forgotten: peers garbage-collected instance k. A round this incarnation
// waits on backs the sequencer off for a gossip interval, until news or a
// state transfer that skips the round.
func (m *machine) forgotten(now int64, k uint64) {
	m.now = now
	if m.restored && k >= m.k && k < m.proposed {
		m.cooldown = now + int64(m.cfg.GossipInterval)
		m.pumpAt = min(m.pumpAt, m.cooldown)
		m.arm(m.pumpAt)
	}
}

// ---- the sequencer (Fig. 2, pipelined) ----

// ask has consensus report the decisions it already holds for the rounds
// that entered the window: a decision learnt while its round was beyond
// the window, or restored from the log, reaches the machine only this way.
func (m *machine) ask() {
	if !m.running {
		return
	}
	for r := max(m.learned, m.k); r < m.k+m.depth(); r++ {
		m.emit(effect{op: opLearn, k: r})
	}
	m.learned = m.k + m.depth()
}

// poke is news for the sequencer — new messages, a newer round, a staged
// transfer: it ends a discarded-round cooldown and fills the window.
func (m *machine) poke() {
	m.cooldown = math.MinInt64
	m.pump()
}

// pump fills the pipeline window [k, k+depth): up to PipelineDepth rounds
// are in flight (proposed, decision pending) while decided rounds commit
// strictly in round order, so the Agreed queue is the sequential
// sequencer's. Depth 1 is Fig. 2 exactly: propose k, wait until
// decided(k), commit, repeat. A held-back batch arms the time trigger.
func (m *machine) pump() {
	if !m.running {
		return
	}
	if m.now < m.cooldown {
		m.pumpAt = min(m.pumpAt, m.cooldown)
		m.arm(m.pumpAt)
		return
	}
	for r := max(m.proposed, m.k); r < m.k+m.depth(); r = m.proposed {
		if m.window[r%m.depth()].ok {
			m.proposed = r + 1 // decided before we had a proposal
			continue
		}
		if m.now < m.holdUntil && (m.cfg.MaxBatchBytes <= 0 || m.heldBytes < m.cfg.MaxBatchBytes) {
			// Still held back. The trigger is armed again: the pump timer
			// of an earlier hold may be what fired and called this.
			m.pumpAt = min(m.pumpAt, m.holdUntil)
			m.arm(m.pumpAt)
			return
		}
		batch, wait, ok := m.assembleBatch(r)
		if !ok {
			if wait > 0 {
				m.pumpAt = min(m.pumpAt, m.now+wait)
				m.arm(m.pumpAt)
			}
			return
		}
		// "Proposed_p[k_p] ← Unordered_p; log(Proposed_p[k_p]);
		// propose(k_p, ...)": the log is the first operation of the
		// Consensus (§4.2) — propose issues it, and on a group-commit engine
		// the proposal logs of the whole window share one fsync.
		w := wire.GetWriter(msg.BatchSize(batch))
		msg.EncodeBatch(w, batch)
		m.emit(effect{op: opPropose, k: r, w: w})
		for _, mm := range batch {
			m.tr.Mark(mm.ID, obs.StPropose)
		}
		m.proposed = r + 1
	}
}

// assembleBatch collects the proposal for fresh round r: the pending
// unordered messages (those not already inside an in-flight proposal),
// truncated by MaxBatchBytes. ok=false means the round must not be
// proposed yet; a positive wait says when the time trigger ripens it.
// batch is a prefix of a scratch slice reused by the next call.
func (m *machine) assembleBatch(r uint64) (batch []msg.Message, wait int64, ok bool) {
	if m.sealed {
		if r > m.sealFinal {
			return nil, 0, false // the sealed sequence ends at sealFinal
		}
		// Drain: propose empty rounds for the rest of the sealed sequence,
		// so every process's counter reaches final+1 without admitting new
		// content. Proposals logged before the seal still compete and may
		// win these rounds; everything else becomes an orphan.
		m.met.proposalsSubmitted.Inc()
		if r > m.k {
			m.met.pipelinedProposals.Inc()
		}
		return nil, 0, true
	}
	used := len(m.batchScratch) // what the last pass left in the scratch
	pending := m.batchScratch[:0]
	pendingBytes := 0
	for mm := range m.unordered.All() {
		if _, busy := m.inflight[mm.ID]; busy {
			continue
		}
		pending = append(pending, mm)
		pendingBytes += len(mm.Payload)
	}
	if len(pending) < used {
		// Same array, shorter fill: drop the last pass's tail, or the
		// scratch would pin those payloads after they were delivered.
		clear(pending[len(pending):used])
	}
	m.batchScratch = pending
	msg.SortCanonical(pending)
	// Per-sender fairness: when the pool overflows the batch cap, a
	// canonical-order truncation would fill the batch from the lowest-pid
	// hot broadcaster; interleave round-robin across senders first.
	if m.cfg.MaxBatchBytes > 0 && pendingBytes > m.cfg.MaxBatchBytes {
		pending = fairInterleave(pending)
	}
	var size int
	full, leftover := false, false
	for i, mm := range pending {
		if m.cfg.MaxBatchBytes > 0 && i > 0 && size+len(mm.Payload) > m.cfg.MaxBatchBytes {
			full, leftover = true, true
			break
		}
		batch = pending[:i+1]
		size += len(mm.Payload)
	}
	if m.cfg.MaxBatchBytes > 0 && size >= m.cfg.MaxBatchBytes {
		full = true // at the size cap: the batch cannot grow, don't delay it
	}
	// behind: the group decided rounds we have not learned; propose (even
	// an empty batch) so consensus pulls the missing decisions in.
	behind := m.gossipK > r
	if len(batch) == 0 && !behind {
		if m.cfg.IdleHeartbeat <= 0 || r != m.k {
			return nil, 0, false // nothing to order and nothing to learn
		}
		// Idle heartbeat: an empty round at the head once no round has
		// committed for (PID+1) idle intervals, so an idle group's counter
		// (and a cross-group merge frontier) keeps moving. The stagger makes
		// normally only the lowest live process fire; duplicates are
		// harmless empty rounds.
		deadline := m.lastProgress + int64(m.cfg.IdleHeartbeat)*int64(m.cfg.PID+1)
		if deadline > m.now {
			return nil, deadline - m.now, false
		}
		m.met.heartbeatRounds.Inc()
	}
	if len(batch) > 0 && !full && !behind && m.cfg.MaxBatchDelay > 0 && m.pendingSince != never {
		if wait := int64(m.cfg.MaxBatchDelay) - (m.now - m.pendingSince); wait > 0 {
			m.holdUntil, m.heldBytes = m.now+wait, size
			return nil, wait, false // hold back: let the batch grow
		}
	}
	m.holdUntil = math.MinInt64
	for _, mm := range batch {
		m.inflight[mm.ID] = r
	}
	if !leftover {
		m.pendingSince = never
	}
	m.met.proposalsSubmitted.Inc()
	m.met.proposedMessages.Add(uint64(len(batch)))
	if len(batch) > 0 {
		// Seal cause (bench/ reads it as core.full_seal_ratio).
		if full {
			m.met.batchFullSeals.Inc()
		} else {
			m.met.batchTimerSeals.Inc()
		}
	}
	if r > m.k {
		m.met.pipelinedProposals.Inc()
	}
	for _, mm := range batch {
		m.tr.Mark(mm.ID, obs.StBatchSeal)
	}
	return batch, 0, true
}

// fairInterleave reorders a canonically sorted pending slice into a
// round-robin across senders: message i of every sender precedes message
// i+1 of any sender, each sender's own order intact, so the truncation
// that follows takes an even share from each sender's head.
func fairInterleave(pending []msg.Message) []msg.Message {
	// Canonical order sorts by sender first: per-sender runs are contiguous.
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

// notePending records the arrival of a pending unordered message for the
// adaptive batching time trigger.
func (m *machine) notePending() {
	if m.pendingSince == never {
		m.pendingSince = m.now
	}
}

// commit finishes round: the decided batch is appended to Agreed by the
// deterministic rule, the round counter advances, and ordered messages
// leave the Unordered set. The decided value carries every payload it
// orders, so a decided round always commits.
func (m *machine) commit(round uint64, value []byte) {
	from, decided := m.ds.appendValue(round, value)
	deliveries := m.deliveries(from)
	m.k = round + 1
	m.unordered.SubtractDelivered(m.ds.contains)
	// Messages we proposed in rounds up to this one are settled: delivered,
	// or lost to a competing batch and pending again for a later round.
	leftover := false
	for id, r := range m.inflight {
		if r <= round {
			delete(m.inflight, id)
			leftover = leftover || m.unordered.Contains(id)
		}
	}
	if leftover {
		m.notePending()
		m.holdUntil = math.MinInt64 // pending again, uncounted
	}
	if m.unordered.Len() == 0 {
		// The pool drained (possibly via remotely decided batches): a stale
		// pendingSince would defeat the next batch's time trigger.
		m.pendingSince = never
	}
	for _, d := range deliveries {
		m.releaseBlocked(d.Msg.ID)
		delete(m.pullClock, d.Msg.ID)
	}
	m.met.rounds.Inc()
	if decided == 0 {
		m.met.emptyRounds.Inc()
	}
	if !m.running {
		m.met.replayedRounds.Inc()
	}
	m.met.delivered.Add(uint64(len(deliveries)))
	m.lastProgress = m.now
	m.checkDrained()
	if m.tr != nil {
		// Close the sampled lifecycle spans: fold the round-scoped
		// consensus stamps in, then stamp delivery.
		mids := make([]ids.MsgID, len(deliveries))
		for i, d := range deliveries {
			mids[i] = d.Msg.ID
		}
		m.tr.FoldRound(m.cfg.Group, round, mids)
		for _, id := range mids {
			m.tr.Mark(id, obs.StDeliver)
			m.tr.Finish(id, obs.StDeliver)
		}
	}
	// Shard.Round after OnDeliver (per-message consumers stay ahead of
	// per-round ones) and before the checkpoint, so a merge frontier driven
	// by these events has seen every round a checkpoint may fold under.
	m.emit(effect{op: opRound, k: round, ds: deliveries})
	if m.cfg.CheckpointEvery > 0 && m.k%uint64(m.cfg.CheckpointEvery) == 0 {
		m.emit(effect{op: opCheckpointDue})
	}
}

func (m *machine) releaseBlocked(id ids.MsgID) {
	if _, ok := m.blocked[id]; ok {
		delete(m.blocked, id)
		m.emit(effect{op: opRelease, id: id})
	}
}

// deliveries returns the suffix's entries from index from on as the
// Delivery values an ordered upcall carries, tagged with the owning group
// (a sharded process's shared handler keys on Delivery.Group), in dels.
func (m *machine) deliveries(from int) []Delivery {
	n := len(m.dels)
	m.dels = m.ds.appendDeliveries(m.dels, from, m.cfg.Group)
	return m.dels[n:]
}

// ---- timers ----

// fire runs the timers due at now: the gossip task's tick, the deferred
// eager flush, and the sequencer's time trigger (batch delay, idle
// heartbeat, cooldown end).
func (m *machine) fire(now int64) {
	m.now = now
	m.wakeAt = never
	if !m.running {
		return
	}
	if now >= m.gossipAt {
		m.sendGossip()
	}
	if now >= m.flushAt {
		m.flushAt = never
		m.eagerGossip()
	}
	if now >= m.pumpAt {
		m.pumpAt = never
		m.pump()
	}
	m.arm(min(m.gossipAt, m.flushAt, m.pumpAt))
}

// ---- the gossip task and the core channel ----

// sendGossip is the gossip task's tick: one digest(k_p, IDs of
// Unordered_p) frame. It disseminates data messages so every good process
// eventually proposes them — a receiver pulls the payloads it misses — and
// lets a process that was down discover the most up-to-date round (§4.2).
// When Unordered exceeds gossipMaxMessages the advertised window ROTATES
// across ticks: fairness needs repetition of all of Unordered, not its
// head.
func (m *machine) sendGossip() {
	m.gossipAt = m.now + int64(m.cfg.GossipInterval)
	m.arm(m.gossipAt)
	m.lastGossip = m.now
	snap := m.unordered.Slice()
	n, start := min(len(snap), gossipMaxMessages), 0
	if n > 0 {
		start = m.gossipCursor % len(snap)
		m.gossipCursor = (start + n) % len(snap)
	}
	m.met.gossipSent.Inc()
	m.met.digestsSent.Inc()
	w := wire.GetWriter(32 + msg.MaxIDLen*n)
	w.U8(subDigest)
	w.U64(m.k)
	w.U64(uint64(n))
	for i := range n {
		msg.EncodeID(w, snap[(start+i)%len(snap)].ID)
	}
	m.emit(effect{op: opSend, to: ids.Nobody, w: w})
	if m.cfg.Shard != nil {
		m.emit(effect{op: opFloor})
	}
	// The digest advertises IDs only: it never covers the eager buffer,
	// whose payload push peers are still owed.
	m.eagerGossip()
}

// eagerGossip pushes the messages added since the last flush, full
// payloads and only the delta, right after a local A-broadcast, to the
// sequencer, the process this one's acceptor granted its lease: its accept
// carries them to the rest. Nothing is pushed when that is this process;
// without a grant the push goes to every process. A guard well under the
// gossip interval coalesces tight submission loops; what it holds back
// goes out when the deferred flush fires.
func (m *machine) eagerGossip() {
	if len(m.eagerBuf) == 0 {
		return
	}
	to, named := m.box.Sequencer()
	if !named {
		to = ids.Nobody
	} else if to == m.cfg.PID {
		clear(m.eagerBuf)
		m.eagerBuf = m.eagerBuf[:0]
		return
	}
	guard := int64(m.cfg.GossipInterval / 128)
	if since := m.now - m.lastGossip; since < guard {
		if m.flushAt == never {
			m.flushAt = m.lastGossip + guard
			m.arm(m.flushAt)
		}
		return
	}
	batch := m.eagerBuf
	if len(batch) > gossipMaxMessages {
		batch = batch[:gossipMaxMessages]
	}
	m.lastGossip = m.now
	m.met.gossipSent.Inc()
	m.gossipFrame(batch, to)
	rest := copy(m.eagerBuf, m.eagerBuf[len(batch):])
	clear(m.eagerBuf[rest:])
	m.eagerBuf = m.eagerBuf[:rest]
	m.eagerGossip() // arms a deferred flush for a truncated tail
}

// gossipFrame emits one gossip(k, batch) full-payload frame — the eager
// push and the pull reply — to every process (Nobody) or one.
func (m *machine) gossipFrame(batch []msg.Message, to ids.ProcessID) {
	w := wire.GetWriter(16 + msg.BatchSize(batch))
	w.U8(subGossip)
	w.U64(m.k)
	msg.EncodeBatch(w, batch)
	m.emit(effect{op: opSend, to: to, w: w})
}

// receive is the input for one core-channel frame. A malformed frame is
// dropped like a lost one; so is every frame before recovery.
func (m *machine) receive(now int64, from ids.ProcessID, frame []byte) {
	m.now = now
	if !m.restored || len(frame) < 1 {
		return
	}
	r := wire.NewReader(frame)
	switch r.U8() {
	case subGossip:
		m.onGossip(from, r)
	case subState:
		m.onState(r)
	case subDigest:
		m.onDigest(from, r)
	case subPull:
		m.onPull(from, r)
	}
}

// noteRound is the round comparison of "upon receive gossip(k_q, U_q)"
// (Fig. 3 line (d)): remember a more up-to-date round, or ship state to a
// peer that lagged beyond Δ or fell under our GC floor.
func (m *machine) noteRound(from ids.ProcessID, kq uint64) {
	lagging := m.cfg.Delta > 0 && m.k > kq+m.cfg.Delta
	// A peer below our GC floor can never learn those rounds through
	// Consensus again (we discarded them, Fig. 4 line (c)); only a state
	// transfer unblocks it, whatever Δ says — a liveness hole the paper
	// leaves implicit in the tuning of Δ.
	gcForced := kq < m.gcFloor
	switch {
	case kq > m.k:
		m.gossipK, m.holdUntil = max(m.gossipK, kq), math.MinInt64
	case from != m.cfg.PID && (lagging || gcForced):
		// Rate-limited per destination, not to flood a recovering process.
		if t, ok := m.lastStateTo[from]; ok && m.now-t < 2*int64(m.cfg.GossipInterval) {
			return
		}
		m.lastStateTo[from] = m.now
		w := wire.GetWriter(m.ds.sizeHint())
		w.U8(subState)
		w.U64(m.k - 1)
		w.U64(m.gcFloor)
		m.ds.encode(w)
		m.emit(effect{op: opSend, to: from, w: w})
		m.met.stateSent.Inc()
		cause := "peer lagging"
		if gcForced {
			m.met.stateSentGCForced.Inc()
			cause = "peer below gc floor"
		}
		m.fl.Event(obs.EvStateSent, m.cfg.Group, m.k, int64(from), int64(kq), cause)
	}
}

// onGossip merges the sender's messages and compares round numbers
// ("upon receive gossip(k_q, U_q)", Fig. 2).
func (m *machine) onGossip(from ids.ProcessID, r *wire.Reader) {
	kq := r.U64()
	m.gossiped = msg.AppendBatch(m.gossiped, r)
	if r.Err() != nil {
		return // the scratch came back as given, empty
	}
	m.met.gossipReceived.Inc()
	added := 0
	for _, mm := range m.gossiped {
		// Drained: the sealed sequence is complete; re-admitting gossiped
		// leftovers would bounce the orphans between peers forever.
		if m.drained || m.ds.contains(mm.ID) || !m.unordered.Add(mm) {
			continue
		}
		added++
		m.heldBytes += len(mm.Payload)
		if m.pullClock[mm.ID].pulled {
			m.tr.Mark(mm.ID, obs.StPullRepair)
		}
		delete(m.pullClock, mm.ID)
	}
	clear(m.gossiped) // Add keeps the messages by value
	m.gossiped = m.gossiped[:0]
	if added > 0 {
		m.notePending()
	}
	news := added > 0 || kq > m.k
	m.noteRound(from, kq)
	if news {
		m.poke()
	}
}

// onDigest handles the periodic ID-only frame: the round comparison of
// onGossip, and one pull back for the advertised messages this process
// has missed for at least a gossip interval, by when the sequencer's
// accept has usually brought them. Steady-state bandwidth is
// O(|Unordered|) IDs, and a process recovers exactly the payloads it
// misses.
func (m *machine) onDigest(from ids.ProcessID, r *wire.Reader) {
	kq := r.U64()
	idList := msg.DecodeIDs(r)
	if r.Err() != nil {
		return
	}
	m.met.gossipReceived.Inc()
	interval := int64(m.cfg.GossipInterval)
	var missing []ids.MsgID
	for _, id := range idList {
		if m.drained || m.unordered.Contains(id) || m.ds.contains(id) {
			continue // drained: no pulls — the sealed sequence needs nothing
		}
		// The first sighting only starts the clock. After that, one pull
		// per message per interval: every peer advertises the same
		// backlog, and the next interval's digests retry a lost reply.
		// The last sighting's sender digests again an interval later on
		// its own clock, however the network jitters the two frames: from
		// it, three quarters of an interval here are enough.
		c, seen := m.pullClock[id]
		if !seen {
			m.pullClock[id] = sighting{at: m.now, from: from}
			continue
		}
		wait := interval
		if from == c.from {
			wait -= interval / 4
		}
		if m.now-c.at < wait {
			continue
		}
		m.pullClock[id] = sighting{at: m.now, from: from, pulled: true}
		missing = append(missing, id)
	}
	if n := len(m.pullClock); n > 8192 {
		// Clocks of messages lost with their sender, older than a digest window's rotation over n.
		age := interval * int64(1+n/gossipMaxMessages)
		maps.DeleteFunc(m.pullClock, func(_ ids.MsgID, c sighting) bool { return m.now-c.at >= age })
	}
	news := kq > m.k
	m.noteRound(from, kq)
	if len(missing) > 0 {
		m.met.pullsSent.Inc()
		if from != m.cfg.PID {
			w := wire.GetWriter(16 + msg.MaxIDLen*len(missing))
			w.U8(subPull)
			msg.EncodeIDs(w, missing)
			m.emit(effect{op: opSend, to: from, w: w})
		}
	}
	if news {
		m.poke()
	}
}

// onPull serves a pull: the requested messages still unordered here go
// back as one unicast full-payload frame. Messages already ordered are
// omitted — the requester learns them through Consensus or a state
// transfer, never as unordered payloads it might re-propose.
func (m *machine) onPull(from ids.ProcessID, r *wire.Reader) {
	idList := msg.DecodeIDs(r)
	if r.Err() != nil || len(idList) == 0 || from == m.cfg.PID {
		return
	}
	batch := make([]msg.Message, 0, min(len(idList), gossipMaxMessages))
	for _, id := range idList {
		if len(batch) >= gossipMaxMessages {
			break // the next digest tick re-advertises the rest
		}
		if mm, ok := m.unordered.Get(id); ok {
			batch = append(batch, mm)
		}
	}
	if len(batch) > 0 {
		m.met.pullsServed.Inc()
		m.gossipFrame(batch, from)
	}
}

// onState is "upon receive state(k_q, A_q)": a seriously late process
// adopts the state and skips the missed instances (Fig. 3 lines (e)/(f));
// otherwise it just notes the newer round.
func (m *machine) onState(r *wire.Reader) {
	ks := r.U64()
	floor := r.U64()
	ds := decodeDeliveryState(r)
	if ds == nil || r.Err() != nil {
		return
	}
	newK := ks + 1
	// Adopt when seriously behind (the paper's Δ rule) or when the sender
	// garbage-collected rounds we still need.
	if (m.cfg.Delta > 0 && newK > m.k+m.cfg.Delta) || (m.k < floor && newK > m.k) {
		m.adopt(ds, newK)
	} else {
		m.gossipK, m.holdUntil = max(m.gossipK, newK), math.MinInt64
	}
	m.poke()
}

// adopt installs a transferred state and skips rounds up to newK: the
// window restarts from newK (the pipelined form of "terminate task
// sequencer"), and the adopted state is logged as a checkpoint before the
// skipped instances are discarded, so a crash right after cannot replay
// into instances peers may have garbage-collected.
func (m *machine) adopt(ds *deliveryState, newK uint64) {
	clear(m.inflight)
	clear(m.window)
	m.holdUntil = math.MinInt64
	oldNext := m.ds.nextPos()
	m.ds.adopt(ds)
	m.k = newK
	m.proposed, m.learned = max(m.proposed, newK), newK
	m.checkDrained()
	m.unordered.SubtractDelivered(m.ds.contains)
	maps.DeleteFunc(m.pullClock, func(id ids.MsgID, _ sighting) bool { return m.ds.contains(id) })
	m.pendingSince = never
	if m.unordered.Len() > 0 {
		m.pendingSince = m.now
	}
	// Release the Broadcast calls whose messages the adopted state covers.
	var covered []ids.MsgID
	for id := range m.blocked {
		if m.ds.contains(id) {
			covered = append(covered, id)
		}
	}
	slices.SortFunc(covered, ids.MsgID.Compare)
	for _, id := range covered {
		m.releaseBlocked(id)
	}
	m.met.stateAdopted.Inc()
	var byTransfer int64
	if next := m.ds.nextPos(); next > oldNext {
		m.met.deliveredByTransfer.Add(next - oldNext)
		byTransfer = int64(next - oldNext)
	}
	m.fl.Event(obs.EvStateAdopt, m.cfg.Group, newK, byTransfer, 0, "state transfer adopted")
	m.installed()
	// The skipped rounds' decisions are stable — the transferred Agreed
	// queue contains them — so dropping their acceptor cells is safe.
	m.logCheckpoint(m.discardFloor(newK), false)
	m.ask()
}

// installed hands the application a delivery state that replaces its own
// (a logged checkpoint or a transfer): reset to the base, re-deliver the
// suffix, and announce the jump of the round counter to k — the rounds in
// between never reach Shard.Round here.
func (m *machine) installed() {
	m.emit(effect{op: opRestore, snap: m.ds.snapshotBase()})
	m.emit(effect{op: opDeliver, ds: m.deliveries(0)})
	m.emit(effect{op: opSkip, k: m.k})
}

// ---- the checkpoint task (Fig. 4) ----

// checkpoint is Fig. 4 lines (b)/(c): it logs (k_p, Agreed_p) — folding
// the delivered prefix into an application checkpoint when a Checkpointer
// is configured — and, once that is durable, discards Consensus state
// below k_p. release marks a CheckpointNow caller waiting for it.
func (m *machine) checkpoint(now int64, release bool) {
	m.now = now
	if m.cfg.Checkpointer != nil {
		m.fold()
	}
	m.met.checkpoints.Inc()
	if m.cfg.BatchedBroadcast && m.cfg.IncrementalLog {
		// Compact the incremental Unordered log: the rewrite is issued
		// before the delete, and after every record it covers.
		w := wire.GetWriter(msg.BatchSize(m.unordered.Slice()))
		m.unordered.Encode(w)
		m.emit(effect{op: opPut, key: keyUnord, w: w, then: thenCkpt})
		m.emit(effect{op: opDelete, key: keyUnordLog, then: thenCkpt})
	}
	// (c) Proposed_p[i], i < k_p can be discarded — capped by the
	// Shard's discard floor: a peer whose own recoverable prefix ends
	// below k still needs those instances.
	discard := m.discardFloor(m.k)
	m.fl.Event(obs.EvCheckpoint, m.cfg.Group, m.k, int64(discard), 0, "")
	m.logCheckpoint(discard, release)
}

// fold is Fig. 4 line (b), Agreed_p ← (A-checkpoint(Agreed_p),
// VC(Agreed_p)), up to the fold floor: everything delivered, unless the
// Shard's fold floor keeps the per-round structure of rounds the
// process-wide merge frontier has not passed. The Checkpointer reads the
// folded prefix in place: nothing writes the suffix while the step runs.
func (m *machine) fold() {
	floor := m.k
	if m.cfg.Shard != nil {
		floor = min(floor, m.cfg.Shard.FoldFloor())
	}
	if cut := m.ds.cutBelow(floor); cut > 0 {
		app := m.cfg.Checkpointer.Checkpoint(m.ds.base.App, m.ds.msgs[:cut])
		m.ds.foldPrefix(app, cut, floor)
	}
}

func (m *machine) discardFloor(k uint64) uint64 {
	if m.cfg.Shard != nil {
		return min(k, m.cfg.Shard.DiscardFloor())
	}
	return k
}

// logCheckpoint issues log(k_p, Agreed_p) and the GC-floor cell, which
// tells a recovering incarnation how much of its Consensus log survived.
// Once both are durable, the instances below discard go (persisted).
func (m *machine) logCheckpoint(discard uint64, release bool) {
	w := wire.GetWriter(m.ds.sizeHint())
	w.U64(m.k)
	m.ds.encode(w)
	m.emit(effect{op: opPut, key: keyCkpt, w: w, then: thenCkpt})
	fw := wire.GetWriter(16)
	fw.U64(discard)
	m.emit(effect{op: opPut, key: keyGCFloor, w: fw, then: thenCkptDone, k: m.k, n: discard, release: release})
}

// persisted is a write's completion: ef is the write it carried out. The
// runner reports completions in issue order.
func (m *machine) persisted(now int64, ef *effect, err error) {
	m.now = now
	switch ef.then {
	case thenRelease:
		m.emit(effect{op: opRelease, id: ef.id, err: err})
	case thenCkpt:
		if m.ckptErr == nil {
			m.ckptErr = err
		}
	case thenCkptDone:
		if err == nil {
			err = m.ckptErr
		}
		m.ckptErr = nil
		if err == nil {
			m.emit(effect{op: opDiscard, k: ef.n})
			m.gcFloor = max(m.gcFloor, ef.n)
		}
		m.emit(effect{op: opCheckpointed, k: ef.k, err: err, release: ef.release})
	}
}
