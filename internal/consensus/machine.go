package consensus

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Effect kinds: what a step asks its runner to do, in order.
const (
	opSend          uint8 = iota + 1 // msg to `to` (Nobody: every other process); never to this one
	opPut                            // write val to cell (cell, k); once durable, send msg to `to` if msg.kind != 0
	opDiscard                        // remove every cell (cell, i) with i < k, as one write
	opArm                            // fire t after `after` ns; a later arm of the same timer supersedes it
	opDecided                        // k decided val (stamp: the proposal's, 0 if none)
	opForgot                         // a peer reported k garbage-collected
	opLeaseAcquired                  // lease (msg.k, msg.b) acquired
	opLeaseLost                      // lease (msg.k, msg.b) dropped
)

// Cells of the log, one per kind of durable state (engine.go maps them to
// keys). No decision is logged: a recovered process learns it again
// (machine.start).
const (
	cellProposal byte = 'p'
	cellAcceptor byte = 'a'
	cellLease    byte = 'l' // the acceptor's lease grant (k unused)
)

// effect is one output of a step.
type effect struct {
	op    uint8
	cell  byte
	to    ids.ProcessID
	k     uint64
	val   []byte
	msg   message
	t     timer
	after int64
	stamp int64
}

// timer names one armed timer: an instance k's driver timer (its phase
// deadline or backoff), or the lease timer (an acquisition's deadline,
// then the held lease's TTL) when gen is m.leaseTimer. Generations are
// unique, so a firing tells itself from a superseded arm.
type timer struct {
	k   uint64
	gen uint64
}

// instance holds the per-instance state. Acceptor fields mirror the logged
// acceptor cell; everything else is volatile.
type instance struct {
	k uint64

	// proposer state. proposal is this incarnation's value for k, fixed by
	// its first Propose. hasProp means it is durable (the paper's logged
	// Proposed_p[k]); propPending that its write is issued, not yet
	// durable; propDeferred that the write is not issued yet, because this
	// process granted a lease covering k to another process and logs only
	// once it would coordinate (see leaseElsewhere). A classic ballot sends
	// the value only once hasProp has flipped; the holder's lease ballot
	// sends it beside the write (the rule in the package comment). A
	// deferred value, never logged or sent from here, sits in a pooled
	// buffer instead of a heap copy: a takeover (logProposal) swaps in an
	// owned copy first; a decision or a discard gives the buffer back
	// (dropPooled); a dying incarnation leaves it to the GC.
	proposal     []byte
	pooled       *wire.Writer
	hasProp      bool
	propPending  bool
	propDeferred bool
	stamp        int64 // the adapter's clock at the first Propose (observability)

	// acceptor state (logged before every reply)
	promised uint64
	accB     uint64
	accV     []byte
	hasAcc   bool

	// learner state (volatile). hasDec flips when the decision is learned:
	// a decided value is held durably by an accept quorum's acceptor cells,
	// so no process logs it, and a recovered one learns it again. wasForgot
	// is set when a peer reports it garbage-collected this instance
	// (mForgotten): waiters then fall back to the broadcast layer's state
	// transfer.
	decided   []byte
	hasDec    bool
	wasForgot bool

	// driver state (volatile). relearn marks a driver that recovery
	// resumed (start): its first wait learns, whatever the policy says;
	// quiet that this wait sends no request, because a lower instance's
	// request asks for this one's decision too (decideWindow).
	driving bool
	relearn bool
	quiet   bool
	queued  bool   // on m.ready
	gone    bool   // GC'd under the floor; the driver stops
	inPhase bool   // waits for replies to its ballot, else for a poke or its backoff
	timer   uint64 // gen of the armed driver timer, 0 if none (or fired)
	fast    bool   // the ballot is a lease round
	attempt uint64
	fails   int
	stuck   int // consecutive idle waits

	curBallot uint64
	phase     int    // 0 idle, 1 collecting promises, 2 collecting accepts
	val       []byte // the value phase 2 carries
	promises  []promiseInfo
	accepts   []ids.ProcessID
	maxNack   uint64
}

type promiseInfo struct {
	from   ids.ProcessID
	hasAcc bool
	accB   uint64
	accV   []byte
}

// proposed reports whether this incarnation has a proposal for the
// instance in any state: durable, in flight or deferred.
func (in *instance) proposed() bool {
	return in.hasProp || in.propPending || in.propDeferred
}

// machine is the consensus state of one process incarnation.
type machine struct {
	cfg Config
	fd  Suspector // may be nil (tests); then every process may drive
	rng *rand.Rand

	insts   map[uint64]*instance
	floor   uint64 // instances below this are discarded
	logged  uint64 // one past the highest instance restore found a value logged for
	running bool   // from start to the incarnation's end: drivers and lease acquisitions run

	// Acceptor-side lease grant (durable, cellLease): a ranged promise to
	// refuse ballots < grantB in every instance >= grantFrom. A newer grant
	// never narrows the range (grantFrom only moves down), so the
	// attestation behind an older grant is never silently dropped.
	grantHeld bool
	grantB    uint64
	grantFrom uint64

	// Holder-side lease (volatile: a recovered holder re-acquires): the
	// lease (leaseFrom, leaseB) held, or the last one requested.
	// leaseSeenB is the highest ballot this incarnation's requests used or
	// their refusals reported; leaseVotes records, per acceptor that
	// answered the pending request or, the lease held, a re-ask, whether
	// it granted.
	leaseHeld      bool
	leaseAcquiring bool
	leaseB         uint64
	leaseFrom      uint64
	leaseTimer     uint64 // gen of the lease timer
	leaseSeenB     uint64
	leaseVotes     []leaseVote
	leaseStats     LeaseStats

	gen   uint64      // last timer generation handed out
	ready []*instance // drivers a step woke, run by more
	free  []*instance // discarded instances no driver holds, for get to reuse
	local []message   // this process's own share of its sends, taken by more
	out   []effect
	cells wire.Writer // the values of this step's cell writes
}

type leaseVote struct {
	from    ids.ProcessID
	granted bool
}

func newMachine(cfg Config, fd Suspector) *machine {
	cfg.fill()
	return &machine{
		cfg:   cfg,
		fd:    fd,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa5a5a5a5deadbeef)),
		insts: make(map[uint64]*instance),
	}
}

// restore loads one durable cell; it is the consensus side of crash
// recovery. val is the machine's to keep. A proposal, or an acceptor cell
// holding an accepted value, raises logged past k; a bare promise carries
// no value to learn or propose.
func (m *machine) restore(cell byte, k uint64, val []byte) error {
	r := wire.NewReader(val)
	if cell == cellLease {
		// The lease-grant cell is a ranged promise: forgetting it across a
		// crash would let the acceptor promise/accept below a granted
		// ballot.
		m.grantB = r.U64()
		m.grantFrom = r.U64()
		m.grantHeld = true
		return r.Done()
	}
	in := m.get(k)
	switch cell {
	case cellProposal:
		in.proposal = val
		in.hasProp = true
	case cellAcceptor:
		in.promised = r.U64()
		in.hasAcc = r.Bool()
		in.accB = r.U64()
		in.accV = r.Bytes32()
		if err := r.Done(); err != nil || !in.hasAcc {
			return err
		}
	default:
		return nil
	}
	m.logged = max(m.logged, k+1)
	return nil
}

// start lets drivers run, and resumes one for every instance from the
// floor up to the last one restore found a value logged for. No decision
// is logged: each is learned again, or decided if it never was, and the
// broadcast layer's replay waits for all of them
// (Box.Logged). A resumed driver first learns, and one decide request
// covers decideWindow instances after its own: only every
// (decideWindow+1)-th instance asks, so a recovery costs each peer one
// request, and one reply, per window rather than per instance.
func (m *machine) start() {
	m.running = true
	for k := m.floor; k < m.logged; k++ {
		in := m.get(k)
		in.relearn = true
		in.quiet = (k-m.floor)%(decideWindow+1) != 0
		m.startDriver(in)
	}
}

func byK(a, b *instance) int { return cmp.Compare(a.k, b.k) }

// get returns k's instance, made on first use from a discarded one if
// there is one: a fresh instance but for the capacity of its vote lists.
func (m *machine) get(k uint64) *instance {
	in, ok := m.insts[k]
	if !ok {
		if n := len(m.free); n > 0 {
			in = m.free[n-1]
			m.free = m.free[:n-1]
			*in = instance{k: k, promises: in.promises[:0], accepts: in.accepts[:0]}
		} else {
			in = &instance{k: k}
		}
		m.insts[k] = in
	}
	return in
}

// recycle puts a discarded instance on the free list once nothing holds
// it: not queued to drive, not driving (a driver stops at its next run).
func (m *machine) recycle(in *instance) {
	if in.gone && !in.queued && !in.driving {
		clear(in.promises) // the values they point into
		m.free = append(m.free, in)
	}
}

// more reports whether out has an effect at index i. Once the effects up
// to i are all carried out, it first takes the messages this process sent
// itself as inputs, then runs the drivers woken so far, until one of them
// leaves an effect: so a driver sees the completions that its input's
// writes resolved at issue, and no input is stepped inside another.
func (m *machine) more(i int) bool {
	for i >= len(m.out) {
		switch {
		case len(m.local) > 0:
			for j := 0; j < len(m.local); j++ {
				m.receive(m.cfg.PID, m.local[j])
			}
			clear(m.local)
			m.local = m.local[:0]
		case len(m.ready) > 0:
			for j := 0; j < len(m.ready); j++ {
				in := m.ready[j]
				in.queued = false
				m.drive(in)
				m.recycle(in)
			}
			clear(m.ready)
			m.ready = m.ready[:0]
		default:
			return false
		}
	}
	return true
}

// drained empties out once every effect in it is carried out.
func (m *machine) drained() {
	clear(m.out)
	m.out = m.out[:0]
	wire.Poison(m.cells.Bytes())
	m.cells.Reset()
}

// send emits msg for `to`, Nobody for every process. No process sends
// itself a frame: its own share is the message itself, queued as an input
// that more takes after the effects issued so far, with no encode, copy or
// decode. A decision and a learner's request are news to the others only.
func (m *machine) send(to ids.ProcessID, msg message) {
	if to != m.cfg.PID {
		m.out = append(m.out, effect{op: opSend, to: to, msg: msg})
	}
	if to == m.cfg.PID || to == ids.Nobody && msg.kind != mChosen && msg.kind != mDecideReq {
		m.local = append(m.local, msg)
	}
}

func (m *machine) put(cell byte, k uint64, val []byte, to ids.ProcessID, reply message) {
	m.out = append(m.out, effect{op: opPut, cell: cell, k: k, val: val, to: to, msg: reply})
}

func (m *machine) arm(k uint64, after int64) uint64 {
	m.gen++
	m.out = append(m.out, effect{op: opArm, t: timer{k: k, gen: m.gen}, after: after})
	return m.gen
}

// logAcceptor issues in's acceptor cell; reply goes to `to` once the cell
// is durable — the §2.1 discipline: volatile state may move early, but the
// process only acts (promises/accepts on the wire) after the write is
// durable. A failed write means a dying incarnation: it stays silent,
// exactly like a crash between the log call and the send.
func (m *machine) logAcceptor(in *instance, to ids.ProcessID, reply message) {
	start := m.cells.Len()
	m.cells.U64(in.promised)
	m.cells.Bool(in.hasAcc)
	m.cells.U64(in.accB)
	m.cells.Bytes32(in.accV)
	m.put(cellAcceptor, in.k, m.cells.Bytes()[start:], to, reply)
}

// persisted is a write's completion: ef is the opPut it carried out. The
// reply it protected leaves now, to this process too: the holder counts
// its own accept only once its acceptor cell is durable.
func (m *machine) persisted(ef *effect, err error) {
	if err == nil && ef.msg.kind != 0 {
		m.send(ef.to, ef.msg)
	}
	if ef.cell != cellProposal {
		return
	}
	in, ok := m.insts[ef.k]
	if !ok {
		return // discarded meanwhile
	}
	in.propPending = false
	if err == nil {
		in.hasProp = true
		m.startDriver(in)
	}
	// Either way the driver has news: its value may go out now, or (dying
	// incarnation) it never will and the ballot is given up.
	m.wake(in)
}

// live reports whether t is still armed: not fired, and not superseded by
// a later arm or by the end of what it timed.
func (m *machine) live(t timer) bool {
	in, ok := m.insts[t.k]
	return t.gen == m.leaseTimer || ok && in.timer == t.gen
}

// fire is a timer going off.
func (m *machine) fire(t timer) {
	if !m.running || !m.live(t) {
		return
	}
	if t.gen == m.leaseTimer {
		m.leaseTimer = 0
		m.leaseAcquiring = false // no grant quorum within the phase timeout
		m.dropLease()            // a whole LeaseTTL without a successful round
		return
	}
	in := m.insts[t.k]
	in.timer = 0 // in a phase: the deadline passed
	m.wake(in)
}

// propose is Engine.Propose's step.
func (m *machine) propose(k uint64, v []byte, stamp int64) error {
	if k < m.floor {
		return fmt.Errorf("%w: instance %d below floor %d", ErrDiscarded, k, m.floor)
	}
	in := m.get(k)
	if in.hasDec {
		return nil
	}
	if !in.proposed() {
		if in.proposal == nil {
			// A value taken by an earlier Propose whose write failed
			// stays: it may already be on the wire at the lease ballot.
			if m.leaseElsewhere(k) {
				in.pooled = wire.GetWriter(len(v))
				in.pooled.Raw(v)
				in.proposal = in.pooled.Bytes()
			} else {
				in.proposal = append([]byte{}, v...) // non-nil even when empty
			}
			in.stamp = stamp
		}
		if m.leaseElsewhere(k) {
			// Another process's lease makes its value the only one
			// choosable at or below its ballot here: log ours only if we
			// coordinate.
			in.propDeferred = true
		} else {
			// "A process proposes by logging its initial value on stable
			// storage; this is the only logging required by our basic
			// version of the protocol" (§3.2). The write is issued before
			// anything else.
			m.logProposal(in)
		}
	}
	// P4: the value proposed to instance k never changes — across crashes
	// through the log, within an incarnation through in.proposal. A
	// different v is a caller bug; the original stays.
	m.startDriver(in)
	return nil
}

// logProposal issues the write of in.proposal. On a group-commit log the
// proposals of all pipelined rounds coalesce into one fsync and the driver
// runs beside it: phase 1 of a classic ballot (a prepare carries no value;
// phase 2 waits for hasProp), or the whole round at the lease ballot.
func (m *machine) logProposal(in *instance) {
	if in.pooled != nil {
		// The log, the accept frames and the self-input take the value
		// from here on: own it before its pooled buffer goes back.
		v := append([]byte{}, in.proposal...)
		in.dropPooled()
		in.proposal = v
	}
	in.propDeferred = false
	in.propPending = true
	m.put(cellProposal, in.k, in.proposal, ids.Nobody, message{})
}

// decide records a decision, the machine's one place that installs one.
// The value was chosen by an accept quorum whose acceptor cells are
// durable (an accepted reply is only sent once its cell is), so it is
// installed at once, and nowhere logged — WaitDecided, DecidedLocal, the
// mDecide replies and the broadcast layer's commit act on it. A process
// that crashes learns the same value again (start), as it would had it
// crashed before learning it at all. v is already the machine's own — a
// slice of a received frame, the logged proposal, or an accepted value —
// and immutable, so it is installed without another copy.
func (m *machine) decide(in *instance, v []byte) {
	if in.hasDec {
		return
	}
	in.dropPooled()
	in.decided = v
	in.hasDec = true
	m.out = append(m.out, effect{op: opDecided, k: in.k, val: v, stamp: in.stamp})
	m.wake(in)
}

// dropPooled gives a deferred proposal's pooled buffer back once nothing
// reads it: its instance was decided or discarded, or a takeover copied it.
func (in *instance) dropPooled() {
	if in.pooled != nil {
		wire.PutWriter(in.pooled)
		in.pooled, in.proposal = nil, nil
	}
}

// decidedLocal returns k's decision, if this process knows it.
func (m *machine) decidedLocal(k uint64) ([]byte, bool) {
	if in, ok := m.insts[k]; ok && in.hasDec {
		return in.decided, true
	}
	return nil, false
}

// forgot reports whether k is below the floor or a peer reported it
// garbage-collected, with no decision here.
func (m *machine) forgot(k uint64) bool {
	in, ok := m.insts[k]
	return k < m.floor || ok && in.wasForgot && !in.hasDec
}

// markForgot records a peer's report that it GC'd this instance.
func (m *machine) markForgot(in *instance) {
	if !in.wasForgot && !in.hasDec {
		in.wasForgot = true
		m.out = append(m.out, effect{op: opForgot, k: in.k})
		m.wake(in)
	}
}

// discardBelow is Machine.DiscardBelow: it drops the instances below k
// and discards each kind of cell below k with one write, whatever the
// number of instances. A recovered process's discard at its restored
// floor repeats those writes, which is harmless: they are idempotent.
func (m *machine) discardBelow(k uint64) {
	if k <= m.floor {
		return
	}
	m.floor = k
	var gone []*instance
	for kk, in := range m.insts {
		if kk < k {
			gone = append(gone, in)
			delete(m.insts, kk)
		}
	}
	slices.SortFunc(gone, byK)
	for _, in := range gone {
		in.gone = true
		in.dropPooled()
		m.wake(in)
		m.recycle(in)
	}
	for _, cell := range [...]byte{cellProposal, cellAcceptor} {
		m.out = append(m.out, effect{op: opDiscard, cell: cell, k: k})
	}
}

// ---- the driver ----
//
// A driver pushes one instance to a decision: as coordinator when the
// policy says so, as a decision requester otherwise. It is a loop whose
// every blocking wait is a return: drive resumes it when a poke (wake) or
// its timer ends the wait.

// startDriver starts in's driver if it is not already running.
func (m *machine) startDriver(in *instance) {
	if in.driving || in.hasDec || in.gone || !m.running {
		return
	}
	in.driving = true
	// Resume above anything this process ever promised, lease grants
	// included: ballots at or below them are already refused here.
	in.attempt = m.attemptAbove(max(in.promised, m.grantBound(in.k)))
	in.fails, in.stuck, in.inPhase = 0, 0, false
	m.wake(in)
}

// wake queues in's driver to run once the current step's effects are
// carried out. Pokes coalesce.
func (m *machine) wake(in *instance) {
	if in.driving && !in.queued {
		in.queued = true
		m.ready = append(m.ready, in)
	}
}

func (m *machine) stopDriving(in *instance) {
	in.driving, in.inPhase, in.timer = false, false, 0
}

// drive resumes in's driver where it waits.
func (m *machine) drive(in *instance) {
	if !in.driving || !m.running {
		m.stopDriving(in)
		return
	}
	if !in.inPhase {
		in.timer = 0 // a poke or the timer ended the backoff
	} else if !m.phaseOver(in) {
		return
	}
	for {
		if in.hasDec || in.gone || in.wasForgot {
			m.stopDriving(in)
			return
		}
		if m.skipTurn(in.attempt) {
			in.attempt++
			continue
		}
		if !m.coordinates(in) {
			// Learner mode: ask around for the decision (and the rest of
			// the pipeline window), then wait. A deferred proposal
			// expects the lease holder's round, whose decision arrives
			// unasked, and a quiet one a lower instance's request: the
			// first wait of either sends no request.
			if in.stuck > 0 || !in.propDeferred && !in.quiet {
				m.send(ids.Nobody, message{kind: mDecideReq, k: in.k, span: decideWindow})
			}
			in.relearn, in.quiet = false, false
			in.stuck++
			if m.cfg.Policy == PolicyRotating {
				in.attempt++
			}
			m.backoff(in)
			return
		}
		in.stuck = 0
		if in.propDeferred {
			m.logProposal(in)
		}
		// Lease fast path: while this process holds the stable-sequencer
		// lease covering in.k, skip phase 1 and push its own proposal at
		// the lease ballot, beside its log write. Any failure drops the
		// lease and falls back to a full ballot.
		b, v, fast := m.leaseBallot(in)
		if in.fast = fast; fast {
			m.startPhase(in, message{kind: mAccept, k: in.k, b: b, val: v})
		} else {
			m.startPhase(in, message{kind: mPrepare, k: in.k, b: m.ballotFor(in.attempt)})
		}
		return
	}
}

// coordinates reports whether in's driver runs a ballot now rather than
// wait for the decision as a learner. Any proposal is enough when it is
// this process's turn: a deferred one is logged first, and the ballot
// runs beside its write. An accepted value without a proposal is enough
// only once the grace waits are over: phase 1 then proposes the value of
// the highest ballot it finds, or this one, and never invents one. A
// driver that recovery resumed learns first.
func (m *machine) coordinates(in *instance) bool {
	switch {
	case in.relearn:
		return false
	case in.proposed():
		return m.myTurn(in.attempt, in.stuck)
	}
	return in.hasAcc && in.stuck > graceWaits && m.myTurn(in.attempt, in.stuck)
}

// startPhase broadcasts msg and collects a majority of replies, until the
// phase deadline: phase 1 for a prepare, phase 2 for an accept — the whole
// round on the lease fast path (where the grant quorum's attestation
// replaces phase 1) and the second half of a classic ballot.
func (m *machine) startPhase(in *instance, msg message) {
	in.curBallot, in.phase, in.val, in.maxNack = msg.b, 1, msg.val, 0
	if msg.kind == mAccept {
		in.phase = 2
	}
	in.promises, in.accepts = in.promises[:0], in.accepts[:0]
	m.send(ids.Nobody, msg)
	in.inPhase = true
	in.timer = m.arm(in.k, m.phaseTimeout())
}

// phaseOver re-examines the phase in collects replies for, and once its
// ballot is over — decided (by this process or concurrently), refused, or
// timed out — takes the driver's next step (afterBallot).
func (m *machine) phaseOver(in *instance) bool {
	if in.hasDec || in.gone {
		return m.afterBallot(in, true, 0)
	}
	if in.maxNack > in.curBallot {
		in.phase = 0
		return m.afterBallot(in, false, in.maxNack)
	}
	q := Quorum(m.cfg.N)
	if in.phase == 1 && len(in.promises) >= q {
		// Choose the value: the accepted value with the highest ballot
		// wins; otherwise our own proposal (Uniform Validity) — which may
		// go on the wire only once it is durable here, so that a recovered
		// proposer re-proposes the same value (P4). The prepare ran beside
		// that write; this is where the ballot waits for it, and gives up
		// if the write failed. Without a proposal, the value this acceptor
		// accepted: the quorum reports none below this ballot, so none was
		// chosen, and that value was proposed.
		var v []byte
		var bestB uint64
		found := false
		for _, pi := range in.promises {
			if pi.hasAcc && (!found || pi.accB > bestB) {
				v, bestB, found = pi.accV, pi.accB, true
			}
		}
		switch {
		case found:
		case in.hasProp:
			v, found = in.proposal, true
		case in.propPending: // its write is in flight
		case in.hasAcc:
			v, found = in.accV, true
		default:
			in.phase = 0
			return m.afterBallot(in, false, 0) // no value to propose: the proposal's write failed
		}
		if found {
			m.startPhase(in, message{kind: mAccept, k: in.k, b: in.curBallot, val: v})
			return false
		}
	}
	if in.phase == 2 && len(in.accepts) >= q {
		// Chosen by the quorum's durable acceptor cells: decide, and tell
		// everyone the ballot. The value already went out in the accept.
		m.decide(in, in.val)
		m.send(ids.Nobody, message{kind: mChosen, k: in.k, b: in.curBallot})
		return m.afterBallot(in, true, 0)
	}
	return in.timer == 0 && m.afterBallot(in, false, 0)
}

// afterBallot is the driver's step once a ballot is over: decided, or
// refused with the highest conflicting ballot seen in a nack (higher, 0 if
// none). It reports whether the driver goes straight on; otherwise it has
// stopped or waits.
func (m *machine) afterBallot(in *instance, decided bool, higher uint64) bool {
	in.inPhase = false
	if in.fast {
		m.leaseRoundDone(decided)
		if decided {
			m.stopDriving(in)
			return false
		}
		in.attempt = m.attemptAbove(max(higher, in.curBallot))
		in.fails++
		m.backoff(in)
		return false
	}
	if decided {
		// The round just decided under this process's classic
		// coordination: the moment to (re-)establish the lease for the
		// instances after it.
		m.maybeAcquireLease(in.k + 1)
		m.stopDriving(in)
		return false
	}
	if higher > 0 {
		in.attempt = m.attemptAbove(higher)
		if higher == m.leaseB {
			// Outbid by this process's own lease request (a grant covers
			// everything from the acceptor's oldest grant on): no
			// competitor to back off from, so re-ballot at once.
			return true
		}
	} else {
		in.attempt++
	}
	in.fails++
	m.backoff(in)
	return false
}

// backoff waits before re-examining the instance, longer with consecutive
// failures and jittered to break ties between competitors. A poke ends the
// wait early.
func (m *machine) backoff(in *instance) {
	d := m.cfg.RetryMin << uint(min(in.fails, 5))
	if d > m.cfg.RetryMax {
		d = m.cfg.RetryMax
	}
	j := m.rng.Int64N(int64(m.cfg.RetryMin) + 1)
	in.timer = m.arm(in.k, int64(d)+j)
}

// phaseTimeout is the per-phase wait for quorum responses, in ns.
func (m *machine) phaseTimeout() int64 { return int64(m.cfg.RetryMax) }

// ballotFor computes the ballot of logical attempt a for this machine's
// policy. Ballots are globally unique: under PolicyLeader every process
// embeds its own pid; under PolicyRotating attempt a belongs exclusively
// to process a mod n.
func (m *machine) ballotFor(a uint64) uint64 {
	n := uint64(m.cfg.N)
	if m.cfg.Policy == PolicyRotating {
		return a*n + a%n + 1
	}
	return a*n + uint64(m.cfg.PID) + 1
}

// attemptAbove returns the smallest attempt whose ballot exceeds b.
func (m *machine) attemptAbove(b uint64) uint64 {
	return b/uint64(m.cfg.N) + 1
}

// graceWaits is how many idle waits a driver makes before it coordinates
// out of turn.
const graceWaits = 8

// myTurn reports whether this process should coordinate attempt a. stuck
// counts consecutive idle waits; after enough of them the process drives
// regardless (ballot safety makes competition harmless, and this
// guarantees termination even if the detector's hint is wrong).
func (m *machine) myTurn(a uint64, stuck int) bool {
	switch {
	case m.cfg.Policy == PolicyRotating:
		return ids.ProcessID(a%uint64(m.cfg.N)) == m.cfg.PID || stuck > graceWaits
	case m.fd == nil || m.fd.Leader() == m.cfg.PID:
		return true
	}
	return stuck > graceWaits
}

// skipTurn reports whether attempt a's owner is suspected, letting
// rotating processes advance without waiting the full timeout.
func (m *machine) skipTurn(a uint64) bool {
	if m.cfg.Policy != PolicyRotating || m.fd == nil {
		return false
	}
	owner := ids.ProcessID(a % uint64(m.cfg.N))
	return owner != m.cfg.PID && m.fd.Suspects(owner)
}

// receive is the machine's input for one frame of the consensus channel.
// Every branch issues at most one stable-storage write and one send,
// except decide-request/decide-multi, which serve a bounded window of
// decisions (decideWindow) for pipelined learners. A reply that a write
// protects rides on that write's effect, so it leaves only once the write
// is durable while the writes of all in-flight instances coalesce into
// shared group commits.
func (m *machine) receive(from ids.ProcessID, msg message) {
	switch msg.kind {
	case mDecideMulti:
		// Filtered per entry: a reply whose first instance fell under the
		// floor may still carry decisions above it.
		for _, d := range msg.multi {
			if d.k >= m.floor {
				m.decide(m.get(d.k), d.val)
			}
		}
		return
	case mLeaseReq:
		// Before the floor check: lease messages carry a range start in
		// msg.k, not a live instance (onLeaseReq applies its own floor
		// rule).
		m.onLeaseReq(from, msg)
		return
	case mLeaseAck, mLeaseNack:
		m.onLeaseVote(from, msg)
		return
	}
	if msg.k < m.floor {
		// The instance was garbage-collected under a checkpoint; the asker
		// will catch up through the broadcast layer's state transfer
		// (§5.3).
		if msg.kind == mPrepare || msg.kind == mAccept || msg.kind == mDecideReq {
			m.send(from, message{kind: mForgotten, k: msg.k, promised: m.floor})
		}
		return
	}
	in := m.get(msg.k)

	switch msg.kind {
	case mPrepare:
		if in.hasDec {
			m.send(from, message{kind: mDecide, k: msg.k, val: in.decided})
			return
		}
		// The effective promise includes any lease grant covering this
		// instance: a granted range behaves like a promise at the lease
		// ballot in every covered instance (that refusal is the whole
		// point of the grant).
		if msg.b > max(in.promised, m.grantBound(msg.k)) {
			in.promised = msg.b
			m.logAcceptor(in, from, message{
				kind:   mPromise,
				k:      msg.k,
				b:      msg.b,
				hasAcc: in.hasAcc,
				accB:   in.accB,
				val:    in.accV,
			})
			return
		}
		m.send(from, message{kind: mNack, k: msg.k, b: msg.b, promised: max(in.promised, m.grantBound(msg.k))})

	case mAccept:
		if in.hasDec {
			m.send(from, message{kind: mDecide, k: msg.k, val: in.decided})
			return
		}
		// The lease holder's own accepts arrive at exactly the grant
		// ballot, which passes (>=); everyone else is below it and is
		// nacked with the bound so they re-ballot above the lease.
		if msg.b >= max(in.promised, m.grantBound(msg.k)) {
			in.promised = msg.b
			in.accB = msg.b
			in.accV = msg.val
			in.hasAcc = true
			m.logAcceptor(in, from, message{kind: mAccepted, k: msg.k, b: msg.b})
			return
		}
		m.send(from, message{kind: mNack, k: msg.k, b: msg.b, promised: max(in.promised, m.grantBound(msg.k))})

	case mPromise:
		// A duplicate carries what the first did: an acceptor promises a
		// ballot once.
		if in.phase == 1 && msg.b == in.curBallot &&
			!slices.ContainsFunc(in.promises, func(pi promiseInfo) bool { return pi.from == from }) {
			in.promises = append(in.promises, promiseInfo{from: from, hasAcc: msg.hasAcc, accB: msg.accB, accV: msg.val})
			m.wake(in)
		}

	case mAccepted:
		if in.phase == 2 && msg.b == in.curBallot && !slices.Contains(in.accepts, from) {
			in.accepts = append(in.accepts, from)
			m.wake(in)
		}

	case mNack:
		if msg.b == in.curBallot && msg.promised > in.maxNack {
			in.maxNack = msg.promised
			m.wake(in)
		}

	case mDecide:
		m.decide(in, msg.val)

	case mChosen:
		// Decide by ballot: an acceptor that accepted at exactly b holds the
		// one value ever sent at (k, b), a slice of the accept frame, so it
		// decides that without a copy. A learner that accepted at another
		// ballot, or nothing (a lost accept, a nacked ballot, a recovery
		// without the cell), asks the coordinator, which answers with the
		// value; if that is lost, the instance's driver asks again.
		switch {
		case in.hasDec:
		case in.hasAcc && in.accB == msg.b:
			m.decide(in, in.accV)
		default:
			m.send(from, message{kind: mDecideReq, k: msg.k, span: decideWindow})
		}

	case mDecideReq:
		// Collect every known decision in the learner's window [k, k+span]
		// so one request catches a pipelined learner fully up instead of
		// costing a round-trip per instance.
		span := min(msg.span, decideWindow)
		var out []decision
		if in.hasDec {
			out = append(out, decision{k: msg.k, val: in.decided})
		}
		for i := uint64(1); i <= span; i++ {
			if other, ok := m.insts[msg.k+i]; ok && other.hasDec {
				out = append(out, decision{k: msg.k + i, val: other.decided})
			}
		}
		switch {
		case len(out) == 1 && out[0].k == msg.k:
			m.send(from, message{kind: mDecide, k: msg.k, val: out[0].val})
		case len(out) > 0:
			m.send(from, message{kind: mDecideMulti, k: out[0].k, multi: out})
		}

	case mForgotten:
		// The peer GC'd this instance under a checkpoint. If its GC floor
		// is above this instance, the decision may be unreachable through
		// Consensus: release waiters so the broadcast layer falls back to
		// state transfer (§5.3).
		if msg.promised > msg.k {
			m.markForgot(in)
		}
	}
}

// The stable-sequencer lease is multi-Paxos's ranged promise, retrofitted
// onto the per-instance machine. An acceptor grants (fromK, b) only when it
// holds NO accepted or decided state, and no promise >= b, in any instance
// >= fromK. A majority of such grants proves — by quorum intersection —
// that nothing was, or ever can be, chosen at a ballot < b in the covered
// range: any choosing quorum would have to include a granter, and every
// granter refuses ballots < b there from then on. The holder may therefore
// skip phase 1 entirely and run accept-phase-only rounds at ballot b, with
// its own proposal as the value; ballot-uniqueness (PolicyLeader ballots
// embed the pid) guarantees nobody else proposes at b. It is how every
// PolicyLeader engine orders in the steady state.
//
// The holder sends its value beside the proposal write, not after it: b is
// used by one incarnation only, because the grant majority refuses any
// later request at b and any prepare at b in the covered range, so a holder
// that crashes before the write lands can never put a second value at
// (k, b) — the package comment states the rule.
//
// Safety never involves clocks. The grant is logged durably before it is
// acknowledged (a crash cannot retract it), a replacement grant never
// narrows the covered range (narrowing would orphan the old attestation
// while its instances are still undecided), and a holder that loses the
// fast path — a competitor's higher ballot, an FD leadership change, a
// LeaseTTL without a successful round — simply falls back to full
// consensus, where ordinary ballots arbitrate. The TTL only stops futile
// fast-path attempts.

// LeaseStats counts lease events on the holder side.
type LeaseStats struct {
	Acquired   uint64 // successful lease acquisitions
	FastRounds uint64 // instances decided via the accept-phase-only path
	Fallbacks  uint64 // fast-path attempts that failed back to consensus
	Held       bool   // a lease is currently held
	Ballot     uint64 // the held lease's ballot, 0 without one
}

// dropLease invalidates the held lease.
func (m *machine) dropLease() {
	if m.leaseHeld {
		m.leaseHeld = false
		m.leaseTimer = 0
		m.leaseStats.Fallbacks++
		m.out = append(m.out, effect{op: opLeaseLost, msg: message{k: m.leaseFrom, b: m.leaseB}})
	}
}

// grantBound returns the lease-grant lower bound on ballots for instance
// k: an acceptor that granted a lease covering k must refuse promises and
// accepts below the granted ballot (that refusal IS the attestation a
// grant quorum rests on). 0 when no grant covers k.
func (m *machine) grantBound(k uint64) uint64 {
	if m.grantHeld && k >= m.grantFrom {
		return m.grantB
	}
	return 0
}

// leaseElsewhere reports whether this process's acceptor granted a lease
// covering k to another process. Its own proposal for k then waits for
// coordination (propDeferred): the holder's value is the only one
// choosable at or below the lease ballot, and a value nobody sends needs
// no log and no heap copy (a pooled buffer holds it; see instance). The
// choice is about cost only — the write is issued before the value can
// reach the wire either way.
func (m *machine) leaseElsewhere(k uint64) bool {
	s, _ := m.sequencer()
	return m.grantBound(k) > 0 && s != m.cfg.PID
}

// sequencer names the holder of the lease this acceptor granted, whose
// accepts carry the values choosable under the grant; false without one.
func (m *machine) sequencer() (ids.ProcessID, bool) {
	if !m.grantHeld {
		return ids.Nobody, false
	}
	return ids.ProcessID((m.grantB - 1) % uint64(m.cfg.N)), true
}

// leaseBallot decides whether instance in may take the fast path and, if
// so, at which ballot and with which value. The value may still be on its
// way to the log (propPending): the rule in the package comment lets the
// lease ballot carry it. A failed precondition that signals the lease is
// dead (a higher promise in the covered range, lost FD leadership) drops
// it.
func (m *machine) leaseBallot(in *instance) (b uint64, v []byte, ok bool) {
	if !m.leaseHeld {
		return 0, nil, false
	}
	if m.fd != nil && m.fd.Leader() != m.cfg.PID {
		m.dropLease() // suspected or outranked: stop claiming the lease
		return 0, nil, false
	}
	if in.promised > m.leaseB {
		m.dropLease() // a competitor is past our ballot in our range
		return 0, nil, false
	}
	if in.k < m.leaseFrom || !(in.hasProp || in.propPending) {
		return 0, nil, false
	}
	return m.leaseB, in.proposal, true
}

// leaseRoundDone records a fast-path outcome: success renews the TTL;
// failure (no quorum at the lease ballot) drops the lease so the driver
// falls back to full consensus.
func (m *machine) leaseRoundDone(success bool) {
	if !success {
		m.dropLease()
		return
	}
	if m.leaseHeld {
		m.leaseTimer = m.arm(0, int64(m.cfg.LeaseTTL))
		m.reaskRefusers()
	}
	m.leaseStats.FastRounds++
}

// reaskRefusers asks each acceptor that refused the held lease again, past
// every instance this process has touched. A lease held through the
// others' grants is mostly refused where the request was overtaken by this
// process's own ballot of the round before; the refuser then names no
// sequencer, so its payloads are not pushed here. Its grant adds nothing
// to the lease, whose quorum already holds: it names the holder. One
// request per refusal: a grant ends the asking, another refusal renews it.
func (m *machine) reaskRefusers() {
	fromK := uint64(0)
	keep := m.leaseVotes[:0]
	for _, v := range m.leaseVotes {
		if v.granted {
			keep = append(keep, v)
			continue
		}
		if fromK == 0 {
			fromK = m.leaseFrom
			for k := range m.insts {
				fromK = max(fromK, k+1)
			}
		}
		m.send(v.from, message{kind: mLeaseReq, k: fromK, b: m.leaseB})
	}
	m.leaseVotes = keep
}

// maybeAcquireLease starts a lease acquisition covering every instance >=
// fromK, if the machine runs PolicyLeader, believes itself the Ω leader
// and holds none. Called after a classically decided round — the moment
// the process has just demonstrated it is the stable sequencer.
//
// One attempt per triggering decision: it ends with a grant quorum,
// refusals from enough acceptors that no quorum can grant, or the phase
// timeout. Under steady load the next classically decided round asks
// again, past the instances and above the ballots the refusals reported.
// An acceptor that refuses a lease the others grant is asked again after
// each fast round (reaskRefusers).
func (m *machine) maybeAcquireLease(fromK uint64) {
	if m.cfg.Policy != PolicyLeader || m.leaseHeld || m.leaseAcquiring || !m.running {
		return
	}
	if m.fd != nil && m.fd.Leader() != m.cfg.PID {
		return
	}
	// Ask past every instance this process has touched — a pipelined round
	// still in flight would make the acceptors refuse the range, and it
	// finishes classically anyway — and one attempt above every ballot it
	// has seen, so its own classic prepares in the range never outbid it.
	seen := max(m.grantB, m.leaseSeenB)
	for k, in := range m.insts {
		fromK = max(fromK, k+1)
		seen = max(seen, in.promised)
	}
	m.leaseAcquiring = true
	m.leaseB = m.ballotFor(m.attemptAbove(seen) + 1)
	m.leaseFrom = fromK
	m.leaseSeenB = m.leaseB
	m.leaseVotes = m.leaseVotes[:0]
	m.send(ids.Nobody, message{kind: mLeaseReq, k: fromK, b: m.leaseB})
	m.leaseTimer = m.arm(0, m.phaseTimeout())
}

// onLeaseVote counts an acceptor's answer to the pending request.
func (m *machine) onLeaseVote(from ids.ProcessID, msg message) {
	if !m.leaseAcquiring && !m.leaseHeld || msg.b != m.leaseB {
		return
	}
	// A grant is durable, so it counts even after a refusal from the same
	// acceptor (a duplicated request is refused at once, while its grant
	// is still being logged).
	i := slices.IndexFunc(m.leaseVotes, func(v leaseVote) bool { return v.from == from })
	if i < 0 {
		i = len(m.leaseVotes)
		m.leaseVotes = append(m.leaseVotes, leaseVote{from: from})
	}
	m.leaseVotes[i].granted = m.leaseVotes[i].granted || msg.kind == mLeaseAck
	m.leaseSeenB = max(m.leaseSeenB, msg.promised)
	if !m.leaseAcquiring {
		return // an answer after the quorum, or to reaskRefusers
	}

	acks := 0
	for _, v := range m.leaseVotes {
		if v.granted {
			acks++
		}
	}
	switch q := Quorum(m.cfg.N); {
	case acks >= q:
		m.leaseAcquiring, m.leaseHeld = false, true
		m.leaseTimer = m.arm(0, int64(m.cfg.LeaseTTL))
		m.leaseStats.Acquired++
		m.out = append(m.out, effect{op: opLeaseAcquired, msg: message{k: m.leaseFrom, b: m.leaseB}})
	case len(m.leaseVotes)-acks > m.cfg.N-q:
		// Refused by enough acceptors that no quorum can grant.
		m.leaseAcquiring, m.leaseTimer = false, 0
	}
}

// onLeaseReq is the acceptor side: grant (fromK=msg.k, b=msg.b) iff the
// log can attest that nothing at a ballot < b was or can be chosen in any
// instance >= fromK at this acceptor.
func (m *machine) onLeaseReq(from ids.ProcessID, msg message) {
	conflict := uint64(0)
	refuse := false
	if m.grantHeld && msg.b <= m.grantB {
		refuse = true
		conflict = m.grantB
	}
	if msg.k < m.floor {
		// Instances in [fromK, floor) were decided and discarded; this
		// acceptor cannot attest an empty range there.
		refuse = true
	}
	for k, in := range m.insts {
		if k >= msg.k && (in.hasAcc || in.hasDec || in.promised >= msg.b) {
			refuse = true
			conflict = max(conflict, in.promised, in.accB)
		}
	}
	if refuse {
		m.send(from, message{kind: mLeaseNack, k: msg.k, b: msg.b, promised: conflict})
		return
	}
	// Grant. Never narrow the covered range: replacing (oldB, oldFrom)
	// with (newB, newFrom > oldFrom) would stop refusing sub-oldB ballots
	// in [oldFrom, newFrom) while those instances may still be undecided —
	// the old holder's attestation would silently evaporate. Widening (or
	// keeping) the range is always safe: it only delays proposers, who
	// recover via nack-learned ballots.
	if !m.grantHeld || msg.k < m.grantFrom {
		m.grantFrom = msg.k
	}
	m.grantHeld = true
	m.grantB = msg.b
	// Durable before the ack: a granted-then-crashed acceptor must come
	// back still refusing sub-grant ballots.
	start := m.cells.Len()
	m.cells.U64(m.grantB)
	m.cells.U64(m.grantFrom)
	m.put(cellLease, 0, m.cells.Bytes()[start:], from, message{kind: mLeaseAck, k: msg.k, b: msg.b})
}
