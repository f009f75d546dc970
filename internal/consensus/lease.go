package consensus

import (
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The stable-sequencer lease is multi-Paxos's ranged promise, retrofitted
// onto the per-instance engine. An acceptor grants (fromK, b) only when it
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
// fast path — a competitor's higher ballot, an FD leadership change, TTL
// expiry — simply falls back to full consensus, where ordinary ballots
// arbitrate. The TTL only stops futile fast-path attempts.

// LeaseStats counts lease events on the holder side.
type LeaseStats struct {
	Acquired   uint64 // successful lease acquisitions
	FastRounds uint64 // instances decided via the accept-phase-only path
	Fallbacks  uint64 // fast-path attempts that failed back to consensus
	Held       bool   // a lease is currently held
}

// LeaseStats returns a snapshot of the holder-side lease counters.
func (e *Engine) LeaseStats() LeaseStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.leaseStats
	s.Held = e.leaseHeld
	return s
}

// RevokeLease drops the holder-side lease, forcing the next rounds back to
// full consensus until a new lease is acquired. Soak tests use it to model
// a suspicion-driven revocation at an arbitrary protocol step. Acceptor
// grants are untouched (they expire only by being outbid).
func (e *Engine) RevokeLease() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropLeaseLocked()
}

// dropLeaseLocked invalidates the held lease. e.mu held.
func (e *Engine) dropLeaseLocked() {
	if e.leaseHeld {
		e.leaseHeld = false
		e.leaseStats.Fallbacks++
		e.fl.Event(obs.EvLeaseLost, e.cfg.Group, e.leaseFrom, int64(e.leaseB), 0, "fast path dropped")
	}
}

// grantBoundLocked returns the lease-grant lower bound on ballots for
// instance k: an acceptor that granted a lease covering k must refuse
// promises and accepts below the granted ballot (that refusal IS the
// attestation a grant quorum rests on). 0 when no grant covers k. e.mu
// held.
func (e *Engine) grantBoundLocked(k uint64) uint64 {
	if e.grantHeld && k >= e.grantFrom {
		return e.grantB
	}
	return 0
}

// leaseElsewhereLocked reports whether this process's acceptor granted a
// lease covering k to another process. Its own proposal for k then waits
// for coordination (propDeferred): the holder's value is the only one
// choosable at or below the lease ballot, and a value nobody sends needs
// no log. The choice is about cost only — the write is issued before the
// value can reach the wire either way. e.mu held.
func (e *Engine) leaseElsewhereLocked(k uint64) bool {
	return e.grantBoundLocked(k) > 0 && ids.ProcessID((e.grantB-1)%uint64(e.cfg.N)) != e.cfg.PID
}

// leaseBallot decides whether instance in may take the fast path and, if
// so, at which ballot and with which value. The value may still be on its
// way to the log (propPending): the rule in the package comment lets the
// lease ballot carry it. A failed precondition that signals the lease is
// dead (a higher promise in the covered range, lost FD leadership, TTL
// expiry) drops it.
func (e *Engine) leaseBallot(in *instance) (b uint64, v []byte, ok bool) {
	if e.cfg.Policy != PolicyLeader {
		return 0, nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.leaseHeld {
		return 0, nil, false
	}
	if e.fd != nil && e.fd.Leader() != e.cfg.PID {
		e.dropLeaseLocked() // suspected or outranked: stop claiming the lease
		return 0, nil, false
	}
	if time.Now().After(e.leaseUntil) {
		e.dropLeaseLocked()
		return 0, nil, false
	}
	if in.promised > e.leaseB {
		e.dropLeaseLocked() // a competitor is past our ballot in our range
		return 0, nil, false
	}
	if in.k < e.leaseFrom || !(in.hasProp || in.propPending) {
		return 0, nil, false
	}
	return e.leaseB, in.proposal, true
}

// leaseRoundDone records a fast-path outcome: success renews the TTL;
// failure (no quorum at the lease ballot) drops the lease so the driver
// falls back to full consensus.
func (e *Engine) leaseRoundDone(success bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if success {
		if e.leaseHeld {
			e.leaseUntil = time.Now().Add(e.cfg.LeaseTTL)
		}
		e.leaseStats.FastRounds++
		return
	}
	e.dropLeaseLocked()
}

// maybeAcquireLease starts an asynchronous lease acquisition covering every
// instance >= fromK, if the engine runs PolicyLeader, believes itself the
// Ω leader and holds none. Called after a classically decided round — the
// moment the process has just demonstrated it is the stable sequencer.
func (e *Engine) maybeAcquireLease(fromK uint64) {
	if e.cfg.Policy != PolicyLeader {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.leaseHeld || e.leaseAcquiring || e.stopped || e.ctx == nil {
		return
	}
	if e.fd != nil && e.fd.Leader() != e.cfg.PID {
		return
	}
	// Ask past every instance this process has touched — a pipelined round
	// still in flight would make the acceptors refuse the range, and it
	// finishes classically anyway — and one attempt above every ballot it
	// has seen, so its own classic prepares in the range never outbid it.
	seen := max(e.grantB, e.leaseSeenB)
	for k, in := range e.insts {
		fromK = max(fromK, k+1)
		seen = max(seen, in.promised)
	}
	e.leaseAcquiring = true
	e.leaseReqB = e.ballotFor(e.attemptAbove(seen) + 1)
	e.leaseSeenB = e.leaseReqB
	e.leaseVotes = make(map[ids.ProcessID]bool)
	e.leaseWake = make(chan struct{}, 1)
	e.wg.Add(1)
	go e.acquireLease(fromK, e.leaseReqB, e.leaseWake)
}

// acquireLease runs one acquisition attempt: broadcast the request, wait
// for a grant quorum, refusals from enough acceptors that no quorum can
// grant, or the phase timeout. One attempt per triggering decision — under
// steady load the next classically decided round asks again, past the
// instances and above the ballots the refusals reported.
func (e *Engine) acquireLease(fromK, b uint64, wake chan struct{}) {
	defer e.wg.Done()
	e.mu.Lock()
	ctx := e.ctx
	e.mu.Unlock()
	e.send(ids.Nobody, message{kind: mLeaseReq, k: fromK, b: b})
	timer := time.NewTimer(e.phaseTimeout())
	defer timer.Stop()
	defer func() {
		e.mu.Lock()
		e.leaseAcquiring = false
		e.mu.Unlock()
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			return
		case <-wake:
		}
		e.mu.Lock()
		acks := 0
		for _, granted := range e.leaseVotes {
			if granted {
				acks++
			}
		}
		if acks >= Quorum(e.cfg.N) {
			e.leaseHeld = true
			e.leaseB = b
			e.leaseFrom = fromK
			e.leaseUntil = time.Now().Add(e.cfg.LeaseTTL)
			e.leaseStats.Acquired++
			e.fl.Event(obs.EvLeaseAcquire, e.cfg.Group, fromK, int64(b), 0, "")
		}
		refused := len(e.leaseVotes)-acks > e.cfg.N-Quorum(e.cfg.N)
		e.mu.Unlock()
		if acks >= Quorum(e.cfg.N) || refused {
			return
		}
	}
}

// pokeLeaseLocked wakes a pending acquisition. e.mu held.
func (e *Engine) pokeLeaseLocked() {
	if e.leaseWake != nil {
		select {
		case e.leaseWake <- struct{}{}:
		default:
		}
	}
}

// onLeaseMsg handles the three lease kinds. Called from OnMessage with
// e.mu held; it unlocks.
func (e *Engine) onLeaseMsg(from ids.ProcessID, m message) {
	switch m.kind {
	case mLeaseReq:
		e.onLeaseReqLocked(from, m)
	case mLeaseAck, mLeaseNack:
		if e.leaseAcquiring && m.b == e.leaseReqB {
			// A grant is durable, so it counts even after a refusal from
			// the same acceptor (a duplicated request is refused at once,
			// while its grant is still being logged).
			e.leaseVotes[from] = e.leaseVotes[from] || m.kind == mLeaseAck
			e.leaseSeenB = max(e.leaseSeenB, m.promised)
			e.pokeLeaseLocked()
		}
		e.mu.Unlock()
	}
}

// onLeaseReqLocked is the acceptor side: grant (fromK=m.k, b=m.b) iff the
// log can attest that nothing at a ballot < b was or can be chosen in any
// instance >= fromK at this acceptor. e.mu held; unlocks.
func (e *Engine) onLeaseReqLocked(from ids.ProcessID, m message) {
	conflict := uint64(0)
	refuse := false
	if e.grantHeld && m.b <= e.grantB {
		refuse = true
		conflict = e.grantB
	}
	if m.k < e.floor {
		// Instances in [fromK, floor) were decided and discarded; this
		// acceptor cannot attest an empty range there.
		refuse = true
	}
	for k, in := range e.insts {
		if k < m.k {
			continue
		}
		if in.hasAcc || in.hasDec || in.promised >= m.b {
			refuse = true
			if in.promised > conflict {
				conflict = in.promised
			}
			if in.accB > conflict {
				conflict = in.accB
			}
		}
	}
	if refuse {
		e.mu.Unlock()
		e.send(from, message{kind: mLeaseNack, k: m.k, b: m.b, promised: conflict})
		return
	}
	// Grant. Never narrow the covered range: replacing (oldB, oldFrom)
	// with (newB, newFrom > oldFrom) would stop refusing sub-oldB ballots
	// in [oldFrom, newFrom) while those instances may still be undecided —
	// the old holder's attestation would silently evaporate. Widening (or
	// keeping) the range is always safe: it only delays proposers, who
	// recover via nack-learned ballots.
	newFrom := m.k
	if e.grantHeld && e.grantFrom < newFrom {
		newFrom = e.grantFrom
	}
	e.grantHeld = true
	e.grantB = m.b
	e.grantFrom = newFrom
	w := wire.NewWriter(16)
	w.U64(e.grantB)
	w.U64(e.grantFrom)
	// Durable before the ack (replyWhenDurable): a granted-then-crashed
	// acceptor must come back still refusing sub-grant ballots.
	c := e.ast.PutAsync(keyLease, w.Bytes())
	e.mu.Unlock()
	e.replyWhenDurable(c, from, message{kind: mLeaseAck, k: m.k, b: m.b})
}
