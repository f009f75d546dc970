package consensus

import (
	"context"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// driverTimers recycles the drivers' wait timers: most drivers live for one
// round.
var driverTimers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// startDriverLocked launches the per-instance driver goroutine if it is not
// already running. e.mu held.
func (e *Engine) startDriverLocked(in *instance) {
	if in.driving || in.hasDec || in.gone || e.stopped || e.ctx == nil {
		return
	}
	in.driving = true
	if in.progress == nil {
		in.progress = make(chan struct{}, 1)
	}
	e.wg.Add(1)
	go e.drive(in)
}

// ballotFor computes the ballot of logical attempt a for this engine's
// policy. Ballots are globally unique: under PolicyLeader every process
// embeds its own pid; under PolicyRotating attempt a belongs exclusively to
// process a mod n.
func (e *Engine) ballotFor(a uint64) uint64 {
	n := uint64(e.cfg.N)
	switch e.cfg.Policy {
	case PolicyRotating:
		return a*n + a%n + 1
	default:
		return a*n + uint64(e.cfg.PID) + 1
	}
}

// attemptAbove returns the smallest attempt whose ballot exceeds b.
func (e *Engine) attemptAbove(b uint64) uint64 {
	return b/uint64(e.cfg.N) + 1
}

// myTurn reports whether this process should coordinate attempt a.
// stuck counts consecutive idle waits; after enough of them the process
// drives regardless (ballot safety makes competition harmless, and this
// guarantees termination even if the detector's hint is wrong).
func (e *Engine) myTurn(a uint64, stuck int) bool {
	const graceWaits = 8
	switch e.cfg.Policy {
	case PolicyRotating:
		owner := ids.ProcessID(a % uint64(e.cfg.N))
		if owner == e.cfg.PID {
			return true
		}
		return stuck > graceWaits
	default:
		if e.fd == nil {
			return true
		}
		if e.fd.Leader() == e.cfg.PID {
			return true
		}
		return stuck > graceWaits
	}
}

// skipTurn reports whether attempt a's owner is suspected, letting rotating
// processes advance without waiting the full timeout.
func (e *Engine) skipTurn(a uint64) bool {
	if e.cfg.Policy != PolicyRotating || e.fd == nil {
		return false
	}
	owner := ids.ProcessID(a % uint64(e.cfg.N))
	return owner != e.cfg.PID && e.fd.Suspects(owner)
}

// backoff returns the wait before re-examining the instance, growing with
// consecutive failures and jittered to break ties between competitors.
func (e *Engine) backoff(fails int) time.Duration {
	d := e.cfg.RetryMin << uint(min(fails, 5))
	if d > e.cfg.RetryMax {
		d = e.cfg.RetryMax
	}
	e.rngMu.Lock()
	j := time.Duration(e.rng.Int64N(int64(e.cfg.RetryMin) + 1))
	e.rngMu.Unlock()
	return d + j
}

// drive pushes instance in to a decision. It acts as coordinator when the
// policy says so and as a decision requester otherwise. It exits when the
// instance decides, is discarded, or the incarnation ends.
func (e *Engine) drive(in *instance) {
	defer e.wg.Done()
	ctx := e.ctx
	fails := 0
	stuck := 0
	var attempt uint64

	// Resume above anything this process ever promised, lease grants
	// included: ballots at or below them are already refused here.
	e.mu.Lock()
	attempt = e.attemptAbove(max(in.promised, e.grantBoundLocked(in.k)))
	e.mu.Unlock()

	// One timer serves every wait of this driver: each wait Resets it
	// (since go 1.23 a reset or stopped timer leaves no stale tick behind,
	// so the next driver takes it from the pool as it is).
	timer := driverTimers.Get().(*time.Timer)
	defer func() {
		timer.Stop()
		driverTimers.Put(timer)
	}()

	for {
		if ctx.Err() != nil {
			return
		}
		e.mu.Lock()
		if in.hasDec || in.gone || in.wasForgot {
			e.mu.Unlock()
			return
		}
		// Any proposal is enough to coordinate: a deferred one is logged
		// below, and the ballot runs beside its write.
		canDrive := in.proposed()
		// A deferred proposal expects the lease holder's round, whose
		// decision arrives unasked: its first wait sends no request.
		ask := stuck > 0 || !in.propDeferred
		e.mu.Unlock()

		if e.skipTurn(attempt) {
			attempt++
			continue
		}
		if !canDrive || !e.myTurn(attempt, stuck) {
			// Learner mode: ask around for the decision (and the rest
			// of the pipeline window), then wait.
			if ask {
				e.send(ids.Nobody, message{kind: mDecideReq, k: in.k, span: decideWindow})
			}
			stuck++
			if !e.waitWake(ctx, in, timer, e.backoff(fails)) {
				return
			}
			if e.cfg.Policy == PolicyRotating {
				attempt++
			}
			continue
		}
		stuck = 0
		e.mu.Lock()
		if in.propDeferred {
			_ = e.logProposalLocked(in) // a failure leaves nothing to drive next pass
		}
		e.mu.Unlock()

		// Lease fast path: while this process holds the stable-sequencer
		// lease covering in.k, skip phase 1 and push its own proposal at
		// the lease ballot, beside its log write. Any failure drops the
		// lease and falls back to a full ballot.
		if b, v, fast := e.leaseBallot(in); fast {
			decided, higher := e.runAcceptPhase(ctx, in, timer, b, v)
			e.leaseRoundDone(decided)
			if decided {
				return
			}
			if higher > 0 {
				attempt = e.attemptAbove(higher)
			} else {
				attempt = e.attemptAbove(b)
			}
			fails++
			if !e.waitWake(ctx, in, timer, e.backoff(fails)) {
				return
			}
			continue
		}

		decided, higher := e.runBallot(ctx, in, timer, attempt)
		if decided {
			// The round just decided under this process's classic
			// coordination: the moment to (re-)establish the lease for
			// the instances after it.
			e.maybeAcquireLease(in.k + 1)
			return
		}
		if higher > 0 {
			attempt = e.attemptAbove(higher)
			e.mu.Lock()
			own := higher == e.leaseReqB
			e.mu.Unlock()
			if own {
				// Outbid by this process's own lease request (a grant
				// covers everything from the acceptor's oldest grant on):
				// no competitor to back off from, so re-ballot at once.
				continue
			}
		} else {
			attempt++
		}
		fails++
		if !e.waitWake(ctx, in, timer, e.backoff(fails)) {
			return
		}
		e.mu.Lock()
		done := in.hasDec || in.gone
		e.mu.Unlock()
		if done {
			return
		}
	}
}

// waitWake sleeps up to d or until the instance is poked. Returns false when
// the incarnation is over.
func (e *Engine) waitWake(ctx context.Context, in *instance, timer *time.Timer, d time.Duration) bool {
	timer.Reset(d)
	select {
	case <-ctx.Done():
		return false
	case <-in.progress:
		return true
	case <-timer.C:
		return true
	}
}

// runBallot executes one prepare/accept round as coordinator. It returns
// decided=true if the instance decided (by us or concurrently), or the
// highest conflicting ballot seen in a nack (0 if none).
func (e *Engine) runBallot(ctx context.Context, in *instance, timer *time.Timer, attempt uint64) (decided bool, higher uint64) {
	b := e.ballotFor(attempt)

	e.mu.Lock()
	if in.hasDec || in.gone {
		e.mu.Unlock()
		return true, 0
	}
	in.curBallot = b
	in.phase = 1
	if in.promises == nil {
		in.promises = make(map[ids.ProcessID]promiseInfo)
	}
	clear(in.promises)
	in.maxNack = 0
	e.mu.Unlock()

	e.send(ids.Nobody, message{kind: mPrepare, k: in.k, b: b})

	// Phase 1: collect promises from a majority, then choose the value:
	// the accepted value with the highest ballot wins; otherwise our own
	// proposal (Uniform Validity) — which may go on the wire only once it
	// is durable here, so that a recovered proposer re-proposes the same
	// value (P4). The prepare above ran beside that write; this is where
	// the ballot waits for it, and gives up if the write failed.
	var v []byte
	deadline := time.Now().Add(e.phaseTimeout())
	for {
		e.mu.Lock()
		if in.hasDec || in.gone {
			e.mu.Unlock()
			return true, 0
		}
		if in.maxNack > b {
			higher = in.maxNack
			in.phase = 0
			e.mu.Unlock()
			return false, higher
		}
		if len(in.promises) >= Quorum(e.cfg.N) {
			var bestB uint64
			found := false
			for _, pi := range in.promises {
				if pi.hasAcc && (!found || pi.accB > bestB) {
					bestB = pi.accB
					v = pi.accV
					found = true
				}
			}
			switch {
			case found:
			case in.hasProp:
				v, found = in.proposal, true
			case !in.propPending:
				in.phase = 0
				e.mu.Unlock()
				return false, 0 // no value to propose: the proposal's write failed
			}
			if found {
				e.mu.Unlock()
				break
			}
		}
		e.mu.Unlock()
		if !e.waitDeadline(ctx, in, timer, deadline) {
			return e.isDecided(in), 0
		}
	}

	return e.runAcceptPhase(ctx, in, timer, b, v)
}

// runAcceptPhase executes phase 2 at ballot b with value v: broadcast the
// accept, collect a majority, decide. It is the whole round on the lease
// fast path (where the grant quorum's attestation replaces phase 1) and
// the second half of a classic ballot.
func (e *Engine) runAcceptPhase(ctx context.Context, in *instance, timer *time.Timer, b uint64, v []byte) (decided bool, higher uint64) {
	e.mu.Lock()
	if in.hasDec || in.gone {
		e.mu.Unlock()
		return true, 0
	}
	in.curBallot = b
	in.phase = 2
	if in.accepts == nil {
		in.accepts = make(map[ids.ProcessID]bool)
	}
	clear(in.accepts)
	in.maxNack = 0
	e.mu.Unlock()

	e.send(ids.Nobody, message{kind: mAccept, k: in.k, b: b, val: v})

	// Phase 2: collect accepts from a majority.
	deadline := time.Now().Add(e.phaseTimeout())
	for {
		e.mu.Lock()
		if in.hasDec || in.gone {
			e.mu.Unlock()
			return true, 0
		}
		if in.maxNack > b {
			higher = in.maxNack
			in.phase = 0
			e.mu.Unlock()
			return false, higher
		}
		if len(in.accepts) >= Quorum(e.cfg.N) {
			// Chosen by the quorum's durable acceptor cells: decide and
			// tell everyone (decideLocked leaves the instance undecided
			// only when the store is failing — a dying incarnation).
			e.decideLocked(in, v)
			dec := in.hasDec
			e.mu.Unlock()
			if dec {
				e.send(ids.Nobody, message{kind: mDecide, k: in.k, val: v})
			}
			return dec, 0
		}
		e.mu.Unlock()
		if !e.waitDeadline(ctx, in, timer, deadline) {
			return e.isDecided(in), 0
		}
	}
}

func (e *Engine) isDecided(in *instance) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return in.hasDec
}

// waitDeadline waits for a poke or the deadline; false means give up this
// ballot (timeout or shutdown).
func (e *Engine) waitDeadline(ctx context.Context, in *instance, timer *time.Timer, deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	timer.Reset(remain)
	select {
	case <-ctx.Done():
		return false
	case <-in.progress:
		return true
	case <-timer.C:
		return false
	}
}

// phaseTimeout is the per-phase wait for quorum responses.
func (e *Engine) phaseTimeout() time.Duration {
	return e.cfg.RetryMax
}

// send transmits to one process, or to all when to is Nobody. The encode
// buffer is pooled: Send/Multisend copy before returning at every
// transport layer, so it is released right after the call.
func (e *Engine) send(to ids.ProcessID, m message) {
	w := wire.GetWriter(24 + len(m.val))
	m.encodeTo(w)
	if to == ids.Nobody {
		e.net.Multisend(w.Bytes())
	} else {
		e.net.Send(to, w.Bytes())
	}
	wire.PutWriter(w)
}
