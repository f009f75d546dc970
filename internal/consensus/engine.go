package consensus

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Storage key layout. Instances use fixed-width hex so key order is
// numeric order: List returns instances in order, and the cells of one
// kind below k are the key range [cellKey(kind, 0), cellKey(kind, k)),
// which a discard removes with one record (cons/lease is in no such
// range).
//
//	cons/p/<k>  proposal cell   — the paper's required "propose" log (§3.2)
//	cons/a/<k>  acceptor cell   — promise + accepted pair
//	cons/lease  lease-grant cell — the acceptor's ranged promise (ballot, fromK)
const keyPrefix = "cons/"

const keyLease = "cons/lease"

// cellKey formats "cons/<kind>/<k as 16 hex digits>" with one allocation,
// the string itself (a key is made for every cell write and each bound of
// a discard), or the lease-grant key.
func cellKey(kind byte, k uint64) string {
	if kind == cellLease {
		return keyLease
	}
	const hex = "0123456789abcdef"
	var b [len(keyPrefix) + 2 + 16]byte
	n := copy(b[:], keyPrefix)
	b[n], b[n+1] = kind, '/'
	for i := len(b) - 1; i >= n+2; i-- {
		b[i] = hex[k&0xf]
		k >>= 4
	}
	return string(b[:])
}

// parseKey inverts the key layout; ok is false for foreign keys.
func parseKey(key string) (kind byte, k uint64, ok bool) {
	if key == keyLease {
		return cellLease, 0, true
	}
	rest, found := strings.CutPrefix(key, keyPrefix)
	if !found || len(rest) < 3 || rest[1] != '/' {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(rest[2:], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return rest[0], v, true
}

// Instance reads a key of this layout for a reader of the log, the
// simulator's oracle: the instance of a cell's key (0 for the lease-grant
// cell), and whether the cell is a proposal. ok is false for foreign keys.
func Instance(key string) (k uint64, proposal, ok bool) {
	kind, k, ok := parseKey(key)
	return k, kind == cellProposal, ok
}

// restore loads every logged cell of st into m.
func restore(m *machine, st storage.Stable) error {
	keys, err := st.List(keyPrefix)
	if err != nil {
		return fmt.Errorf("consensus: list log: %w", err)
	}
	for _, key := range keys {
		kind, k, ok := parseKey(key)
		if !ok {
			continue
		}
		val, found, err := st.Get(key)
		if err != nil {
			return fmt.Errorf("consensus: restore %s: %w", key, err)
		}
		if found {
			if err := m.restore(kind, k, val); err != nil {
				return fmt.Errorf("consensus: corrupt cell %s: %w", key, err)
			}
		}
	}
	return nil
}

// Engine is the multi-instance consensus engine for one process
// incarnation: the machine run on a loop (internal/loop) over the
// process's log, network and wall clock. New builds it on a loop of its
// own; NewOn on the loop of the incarnation, where the broadcast core
// drives it through Box and carries out its effects with its own in one
// drain. Register OnMessage with the router, then Start. A write's
// completion and a timer go back to the engine as typed loop inputs, so a
// step costs no goroutine, channel or closure.
type Engine struct {
	l   *loop.Loop
	net router.Net
	tr  *obs.Tracer
	fl  *obs.Recorder
	// quorumNS is propose → decision learned: what one instance costs the
	// commit path. It is nil-safe, so the decide path never branches on
	// wiring.
	quorumNS *obs.Histogram

	m *machine
	// waiters holds the channel that the WaitDecided calls blocked on an
	// instance share, closed when it decides or is forgotten.
	waiters map[uint64]chan struct{}
	puts    loop.Queue[effect] // cell writes issued and not yet reported
	next    int                // the effect settle carries out next
}

// New builds an engine on a loop of its own over st and restores all
// logged instance state — this is the consensus side of crash recovery.
// net must be bound to the consensus channel.
func New(cfg Config, st storage.Stable, net router.Net, det Suspector) (*Engine, error) {
	l := loop.New(st)
	e, err := NewOn(l, cfg, net, det)
	if err == nil {
		l.Bind(e.drain, nil)
	}
	return e, err
}

// NewOn builds an engine on l, restored from l's store. The caller binds
// the loop's drain, which must carry out the engine's effects (Box.Settle).
func NewOn(l *loop.Loop, cfg Config, net router.Net, det Suspector) (*Engine, error) {
	m := newMachine(cfg, det)
	if err := restore(m, l.Store()); err != nil {
		return nil, err
	}
	e := &Engine{
		l:       l,
		net:     net,
		tr:      cfg.Obs.Trace(),
		fl:      cfg.Obs.Flight(),
		m:       m,
		waiters: make(map[uint64]chan struct{}),

		quorumNS: cfg.Obs.Reg().Histogram(obs.GroupLabel("abcast.consensus.quorum_ns", cfg.Group)),
	}
	if m.cfg.Policy == PolicyLeader {
		e.registerLeaseFuncs(cfg.Obs.Reg(), cfg.Group)
	}
	return e, nil
}

// Start arms the engine with its incarnation context: drivers and lease
// acquisitions run until ctx is cancelled, and every instance up to the
// last one with a logged value is learned again at once (machine.start).
func (e *Engine) Start(ctx context.Context) {
	e.l.Start(ctx)
	if e.l.Enter() {
		e.m.start()
		e.l.Exit()
	}
}

// Stop ends the incarnation's loop, as cancelling the Start context does:
// no input steps the machine any more.
func (e *Engine) Stop() { e.l.Stop() }

// OnMessage is the router handler for the consensus channel. Writes are
// issued asynchronously and a reply a write protects leaves on its
// completion, so the receive goroutine never blocks on an fsync.
func (e *Engine) OnMessage(from ids.ProcessID, payload []byte) {
	msg, err := decodeMessage(payload)
	if err != nil {
		return // malformed packets are dropped like lost packets
	}
	if e.l.Enter() {
		e.m.receive(from, msg)
		e.l.Exit()
	}
}

// Propose is Fig. 1's propose(k, v) for a caller outside the engine's
// loop (the broadcast core proposes in-step, through Box). It submits this
// process's initial value for instance k and issues its log write before
// it returns (on a synchronous log the write is durable by then). The
// value goes out at a classic ballot only once that write is durable, and
// at the proposer's lease ballot beside it: a lease ballot is used by one
// incarnation only (its grant is durable at a majority and refuses every
// later request or prepare at that ballot), so no second value can appear
// at it even if the proposer crashes before the write lands and later
// proposes another. A process that granted a lease covering k to another
// process defers the write until it would coordinate k itself.
// Re-proposing a different value keeps the original (property P4), and
// "upon recovery, a process may (re-)invoke these primitives for a
// Consensus instance that has already started or even terminated" (§4.1).
// v is borrowed for the call (the engine keeps its own copy).
func (e *Engine) Propose(k uint64, v []byte) error {
	if !e.l.Enter() {
		return ErrStopped
	}
	err := e.m.propose(k, v, e.l.Now())
	e.l.Exit()
	return err
}

// WaitDecided blocks until instance k decides and returns the decision.
// Repeated calls return the same value (property P5), in this incarnation
// and in any later one: the value is held durably by an accept quorum,
// and a later incarnation learns it again from there.
// A decided value — like a Proposal — is immutable and may be aliased,
// never modified: the engine serves the same slice to every caller and to
// lagging peers.
func (e *Engine) WaitDecided(ctx context.Context, k uint64) ([]byte, error) {
	if !e.l.Enter() {
		return nil, ErrStopped
	}
	if k < e.m.floor {
		e.l.Unlock()
		return nil, fmt.Errorf("%w: instance %d", ErrDiscarded, k)
	}
	in := e.m.get(k)
	if !in.hasDec && !in.wasForgot {
		// Make sure someone works on the instance, at least as a learner
		// asking for the decision, then wait for it.
		e.m.startDriver(in)
		ch := e.waiters[k]
		if ch == nil {
			ch = make(chan struct{})
			e.waiters[k] = ch
		}
		e.l.Exit()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-e.l.Done():
			return nil, ErrStopped
		}
		e.l.Lock()
	}
	v, ok := in.decided, in.hasDec
	e.l.Unlock()
	if !ok {
		// A peer garbage-collected this instance under a checkpoint: the
		// decision may no longer be reachable through Consensus. The caller
		// must catch up via state transfer instead (§5.3).
		return nil, fmt.Errorf("%w: instance %d garbage-collected here or at a peer", ErrDiscarded, k)
	}
	return v, nil
}

// discardBelow is Box.DiscardBelow. A WaitDecided blocked on a discarded
// instance returns its decision, or ErrDiscarded.
func (e *Engine) discardBelow(k uint64) {
	e.m.discardBelow(k)
	for kk, ch := range e.waiters {
		if kk < k {
			close(ch)
			delete(e.waiters, kk)
		}
	}
}

// LeaseStats returns a snapshot of the holder-side lease counters.
func (e *Engine) LeaseStats() LeaseStats {
	e.l.Lock()
	defer e.l.Unlock()
	s := e.m.leaseStats
	if s.Held = e.m.leaseHeld; s.Held {
		s.Ballot = e.m.leaseB
	}
	return s
}

// Box returns the engine as the layer above it on the same loop drives it.
func (e *Engine) Box() Box { return Box{e} }

// Box is Fig. 1's consensus box as the broadcast core drives it on the
// loop the two share: every method is one step, or a read, under the
// loop's lock, which the caller holds. The loop's drain carries out the
// effects through Settle, which hands out the box's decided(k, v) and
// forgotten(k) in the order the machine emitted them, so the layer above
// takes each as its input in the same step. The other methods are
// Machine's.
type Box struct{ e *Engine }

func (b Box) Propose(k uint64, v []byte, now int64) error { return b.e.m.propose(k, v, now) }
func (b Box) DecidedLocal(k uint64) ([]byte, bool)        { return b.e.m.decidedLocal(k) }
func (b Box) Forgot(k uint64) bool                        { return b.e.m.forgot(k) }

// Logged is one past the last instance whose value recovery found in the
// log, a proposal or an accepted value: the engine learns every instance
// below it again (Start), and the broadcast layer's replay waits for them.
func (b Box) Logged() uint64 { return b.e.m.logged }

// Sequencer is a read, like DecidedLocal: the process this acceptor's
// lease grant names; ok is false without a grant.
func (b Box) Sequencer() (ids.ProcessID, bool) { return b.e.m.sequencer() }

// DiscardBelow also releases the WaitDecided calls blocked below k.
func (b Box) DiscardBelow(k uint64) { b.e.discardBelow(k) }

// Settle carries out the machine's effects, including those of the
// drivers they wake, up to the next instance decided or forgotten, and
// returns it; ok is false once no effect is left.
func (b Box) Settle() (k uint64, v []byte, decided, ok bool) { return b.e.settle() }

// drain is the loop's drain of an engine on a loop of its own.
func (e *Engine) drain() {
	for {
		if _, _, _, ok := e.settle(); !ok {
			return
		}
	}
}

// settle is Box.Settle. Frames go out after the loop's lock is released;
// writes and timers are queued on the loop under it.
func (e *Engine) settle() (uint64, []byte, bool, bool) {
	m := e.m
	for m.more(e.next) {
		ef := m.out[e.next]
		e.next++
		switch ef.op {
		case opSend:
			w := wire.GetWriter(24 + len(ef.msg.val))
			ef.msg.encodeTo(w)
			e.l.Send(e.net, ef.to, w)
		case opPut:
			c := e.l.Store().PutAsync(cellKey(ef.cell, ef.k), ef.val)
			e.puts.Push(ef)
			e.l.Issue(e, c)
		case opDiscard:
			e.l.Issue(nil, e.l.Store().DeleteRangeAsync(cellKey(ef.cell, 0), cellKey(ef.cell, ef.k)))
		case opArm:
			e.l.Arm(e, e.l.Now()+ef.after, loop.Token{K: ef.t.k, Gen: ef.t.gen})
		case opDecided:
			if ef.stamp != 0 {
				e.quorumNS.Observe(e.l.Now() - ef.stamp)
			}
			e.tr.MarkRound(m.cfg.Group, ef.k)
			fallthrough
		case opForgot:
			if ch, ok := e.waiters[ef.k]; ok {
				close(ch) // release the WaitDecided calls blocked on k
				delete(e.waiters, ef.k)
			}
			return ef.k, ef.val, ef.op == opDecided, true
		case opLeaseAcquired:
			e.fl.Event(obs.EvLeaseAcquire, m.cfg.Group, ef.msg.k, int64(ef.msg.b), 0, "")
		case opLeaseLost:
			e.fl.Event(obs.EvLeaseLost, m.cfg.Group, ef.msg.k, int64(ef.msg.b), 0, "fast path dropped")
		}
	}
	m.drained()
	e.next = 0
	return 0, nil, false, false
}

// Persisted implements loop.Layer: the oldest cell write not yet reported
// resolved.
func (e *Engine) Persisted(_ int64, err error) {
	ef := e.puts.Pop()
	e.m.persisted(&ef, err)
}

// Fire implements loop.Layer.
func (e *Engine) Fire(_ int64, tok loop.Token) { e.m.fire(timer{k: tok.K, gen: tok.Gen}) }

// Live implements loop.Layer: a phase deadline whose instance decided
// costs no wake-up of its own.
func (e *Engine) Live(tok loop.Token) bool { return e.m.live(timer{k: tok.K, gen: tok.Gen}) }

// registerLeaseFuncs exports the holder-side lease counters as
// read-on-scrape metrics. Re-registration on each incarnation replaces the
// previous engine's closure, so the scrape always reads the live engine.
func (e *Engine) registerLeaseFuncs(reg *obs.Registry, g ids.GroupID) {
	reg.Func(obs.GroupLabel("abcast.consensus.lease_acquired", g), func() int64 {
		return int64(e.LeaseStats().Acquired)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_fast_rounds", g), func() int64 {
		return int64(e.LeaseStats().FastRounds)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_fallbacks", g), func() int64 {
		return int64(e.LeaseStats().Fallbacks)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_held", g), func() int64 {
		if e.LeaseStats().Held {
			return 1
		}
		return 0
	})
}
