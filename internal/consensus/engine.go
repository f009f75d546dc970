package consensus

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Storage key layout. Instances use fixed-width hex so List order is
// numeric order.
//
//	cons/p/<k>  proposal cell   — the paper's required "propose" log (§3.2)
//	cons/a/<k>  acceptor cell   — promise + accepted pair
//	cons/d/<k>  decision cell   — learned decision
//	cons/lease  lease-grant cell — the acceptor's ranged promise (ballot, fromK)
const keyPrefix = "cons/"

const keyLease = "cons/lease"

// cellKey formats "cons/<kind>/<k as 16 hex digits>" with one allocation,
// the string itself (a key is made for every cell write and delete), or
// the lease-grant key.
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
// incarnation: the machine run over the process's log, network and wall
// clock. Create it with New (which replays the stable log), register
// OnMessage with the router, then Start. One callback serves every write's
// completion and one wall-clock timer every timer the machine arms, so a
// step costs no goroutine, channel or closure.
type Engine struct {
	ast   storage.AsyncStable
	net   router.Net
	tr    *obs.Tracer
	fl    *obs.Recorder
	epoch time.Time
	// quorumNS is propose → decision learned: what one instance costs the
	// commit path. decideFsyncNS is decision learned → decision cell
	// durable: off the commit path, it says how long a crash could still
	// cost this process a re-learn. Both are nil-safe, so the decide path
	// never branches on wiring.
	quorumNS, decideFsyncNS *obs.Histogram

	mu sync.Mutex
	m  *machine
	// waiters holds the channel that the WaitDecided calls blocked on an
	// instance share, closed when it decides or is forgotten.
	waiters map[uint64]chan struct{}
	settle  func(k uint64, v []byte, decided bool) // OnSettle's upcall
	pending []pendingPut                           // writes issued and not yet resolved
	onDone  func(error)                            // e.persistedLater, bound once
	alarms  []alarm                                // armed timers; superseded ones linger until a scan
	wall    *time.Timer                            // runs e.onAlarm at wallAt, the earliest live alarm
	wallAt  int64
	unhook  func() bool // undoes Start's context.AfterFunc
}

type pendingPut struct {
	c  *storage.Completion
	ef effect
	at int64 // when it was issued
}

type alarm struct {
	at int64
	t  timer
}

type frame struct {
	to ids.ProcessID
	w  *wire.Writer
}

type settled struct {
	k       uint64
	v       []byte
	decided bool
}

var _ API = (*Engine)(nil)

// New builds an engine and restores all logged instance state — this is the
// consensus side of crash recovery. net must be bound to the consensus
// channel.
func New(cfg Config, st storage.Stable, net router.Net, det Suspector) (*Engine, error) {
	m := newMachine(cfg, det)
	if err := restore(m, st); err != nil {
		return nil, err
	}
	e := &Engine{
		ast:     storage.Async(st),
		net:     net,
		tr:      cfg.Obs.Trace(),
		fl:      cfg.Obs.Flight(),
		epoch:   time.Now(),
		m:       m,
		waiters: make(map[uint64]chan struct{}),
		wallAt:  math.MaxInt64,

		quorumNS:      cfg.Obs.Reg().Histogram(obs.GroupLabel("abcast.consensus.quorum_ns", cfg.Group)),
		decideFsyncNS: cfg.Obs.Reg().Histogram(obs.GroupLabel("abcast.consensus.decide_fsync_ns", cfg.Group)),
	}
	e.onDone = e.persistedLater
	e.wall = time.AfterFunc(math.MaxInt64, e.onAlarm) // opArm effects reset it
	if m.cfg.Policy == PolicyLeader {
		e.registerLeaseFuncs(cfg.Obs.Reg(), cfg.Group)
	}
	return e, nil
}

// now is the adapter's clock: monotonic ns since New.
func (e *Engine) now() int64 { return int64(time.Since(e.epoch)) }

// Start arms the engine with its incarnation context: drivers and lease
// acquisitions run until ctx is cancelled, and instances whose proposal is
// logged without a decision resume at once.
func (e *Engine) Start(ctx context.Context) {
	e.mu.Lock()
	e.m.start()
	e.unhook = context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.m.running = false
		e.mu.Unlock()
	})
	e.flush()
}

// Stop ends the incarnation's drivers, timers and lease acquisitions, as
// cancelling the Start context does, and releases the wall-clock timer.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m.running = false
	e.wall.Stop()
	if e.unhook != nil {
		e.unhook()
	}
}

// OnMessage is the router handler for the consensus channel. It runs on
// the router's receive goroutine; writes are issued asynchronously and a
// reply a write protects leaves on its completion, so the receive
// goroutine never blocks on an fsync.
func (e *Engine) OnMessage(from ids.ProcessID, payload []byte) {
	msg, err := decodeMessage(payload)
	if err != nil {
		return // malformed packets are dropped like lost packets
	}
	e.mu.Lock()
	e.m.receive(from, msg)
	e.flush()
}

// Propose implements API. Synchronous logs resolve the proposal write
// inline, preserving the propose-then-return contract, including
// surfacing its error.
func (e *Engine) Propose(k uint64, v []byte) error {
	e.mu.Lock()
	if err := e.m.propose(k, v, e.now()); err != nil {
		e.mu.Unlock()
		return err
	}
	if err, _ := e.flush(); err != nil {
		return fmt.Errorf("consensus: log proposal %d: %w", k, err)
	}
	return nil
}

// WaitDecided implements API.
func (e *Engine) WaitDecided(ctx context.Context, k uint64) ([]byte, error) {
	e.mu.Lock()
	if k < e.m.floor {
		e.mu.Unlock()
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
		e.flush()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		e.mu.Lock()
	}
	v, ok := in.decided, in.hasDec
	e.mu.Unlock()
	if !ok {
		// A peer garbage-collected this instance under a checkpoint: the
		// decision may no longer be reachable through Consensus. The caller
		// must catch up via state transfer instead (§5.3).
		return nil, fmt.Errorf("%w: instance %d garbage-collected here or at a peer", ErrDiscarded, k)
	}
	return v, nil
}

// DecidedLocal implements API.
func (e *Engine) DecidedLocal(k uint64) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.decidedLocal(k)
}

// Proposal implements API.
func (e *Engine) Proposal(k uint64) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.proposal(k)
}

// DiscardBelow implements API. It issues all the deletes, which share a
// handful of group commits on a log that has them, and reports a delete
// that failed at issue. A WaitDecided blocked on a discarded instance
// returns its decision, or ErrDiscarded: a recovery replaying that
// instance goes on past it rather than waiting for good.
func (e *Engine) DiscardBelow(k uint64) error {
	e.mu.Lock()
	e.m.discardBelow(k)
	for kk, ch := range e.waiters {
		if kk < k {
			close(ch)
			delete(e.waiters, kk)
		}
	}
	_, dels := e.flush()
	for _, c := range dels {
		if err, done := c.Poll(); done && err != nil {
			return fmt.Errorf("consensus: discard below %d: %w", k, err)
		}
	}
	return nil
}

// OnSettle implements API.
func (e *Engine) OnSettle(fn func(k uint64, v []byte, decided bool)) {
	e.mu.Lock()
	e.settle = fn
	e.mu.Unlock()
}

// LeaseStats returns a snapshot of the holder-side lease counters.
func (e *Engine) LeaseStats() LeaseStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.m.leaseStats
	s.Held = e.m.leaseHeld
	return s
}

// flush carries out the machine's effects, including those of the drivers
// they wake, and releases e.mu; the frames go out and the settles reach
// the OnSettle upcall after that. It returns the error of a proposal write
// that failed at issue (for Propose) and the deletes it issued (for
// DiscardBelow).
func (e *Engine) flush() (proposeErr error, dels []*storage.Completion) {
	var buf [4]frame
	frames := buf[:0]
	var sbuf [4]settled
	settles := sbuf[:0]
	now := e.now()
	for i := 0; e.m.more(i); i++ {
		ef := e.m.out[i]
		switch ef.op {
		case opSend:
			w := wire.GetWriter(24 + len(ef.msg.val))
			ef.msg.encodeTo(w)
			frames = append(frames, frame{ef.to, w})
		case opPut:
			p := pendingPut{c: e.ast.PutAsync(cellKey(ef.cell, ef.k), ef.val), ef: ef, at: now}
			err, done := p.c.Poll()
			if !done {
				e.pending = append(e.pending, p)
				p.c.OnDone(e.onDone)
				break
			}
			e.persisted(&p, err, now)
			if err != nil && ef.cell == cellProposal {
				proposeErr = err
			}
		case opDelete:
			dels = append(dels, e.ast.DeleteAsync(cellKey(ef.cell, ef.k)))
		case opArm:
			e.alarms = append(e.alarms, alarm{now + ef.after, ef.t})
			if now+ef.after < e.wallAt {
				e.wallAt = now + ef.after
				e.wall.Reset(time.Duration(ef.after))
			}
		case opDecided:
			if ef.stamp != 0 {
				e.quorumNS.Observe(now - ef.stamp)
			}
			e.tr.MarkRound(e.m.cfg.Group, ef.k)
			fallthrough
		case opForgot:
			if ch, ok := e.waiters[ef.k]; ok {
				close(ch) // release the WaitDecided calls blocked on k
				delete(e.waiters, ef.k)
			}
			if e.settle != nil {
				settles = append(settles, settled{ef.k, ef.val, ef.op == opDecided})
			}
		case opLeaseAcquired:
			e.fl.Event(obs.EvLeaseAcquire, e.m.cfg.Group, ef.msg.k, int64(ef.msg.b), 0, "")
		case opLeaseLost:
			e.fl.Event(obs.EvLeaseLost, e.m.cfg.Group, ef.msg.k, int64(ef.msg.b), 0, "fast path dropped")
		}
	}
	e.m.drained()
	settle := e.settle
	e.mu.Unlock()
	// Send/Multisend copy before returning at every transport layer, so
	// each encode buffer is released right after its call.
	for _, f := range frames {
		if f.to == ids.Nobody {
			e.net.Multisend(f.w.Bytes())
		} else {
			e.net.Send(f.to, f.w.Bytes())
		}
		wire.PutWriter(f.w)
	}
	for _, s := range settles {
		settle(s.k, s.v, s.decided)
	}
	return proposeErr, dels
}

// persisted hands a resolved write back to the machine. The decision
// cell's latency is measured from the moment the decision was learned,
// which is when its write was issued.
func (e *Engine) persisted(p *pendingPut, err error, now int64) {
	if err == nil && p.ef.cell == cellDecision {
		e.decideFsyncNS.Observe(now - p.at)
	}
	e.m.persisted(&p.ef, err)
}

// persistedLater is the completion callback of every write that did not
// resolve at issue. It cannot tell which write resolved, so it serves
// every pending one that has: a log resolves in issue order, so that is
// usually the first.
func (e *Engine) persistedLater(error) {
	e.mu.Lock()
	now := e.now()
	kept := e.pending[:0]
	for i := range e.pending {
		p := &e.pending[i]
		if err, done := p.c.Poll(); done {
			e.persisted(p, err, now)
		} else {
			kept = append(kept, *p)
		}
	}
	clear(e.pending[len(kept):])
	e.pending = kept
	e.flush()
}

// onAlarm fires the due timers, forgets the superseded ones, and sets the
// wall-clock timer for the earliest live one: a phase deadline whose
// instance decided costs no wake-up of its own.
func (e *Engine) onAlarm() {
	e.mu.Lock()
	now := e.now()
	e.wallAt = math.MaxInt64
	live := e.alarms[:0]
	for _, a := range e.alarms {
		switch {
		case a.at <= now:
			e.m.fire(a.t)
		case e.m.live(a.t):
			live = append(live, a)
			e.wallAt = min(e.wallAt, a.at)
		}
	}
	clear(e.alarms[len(live):])
	e.alarms = live
	if e.wallAt < math.MaxInt64 {
		e.wall.Reset(time.Duration(e.wallAt - now))
	}
	e.flush()
}

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
