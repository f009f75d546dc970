package consensus

import (
	"context"
	"fmt"
	"math/rand/v2"
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

// keyLease holds the acceptor's lease grant: a durable ranged promise that
// must survive crashes exactly like per-instance promises (parseKey skips
// it, so the per-instance restore loop ignores it; restore loads it
// explicitly).
const keyLease = "cons/lease"

func propKey(k uint64) string { return cellKey('p', k) }
func accKey(k uint64) string  { return cellKey('a', k) }
func decKey(k uint64) string  { return cellKey('d', k) }

// cellKey formats "cons/<kind>/<k as 16 hex digits>" with one allocation,
// the string itself (a key is made for every cell write and delete).
func cellKey(kind byte, k uint64) string {
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

// instance holds the per-instance state. Acceptor fields mirror the logged
// acceptor cell; everything else is volatile.
type instance struct {
	k uint64

	// proposer state. proposal is this incarnation's value for k, fixed by
	// its first Propose. hasProp means it is durable (the paper's logged
	// Proposed_p[k]); propPending that its write is issued, not yet
	// durable; propDeferred that the write is not issued yet, because this
	// process granted a lease covering k to another process and logs only
	// once it would coordinate (see leaseElsewhereLocked). A classic ballot
	// sends the value only once hasProp has flipped; the holder's lease
	// ballot sends it beside the write (the rule in the package comment).
	proposal     []byte
	hasProp      bool
	propPending  bool
	propDeferred bool

	// acceptor state (logged before every reply)
	promised uint64
	accB     uint64
	accV     []byte
	hasAcc   bool

	// learner state. hasDec flips when the decision is learned: a decided
	// value is held durably by an accept quorum's acceptor cells, so the
	// local decision cell (issued at the same moment) only saves a
	// recovering process the round trip of learning it again.
	decided []byte
	hasDec  bool
	// wasForgot is set when a peer reports it garbage-collected this
	// instance (mForgotten): the decision may be unrecoverable through
	// Consensus, so waiters fall back to the broadcast layer's state
	// transfer.
	wasForgot bool
	// settled is made by the first WaitDecided that has to block, and
	// closed when the instance decides or is forgotten, whichever is first.
	// Most instances at most processes never need one.
	settled chan struct{}

	// observability stamp (volatile): when the local proposal was issued.
	proposedAt int64

	// driver state (volatile)
	driving   bool
	gone      bool // GC'd under the floor; driver must exit
	curBallot uint64
	phase     int // 0 idle, 1 collecting promises, 2 collecting accepts
	// promises and accepts are made by the first ballot this process
	// coordinates: most instances at most processes never need them.
	promises map[ids.ProcessID]promiseInfo
	accepts  map[ids.ProcessID]bool
	maxNack  uint64
	// progress wakes the driver (capacity 1). It is made with the first
	// driver and never replaced; before that, wake has no one to wake.
	progress chan struct{}
}

type promiseInfo struct {
	hasAcc bool
	accB   uint64
	accV   []byte
}

// proposed reports whether this incarnation has a proposal for the
// instance in any state: durable, in flight or deferred.
func (in *instance) proposed() bool {
	return in.hasProp || in.propPending || in.propDeferred
}

// settle releases the waiters of a decided or forgotten instance. Later
// WaitDecided calls see hasDec or wasForgot and never block. e.mu held.
func (in *instance) settle() {
	if in.settled != nil {
		close(in.settled)
		in.settled = nil
	}
	in.wake()
}

// markForgotLocked records a peer's report that it GC'd this instance.
// e.mu held.
func (in *instance) markForgotLocked() {
	if !in.wasForgot && !in.hasDec {
		in.wasForgot = true
		in.settle()
	}
}

func (in *instance) wake() {
	select {
	case in.progress <- struct{}{}:
	default:
	}
}

// Engine is the multi-instance consensus engine for one process
// incarnation. Create it with New (which replays the stable log), register
// OnMessage with the router, then Start.
type Engine struct {
	cfg Config
	st  storage.Stable
	// ast is the asynchronous view of st: the ordering hot path issues
	// its persists through it and acts on each completion, so on a
	// group-commit engine all concurrent rounds share one fsync.
	// Synchronous engines resolve completions eagerly (storage.Async).
	ast storage.AsyncStable
	net router.Net
	fd  Suspector // may be nil (tests); then every process may drive

	rngMu sync.Mutex
	rng   *rand.Rand

	mu      sync.Mutex
	insts   map[uint64]*instance
	floor   uint64 // instances below this are discarded
	ctx     context.Context
	stopped bool

	// Acceptor-side lease grant (durable, cell keyLease): a ranged promise
	// to refuse ballots < grantB in every instance >= grantFrom. A newer
	// grant never narrows the range (grantFrom only moves down), so the
	// attestation behind an older grant is never silently dropped.
	grantHeld bool
	grantB    uint64
	grantFrom uint64

	// Holder-side lease (volatile: a recovered holder re-acquires).
	// leaseSeenB is the highest ballot this incarnation's requests used or
	// their refusals reported; leaseVotes maps each acceptor that answered
	// the pending request to whether it granted.
	leaseHeld      bool
	leaseB         uint64
	leaseFrom      uint64
	leaseUntil     time.Time
	leaseAcquiring bool
	leaseReqB      uint64
	leaseSeenB     uint64
	leaseVotes     map[ids.ProcessID]bool
	leaseWake      chan struct{}
	leaseStats     LeaseStats

	met consMetrics
	tr  *obs.Tracer
	fl  *obs.Recorder

	wg sync.WaitGroup
}

var _ API = (*Engine)(nil)

// New builds an engine and restores all logged instance state — this is the
// consensus side of crash recovery. net must be bound to the consensus
// channel.
func New(cfg Config, st storage.Stable, net router.Net, det Suspector) (*Engine, error) {
	cfg.fill()
	e := &Engine{
		cfg:   cfg,
		st:    st,
		ast:   storage.Async(st),
		net:   net,
		fd:    det,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa5a5a5a5deadbeef)),
		insts: make(map[uint64]*instance),
		met:   newConsMetrics(cfg.Obs.Reg(), cfg.Group),
		tr:    cfg.Obs.Trace(),
		fl:    cfg.Obs.Flight(),
	}
	if err := e.restore(); err != nil {
		return nil, err
	}
	if cfg.Policy == PolicyLeader {
		e.registerLeaseFuncs(cfg.Obs.Reg())
	}
	return e, nil
}

// restore reloads every logged instance.
func (e *Engine) restore() error {
	keys, err := e.st.List(keyPrefix)
	if err != nil {
		return fmt.Errorf("consensus: list log: %w", err)
	}
	for _, key := range keys {
		kind, k, ok := parseKey(key)
		if !ok {
			continue
		}
		val, found, err := e.st.Get(key)
		if err != nil {
			return fmt.Errorf("consensus: restore %s: %w", key, err)
		}
		if !found {
			continue
		}
		in := e.getLocked(k)
		switch kind {
		case 'p':
			in.proposal = val
			in.hasProp = true
		case 'a':
			r := wire.NewReader(val)
			in.promised = r.U64()
			in.hasAcc = r.Bool()
			in.accB = r.U64()
			in.accV = r.Bytes32() // val came out of Get: ours to alias
			if err := r.Done(); err != nil {
				return fmt.Errorf("consensus: corrupt acceptor cell %s: %w", key, err)
			}
		case 'd':
			if !in.hasDec {
				in.decided = val
				in.hasDec = true
			}
		}
	}
	// The lease-grant cell is a ranged promise: forgetting it across a
	// crash would let the acceptor promise/accept below a granted ballot.
	raw, found, err := e.st.Get(keyLease)
	if err != nil {
		return fmt.Errorf("consensus: restore lease grant: %w", err)
	}
	if found {
		r := wire.NewReader(raw)
		e.grantB = r.U64()
		e.grantFrom = r.U64()
		if err := r.Done(); err != nil {
			return fmt.Errorf("consensus: corrupt lease grant cell: %w", err)
		}
		e.grantHeld = true
	}
	return nil
}

// Start arms the engine with its incarnation context. Drivers started by
// Propose/WaitDecided stop when ctx is cancelled; Stop waits for them.
func (e *Engine) Start(ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctx = ctx
	// Resume drivers for instances that were mid-flight when the previous
	// incarnation crashed: any logged proposal without a logged decision
	// must be re-proposed (idempotently) so the instance terminates.
	for _, in := range e.insts {
		if in.hasProp && !in.hasDec {
			e.startDriverLocked(in)
		}
	}
}

// Stop waits for all drivers to exit (cancel the Start context first).
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.wg.Wait()
}

// getLocked returns the instance for k, creating it if needed. e.mu held.
func (e *Engine) getLocked(k uint64) *instance {
	in, ok := e.insts[k]
	if !ok {
		in = &instance{k: k}
		e.insts[k] = in
	}
	return in
}

// Propose implements API.
func (e *Engine) Propose(k uint64, v []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k < e.floor {
		return fmt.Errorf("%w: instance %d below floor %d", ErrDiscarded, k, e.floor)
	}
	in := e.getLocked(k)
	if in.hasDec {
		return nil
	}
	if in.proposed() {
		// P4: the value proposed to instance k never changes — across
		// crashes through the log, within an incarnation through
		// in.proposal. A different v is a caller bug; keep the original.
		e.startDriverLocked(in)
		return nil
	}
	if in.proposal == nil {
		// A value taken by an earlier Propose whose write failed stays:
		// it may already be on the wire at the lease ballot.
		in.proposal = append([]byte{}, v...) // non-nil even when empty
		in.proposedAt = time.Now().UnixNano()
	}
	if e.leaseElsewhereLocked(k) {
		// Another process's lease makes its value the only one choosable
		// at or below its ballot here: log ours only if we coordinate.
		in.propDeferred = true
		e.startDriverLocked(in)
		return nil
	}
	// "A process proposes by logging its initial value on stable
	// storage; this is the only logging required by our basic version of
	// the protocol" (§3.2). The write is issued before anything else.
	// Synchronous engines resolve inline, preserving the original
	// propose-then-return contract (including surfacing the error).
	if err := e.logProposalLocked(in); err != nil {
		return fmt.Errorf("consensus: log proposal %d: %w", k, err)
	}
	e.startDriverLocked(in)
	return nil
}

// logProposalLocked issues the write of in.proposal. On a group-commit
// engine the proposals of all pipelined rounds coalesce into one fsync and
// the driver runs beside it: phase 1 of a classic ballot (a prepare carries
// no value; runBallot waits for hasProp before phase 2), or the whole round
// at the lease ballot. It returns the error of a write that failed at issue.
// e.mu held.
func (e *Engine) logProposalLocked(in *instance) error {
	in.propDeferred = false
	in.propPending = true
	c := e.ast.PutAsync(propKey(in.k), in.proposal)
	if err, done := c.Poll(); done {
		e.proposalLoggedLocked(in, err)
		return err
	}
	c.OnDone(func(err error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.proposalLoggedLocked(in, err)
		// Either way the driver has news: its value may go out now, or
		// (dying incarnation) it never will and the ballot is given up.
		in.wake()
	})
	return nil
}

// proposalLoggedLocked applies the outcome of a proposal write. e.mu held.
func (e *Engine) proposalLoggedLocked(in *instance, err error) {
	in.propPending = false
	if err == nil {
		in.hasProp = true
		e.startDriverLocked(in)
	}
}

// WaitDecided implements API.
func (e *Engine) WaitDecided(ctx context.Context, k uint64) ([]byte, error) {
	e.mu.Lock()
	if k < e.floor {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: instance %d", ErrDiscarded, k)
	}
	in := e.getLocked(k)
	if in.hasDec {
		v := in.decided
		e.mu.Unlock()
		return v, nil
	}
	if !in.wasForgot {
		// Ensure someone is working on the instance, at least as a
		// learner asking for the decision, then wait for it.
		e.startDriverLocked(in)
		if in.settled == nil {
			in.settled = make(chan struct{})
		}
		settled := in.settled
		e.mu.Unlock()
		select {
		case <-settled:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		e.mu.Lock()
	}
	v, ok := in.decided, in.hasDec
	e.mu.Unlock()
	if !ok {
		// A peer garbage-collected this instance under a checkpoint: the
		// decision may no longer be reachable through Consensus. The
		// caller must catch up via state transfer instead (§5.3).
		return nil, fmt.Errorf("%w: instance %d reported forgotten by a peer", ErrDiscarded, k)
	}
	return v, nil
}

// DecidedLocal implements API.
func (e *Engine) DecidedLocal(k uint64) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.insts[k]
	if !ok || !in.hasDec {
		return nil, false
	}
	return in.decided, true
}

// Proposal implements API.
func (e *Engine) Proposal(k uint64) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.insts[k]
	if !ok || !in.hasProp {
		return nil, false
	}
	return in.proposal, true
}

// DiscardBelow implements API.
func (e *Engine) DiscardBelow(k uint64) error {
	e.mu.Lock()
	if k <= e.floor {
		e.mu.Unlock()
		return nil
	}
	e.floor = k
	// Delete only the cells an instance has: deleting an absent key still
	// costs the log a tombstone record and a persist, and a process that
	// never coordinated round k never wrote its proposal cell.
	var keys []string
	for kk, in := range e.insts {
		if kk >= k {
			continue
		}
		in.gone = true
		in.wake()
		delete(e.insts, kk)
		if in.hasProp || in.propPending {
			keys = append(keys, propKey(kk))
		}
		if in.promised > 0 || in.hasAcc {
			keys = append(keys, accKey(kk))
		}
		if in.hasDec {
			keys = append(keys, decKey(kk))
		}
	}
	e.mu.Unlock()

	// Issue all the deletes, then wait: on a group-commit engine the whole
	// discard shares a handful of fsyncs instead of paying one per cell.
	// They are waited for last to first: a log resolves in issue order, so
	// once the last has, the others answer without a wait channel each.
	dels := make([]*storage.Completion, len(keys))
	for i, key := range keys {
		dels[i] = e.ast.DeleteAsync(key)
	}
	for i := len(dels) - 1; i >= 0; i-- {
		if err := dels[i].Wait(); err != nil {
			return fmt.Errorf("consensus: discard %s: %w", keys[i], err)
		}
	}
	return nil
}

// Floor returns the current GC floor.
func (e *Engine) Floor() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.floor
}

// MaxKnown returns the highest instance with any local state, and whether
// one exists.
func (e *Engine) MaxKnown() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var maxK uint64
	found := false
	for k := range e.insts {
		if !found || k > maxK {
			maxK = k
			found = true
		}
	}
	return maxK, found
}

// logAcceptorLocked issues the acceptor cell to stable storage and returns
// the completion. The caller must not send the reply the cell protects
// before the completion resolves (replyWhenDurable). Because the write is
// enqueued under e.mu, concurrent acceptor updates of the same instance
// reach the log in volatile-state order. e.mu held.
func (e *Engine) logAcceptorLocked(in *instance) *storage.Completion {
	// Pooled: the log borrows the cell for the call only.
	w := wire.GetWriter(32 + len(in.accV))
	w.U64(in.promised)
	w.Bool(in.hasAcc)
	w.U64(in.accB)
	w.Bytes32(in.accV)
	c := e.ast.PutAsync(accKey(in.k), w.Bytes())
	wire.PutWriter(w)
	return c
}

// replyWhenDurable transmits reply to one peer once the log write covering
// it is durable — the §2.1 discipline: volatile state may move early, but
// the process only *acts* (here: promises/accepts on the wire) after the
// completion fires. A failed write means a dying incarnation: stay silent,
// exactly like a crash between the log call and the send.
func (e *Engine) replyWhenDurable(c *storage.Completion, to ids.ProcessID, reply message) {
	if err, done := c.Poll(); done {
		if err == nil {
			e.send(to, reply)
		}
		return
	}
	c.OnDone(func(err error) {
		if err == nil {
			e.send(to, reply)
		}
	})
}

// decideLocked records a decision, the engine's one place that installs
// one. The value was chosen by an accept quorum whose acceptor cells are
// durable (an accepted reply is only sent once its cell is), so it is
// installed at once — WaitDecided, DecidedLocal, the mDecide replies and the
// broadcast layer's commit act on it — while the local decision cell lands
// behind: a process that crashes before the cell is durable learns the same
// value again, as it would had it crashed before learning it at all. Only a
// write that fails at issue (the incarnation is dying) leaves the instance
// undecided. v is already the engine's own — a slice of a received frame,
// the logged proposal, or an accepted value — and immutable, so it is
// installed without another copy. e.mu held.
func (e *Engine) decideLocked(in *instance, v []byte) {
	if in.hasDec {
		return
	}
	quorumAt := time.Now().UnixNano()
	if in.proposedAt != 0 {
		e.met.quorumNS.Observe(quorumAt - in.proposedAt)
	}
	e.tr.MarkRound(e.cfg.Group, in.k)
	c := e.ast.PutAsync(decKey(in.k), v)
	err, done := c.Poll()
	if done && err != nil {
		return
	}
	in.decided = v
	in.hasDec = true
	in.settle()
	if done {
		e.met.decideFsyncNS.Observe(time.Now().UnixNano() - quorumAt)
		return
	}
	c.OnDone(func(err error) {
		if err == nil {
			e.met.decideFsyncNS.Observe(time.Now().UnixNano() - quorumAt)
		}
	})
}
