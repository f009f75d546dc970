package group

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
)

// ErrCursorLagged is returned by Cursor.Next after the cursor missed
// rounds it can no longer obtain — a state transfer (§5.3) skipped over
// consensus instances wholesale, so their per-round interleave is gone.
// The consumer must resynchronize: drop the cursor, adopt the groups'
// base snapshots, and Subscribe a fresh cursor.
var ErrCursorLagged = errors.New("group: merge cursor lagged behind a state transfer; resubscribe")

// ErrCursorClosed is returned by Cursor.Next after Close.
var ErrCursorClosed = errors.New("group: merge cursor closed")

// noRound is the frontier contribution of a drained (sealed and fully
// decided) group: it no longer gates the merge.
const noRound = math.MaxUint64

// maxFreeRounds caps a cursor's free list of emptied round copies: enough
// for every group's round between two polls, without keeping the peak of a
// cursor that lagged far behind.
const maxFreeRounds = 64

// Stream tracks the per-group round frontiers of one sharded process and
// fans per-round commit events out to subscribed Cursors. It is the glue
// between the core layer's rounds (core.Shard.Round) and the streaming
// merge:
//
//   - every group of the process routes its seam's Round upcall into
//     NoteRound, which advances that group's frontier and feeds the round
//     to every cursor;
//   - Frontier returns the process-wide merge frontier in global rounds
//     (the highest global round every live group has fully committed) and —
//     localized per group with LocalFloor — bounds the seam's FoldFloor:
//     checkpoint folds gated by it never destroy per-round delivery
//     metadata a merge consumer still needs, which is what makes
//     checkpointing legal in merged mode;
//   - Subscribe seeds a Cursor from a snapshot of the per-group sequences
//     and then keeps it advancing incrementally, so the global sequence is
//     delivered online instead of recomputed from scratch per Merge call.
//
// The Stream also owns the process's live Topology: NoteRound scans every
// committed batch for SEAL/JOIN markers and applies the transition the
// moment the marker's round commits, so the topology is a deterministic
// function of the groups' agreed sequences — every process transitions at
// the identical position of the merged order. Groups that start ordering
// before their JOIN marker has committed (the new node races the marker)
// are buffered and spliced in when the marker fixes their offset.
//
// Rounds arrive in order per group (the sequencer commits strictly in
// round order); re-commits during a recovery replay are deduplicated by
// round number. A Stream outlives process incarnations — the same Stream
// keeps serving across crash/recover cycles of the groups feeding it.
type Stream struct {
	mu      sync.Mutex
	topo    *Topology
	sorted  []ids.GroupID // cache of topo.Groups()
	decided map[ids.GroupID]uint64
	durable map[ids.GroupID]uint64       // last checkpointed round per group
	pending map[ids.GroupID][]roundEvent // events of groups awaiting their JOIN
	cursors map[*Cursor]struct{}
	fl      *obs.Recorder // cursor-lag anomaly events (may be nil)
	onTopo  func(*Topology)
}

// NewStream creates a Stream for a process hosting the given number of
// ordering groups (the static epoch-0 topology: groups 0..n-1, offset 0).
func NewStream(groups int) *Stream {
	return NewStreamTopology(NewStaticTopology(groups))
}

// NewStreamTopology creates a Stream over an explicit topology — the
// restart path of a resharded deployment, which reloads the persisted
// topology instead of replaying markers that checkpoint folds may have
// erased.
func NewStreamTopology(t *Topology) *Stream {
	s := &Stream{
		topo:    t.Clone(),
		decided: make(map[ids.GroupID]uint64),
		durable: make(map[ids.GroupID]uint64),
		pending: make(map[ids.GroupID][]roundEvent),
		cursors: make(map[*Cursor]struct{}),
	}
	s.sorted = s.topo.Groups()
	return s
}

// Groups returns the number of ordering groups tracked (sealed included).
func (s *Stream) Groups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.topo.Spans)
}

// Topology returns a copy of the current topology.
func (s *Stream) Topology() *Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topo.Clone()
}

// Epoch returns the current topology epoch.
func (s *Stream) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topo.Epoch
}

// SetOnTopology registers a hook invoked (with a private copy, outside the
// stream lock) after every topology transition — the sharded layer uses it
// to persist the topology and swap the router ring.
func (s *Stream) SetOnTopology(fn func(*Topology)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onTopo = fn
}

// SetObs routes cursor-lag anomalies to the plane's flight recorder — a
// lagged merge cursor is exactly the "consumer silently fell behind a
// state transfer" failure a post-mortem needs a timestamp for. Nil is a
// no-op.
func (s *Stream) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.fl = p.Flight()
	s.mu.Unlock()
}

// contribution returns group g's frontier contribution in global rounds
// given its decided counter: offset+decided for live groups, noRound for
// drained ones. s.mu held.
func contribution(sp Span, decided uint64) uint64 {
	if sp.Sealed && decided >= sp.Final+1 {
		return noRound
	}
	return sp.Offset + decided
}

// frontierLocked computes the global merge frontier. s.mu held.
func (s *Stream) frontierLocked() uint64 {
	f := uint64(noRound)
	for g, sp := range s.topo.Spans {
		if c := contribution(sp, s.decided[g]); c < f {
			f = c
		}
	}
	if f == noRound {
		// All groups drained (or none): nothing gates the merge anymore;
		// report the highest point any group reached so floors stay sane.
		f = 0
		for g, sp := range s.topo.Spans {
			if c := sp.Offset + s.decided[g]; c > f {
				f = c
			}
		}
	}
	return f
}

// NoteRound records that group g committed round with the given (possibly
// empty) batch of new deliveries, and fans the event out to every
// subscribed cursor. Every group's core.Shard.Round calls it. The
// deliveries slice is borrowed for the call, as core.Shard.Round lends
// it: what the stream keeps of it, it copies. Rounds of groups the
// topology does not know yet are buffered until a JOIN marker splices the
// group in; negative group IDs are ignored.
func (s *Stream) NoteRound(g ids.GroupID, round uint64, deliveries []core.Delivery) {
	if g < 0 {
		return
	}
	s.mu.Lock()
	topoChanged := s.noteRoundLocked(g, round, deliveries)
	var snap *Topology
	var cb func(*Topology)
	if topoChanged {
		snap, cb = s.topo.Clone(), s.onTopo
	}
	s.mu.Unlock()
	if topoChanged && cb != nil {
		cb(snap)
	}
}

func (s *Stream) noteRoundLocked(g ids.GroupID, round uint64, deliveries []core.Delivery) bool {
	if _, known := s.topo.Spans[g]; !known {
		s.pending[g] = append(s.pending[g], roundEvent{g: g, round: round, ds: slices.Clone(deliveries)})
		return false
	}
	if round+1 > s.decided[g] {
		s.decided[g] = round + 1
	}
	for c := range s.cursors {
		c.offerLocked(g, round, deliveries)
	}
	// Scan the batch for topology markers; the marker's position in the
	// agreed sequence IS the coordination.
	changed := false
	for _, d := range deliveries {
		if w, ok := DecodeSealMarker(d.Msg.Payload); ok {
			if s.topo.ApplySeal(g, round, w) {
				changed = true
			}
		} else if ng, ok := DecodeJoinMarker(d.Msg.Payload); ok {
			if s.topo.ApplyJoin(g, round, ng) {
				changed = true
				s.spliceLocked(ng)
			}
		}
	}
	if changed {
		s.sorted = s.topo.Groups()
	}
	return changed
}

// spliceLocked replays the buffered pre-JOIN rounds of a freshly joined
// group through the normal event path. s.mu held.
func (s *Stream) spliceLocked(g ids.GroupID) {
	buffered := s.pending[g]
	delete(s.pending, g)
	for _, e := range buffered {
		if e.round+1 > s.decided[g] {
			s.decided[g] = e.round + 1
		}
		for c := range s.cursors {
			c.offerLocked(g, e.round, e.ds)
		}
	}
}

// NoteSkip records that group g's round counter jumped to nextRound
// without committing the rounds in between — a state-transfer adoption
// whose per-round structure was folded away at the sender. Every group's
// core.Shard.Skip calls it. Cursors that had not passed
// the skipped range become lagged immediately (instead of waiting forever
// for rounds that will never be offered); fresh subscriptions seed from
// the adopted state and are unaffected.
func (s *Stream) NoteSkip(g ids.GroupID, nextRound uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.topo.Spans[g]; !known {
		s.pending[g] = append(s.pending[g], roundEvent{g: g, round: nextRound, skip: true})
		return
	}
	if nextRound > s.decided[g] {
		s.decided[g] = nextRound
	}
	for c := range s.cursors {
		c.skipLocked(g, nextRound)
	}
}

// AdoptTopology installs a newer topology learned out-of-band (the
// floor-gossip descriptor): a process whose state transfer skipped the
// marker rounds resynchronizes its epoch here. Older or equal epochs are
// ignored. The topology is a pure function of the agreed markers, so any
// two descriptors with one epoch are identical.
func (s *Stream) AdoptTopology(t *Topology) bool {
	s.mu.Lock()
	if t == nil || t.Epoch <= s.topo.Epoch {
		s.mu.Unlock()
		return false
	}
	s.topo = t.Clone()
	s.sorted = s.topo.Groups()
	// Splice any buffered groups the new topology legitimizes.
	for g := range s.pending {
		if _, known := s.topo.Spans[g]; known {
			s.spliceLocked(g)
		}
	}
	snap, cb := s.topo.Clone(), s.onTopo
	s.mu.Unlock()
	if cb != nil {
		cb(snap)
	}
	return true
}

// Frontier returns the process-wide merge frontier in global rounds: the
// highest global round R such that every live group has committed all its
// rounds below R, as observed through NoteRound. Drained groups (sealed,
// counter past their final round) no longer gate it. It under-reports
// momentarily (events trail the commits they describe), which is the safe
// direction for its use as a merge floor — a checkpoint never folds a
// round the merge has not passed.
func (s *Stream) Frontier() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontierLocked()
}

// NoteDurable records that group g durably checkpointed k local rounds —
// the prefix this process can recover from its own stable storage. Every
// group's core.Shard.Checkpointed calls it.
func (s *Stream) NoteDurable(g ids.GroupID, k uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k > s.durable[g] {
		s.durable[g] = k
	}
}

// DurableFrontier computes the global merge frontier over the DURABLE
// per-group rounds (NoteDurable) instead of the in-memory decided ones:
// the highest global round such that every round below it survives a
// crash of this process. This is what the cluster-floor gossip reports —
// a peer that discards Consensus state below the cluster-wide minimum of
// these can never strand a recovering process, because recovery restores
// at least this much locally (the in-memory frontier would overstate it
// by the rounds committed since the last checkpoint). Groups this process
// knows from the topology but has not checkpointed yet contribute their
// span offset, which is exactly the "protect the whole span" conservative
// bound for freshly spliced groups.
func (s *Stream) DurableFrontier() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := uint64(noRound)
	for g, sp := range s.topo.Spans {
		if c := contribution(sp, s.durable[g]); c < f {
			f = c
		}
	}
	if f == noRound {
		f = 0
		for g, sp := range s.topo.Spans {
			if c := sp.Offset + s.durable[g]; c > f {
				f = c
			}
		}
	}
	return f
}

// LocalFloor translates a global merge floor into group g's local rounds,
// clamped to the group's span — the per-group core.Shard floor derived
// from a global (possibly cluster-wide) floor.
func (s *Stream) LocalFloor(g ids.GroupID, global uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.topo.Spans[g]
	if !ok || global <= sp.Offset {
		return 0
	}
	local := global - sp.Offset
	if sp.Sealed && local > sp.Final+1 {
		local = sp.Final + 1
	}
	return local
}

// Decided returns group g's committed-round count (local rounds) as
// observed through NoteRound (observability).
func (s *Stream) Decided(g ids.GroupID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decided[g]
}

// Drained reports whether group g is sealed and has decided every round up
// to its final bound — the point after which its node can be retired.
func (s *Stream) Drained(g ids.GroupID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.topo.Spans[g]
	return ok && sp.Sealed && s.decided[g] >= sp.Final+1
}

// Subscribe registers a new streaming cursor. snapshot must return the
// current per-group sequences (one per live group, any order; drained
// groups may be omitted, groups unknown to the topology are ignored) — it
// is called after the cursor is registered, so any round committed
// concurrently is either in the snapshot or in the cursor's event backlog,
// never lost. The returned cursor's output starts at the snapshot's merge
// base (the highest folded global round) and is byte-identical to what
// batch MergeT produces from that base onward.
func (s *Stream) Subscribe(snapshot func() ([]Sequence, error)) (*Cursor, error) {
	c := &Cursor{
		stream: s,
		next:   make(map[ids.GroupID]uint64),
		pend:   make(map[ids.GroupID]map[uint64][]core.Delivery),
	}
	s.mu.Lock()
	s.cursors[c] = struct{}{} // buffering: events accumulate in c.backlog
	s.mu.Unlock()

	seqs, err := snapshot() // outside s.mu: snapshot takes protocol locks
	if err != nil {
		s.mu.Lock()
		delete(s.cursors, c)
		s.mu.Unlock()
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := c.seedLocked(seqs); err != nil {
		delete(s.cursors, c)
		return nil, err
	}
	return c, nil
}

// Cursor is one subscriber's incremental view of the merged cross-group
// sequence: per-group global-round frontiers plus the buffered complete
// rounds, advanced by the Stream's events and drained with Next. Creating
// a cursor costs one snapshot; afterwards each round advances in O(groups)
// and a poll that finds no new complete round allocates nothing.
//
// A cursor is volatile consumer state: it survives crash/recovery of the
// groups feeding it (recovery replay re-offers rounds, which deduplicate)
// and topology changes (joins splice in at their marker position, drained
// groups stop gating emission), but a state transfer that skips rounds
// leaves it permanently lagged (ErrCursorLagged) — resubscribe to
// resynchronize.
type Cursor struct {
	stream *Stream

	// All fields below are guarded by stream.mu.
	start     uint64                                     // first global round the cursor covers
	emit      uint64                                     // next global round to emit
	next      map[ids.GroupID]uint64                     // per group: next GLOBAL round to accept
	pend      map[ids.GroupID]map[uint64][]core.Delivery // keyed by global round
	backlog   []roundEvent                               // events buffered while seeding
	free      [][]core.Delivery                          // emptied round copies Next hands back, at most maxFreeRounds
	seeded    bool
	lagged    bool
	lagDetail string // first gap observed, for diagnostics
	closed    bool
}

type roundEvent struct {
	g     ids.GroupID
	round uint64 // nextRound when skip is set
	ds    []core.Delivery
	skip  bool
}

// offerLocked feeds one round event (local round coordinates; the group is
// known to the topology). stream.mu held.
func (c *Cursor) offerLocked(g ids.GroupID, round uint64, ds []core.Delivery) {
	if c.closed {
		return
	}
	if !c.seeded {
		c.backlog = append(c.backlog, roundEvent{g: g, round: round, ds: slices.Clone(ds)})
		return
	}
	c.applyLocked(g, round, ds)
}

// skipLocked handles a round-counter jump (local coordinates). stream.mu
// held.
func (c *Cursor) skipLocked(g ids.GroupID, nextRound uint64) {
	if c.closed {
		return
	}
	if !c.seeded {
		c.backlog = append(c.backlog, roundEvent{g: g, round: nextRound, skip: true})
		return
	}
	sp := c.stream.topo.Spans[g]
	global := sp.Offset + nextRound
	if want := c.nextFor(g, sp); global > want {
		if !c.lagged {
			c.lagDetail = fmt.Sprintf("group %v adopted a state transfer skipping to round %d, expected %d", g, global, want)
			c.stream.fl.Event(obs.EvCursorLag, g, global, int64(want), 0, "state transfer skipped ahead of cursor")
		}
		c.lagged = true
	}
}

// nextFor returns the next global round the cursor accepts from g,
// lazily initializing a group that joined after the cursor was seeded.
// stream.mu held.
func (c *Cursor) nextFor(g ids.GroupID, sp Span) uint64 {
	w, ok := c.next[g]
	if !ok {
		w = sp.Offset
		if w < c.emit {
			// The cursor's emission already passed the group's splice
			// point: impossible for a marker-applied join (the frontier
			// cannot pass the offset before the marker commits), but an
			// adopted topology can land here after a state transfer.
			w = c.emit
		}
		c.next[g] = w
	}
	return w
}

func (c *Cursor) applyLocked(g ids.GroupID, round uint64, ds []core.Delivery) {
	sp, known := c.stream.topo.Spans[g]
	if !known {
		return
	}
	global := sp.Offset + round
	want := c.nextFor(g, sp)
	switch {
	case global < want:
		// Duplicate: a recovery replay re-committing rounds already seen.
	case global > want:
		// Gap: a state transfer skipped rounds wholesale; their interleave
		// is unrecoverable for this cursor.
		if !c.lagged {
			c.lagDetail = fmt.Sprintf("group %v offered round %d, expected %d", g, global, want)
			c.stream.fl.Event(obs.EvCursorLag, g, global, int64(want), 0, "round gap at cursor")
		}
		c.lagged = true
	default:
		if len(ds) > 0 && global >= c.emit {
			// The cursor's own copy, its rounds in the global numbering:
			// the event's slice is borrowed, and shared with other cursors.
			var own []core.Delivery
			if n := len(c.free); n > 0 {
				own, c.free = c.free[n-1], c.free[:n-1]
			}
			ds = append(own, ds...)
			for i := range ds {
				ds[i].Round = global
			}
			bucket := c.pend[g]
			if bucket == nil {
				bucket = make(map[uint64][]core.Delivery)
				c.pend[g] = bucket
			}
			bucket[global] = ds
		}
		c.next[g] = global + 1
	}
}

// seedLocked installs the subscription snapshot: the cursor starts at the
// snapshot's global merge base, adopts each group's suffix below its round
// counter, and then replays the backlog of events that raced the
// snapshot. stream.mu held.
func (c *Cursor) seedLocked(seqs []Sequence) error {
	topo := c.stream.topo
	seen := make(map[ids.GroupID]bool, len(seqs))
	kept := seqs[:0:0]
	for _, sq := range seqs {
		if sq.Group < 0 {
			return fmt.Errorf("group: subscribe snapshot has bad group %v", sq.Group)
		}
		if seen[sq.Group] {
			return fmt.Errorf("group: subscribe snapshot has duplicate group %v", sq.Group)
		}
		seen[sq.Group] = true
		if _, known := topo.Spans[sq.Group]; !known {
			continue // racing its JOIN marker; spliced in later
		}
		kept = append(kept, sq)
	}
	for g, sp := range topo.Spans {
		if seen[g] {
			continue
		}
		if sp.Sealed {
			// A drained retired group may be absent (its node is gone);
			// treat it as fully decided so it never gates the cursor.
			c.next[g] = sp.Offset + sp.Final + 1
			continue
		}
		return fmt.Errorf("group: subscribe snapshot missing live group %v", g)
	}
	c.start = MergeBaseT(kept, topo)
	c.emit = c.start
	for _, sq := range kept {
		sp := topo.Spans[sq.Group]
		for _, d := range sq.Deliveries {
			global := sp.Offset + d.Round
			if global >= c.start && d.Round < sq.Rounds {
				d.Group = sq.Group
				d.Round = global
				bucket := c.pend[sq.Group]
				if bucket == nil {
					bucket = make(map[uint64][]core.Delivery)
					c.pend[sq.Group] = bucket
				}
				bucket[global] = append(bucket[global], d)
			}
		}
		if nxt := sp.Offset + sq.Rounds; nxt > c.next[sq.Group] {
			c.next[sq.Group] = nxt
		} else if _, ok := c.next[sq.Group]; !ok {
			c.next[sq.Group] = sp.Offset
		}
	}
	c.seeded = true
	for _, e := range c.backlog {
		if _, known := topo.Spans[e.g]; !known {
			// Still pre-JOIN: hand the event back to the stream's pending
			// buffer owner (it is already there; markers splice it later).
			continue
		}
		if e.skip {
			c.skipLocked(e.g, e.round)
		} else {
			c.applyLocked(e.g, e.round, e.ds)
		}
	}
	c.backlog = nil
	return nil
}

// minLocked returns the lowest global round some live group has yet to
// complete, from the cursor's view. stream.mu held.
func (c *Cursor) minLocked() uint64 {
	m := uint64(noRound)
	for g, sp := range c.stream.topo.Spans {
		w := c.nextFor(g, sp)
		if sp.Sealed && w >= sp.Offset+sp.Final+1 {
			continue // drained: no longer gates emission
		}
		if w < m {
			m = w
		}
	}
	if m == noRound {
		// Everything drained: emit whatever is buffered.
		m = c.emit
		for _, bucket := range c.pend {
			for global := range bucket {
				if global >= m {
					m = global + 1
				}
			}
		}
	}
	return m
}

// Next appends every merged delivery that has become available since the
// last call to buf and returns the extended slice: all global rounds up to
// the current merge frontier, interleaved exactly as batch MergeT orders
// them (global rounds ascending, groups ascending within a round). Passing
// a reused buffer makes the no-new-round case allocation-free. After
// ErrCursorLagged the cursor is permanently stale; resubscribe.
func (c *Cursor) Next(buf []core.Delivery) ([]core.Delivery, error) {
	s := c.stream
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return buf, ErrCursorClosed
	}
	if c.lagged {
		return buf, fmt.Errorf("%w (%s)", ErrCursorLagged, c.lagDetail)
	}
	for c.emit < c.minLocked() {
		for _, g := range s.sorted {
			if bucket, ok := c.pend[g]; ok {
				if ds, ok := bucket[c.emit]; ok {
					buf = append(buf, ds...)
					delete(bucket, c.emit)
					if len(c.free) < maxFreeRounds {
						clear(ds) // drop the payload references
						c.free = append(c.free, ds[:0])
					}
					if len(bucket) == 0 {
						sp := s.topo.Spans[g]
						if sp.Sealed && c.next[g] >= sp.Offset+sp.Final+1 {
							delete(c.pend, g) // retired group fully consumed
						}
					}
				}
			}
		}
		c.emit++
	}
	return buf, nil
}

// StartRound returns the first global round the cursor covers (the merge
// base of its subscription snapshot).
func (c *Cursor) StartRound() uint64 {
	c.stream.mu.Lock()
	defer c.stream.mu.Unlock()
	return c.start
}

// Emitted returns the cursor's emit frontier: every global round below it
// has been returned by Next.
func (c *Cursor) Emitted() uint64 {
	c.stream.mu.Lock()
	defer c.stream.mu.Unlock()
	return c.emit
}

// Lagged reports whether the cursor missed rounds it cannot recover
// (see ErrCursorLagged).
func (c *Cursor) Lagged() bool {
	c.stream.mu.Lock()
	defer c.stream.mu.Unlock()
	return c.lagged
}

// Close unsubscribes the cursor from its Stream.
func (c *Cursor) Close() {
	c.stream.mu.Lock()
	defer c.stream.mu.Unlock()
	c.closed = true
	delete(c.stream.cursors, c)
}
