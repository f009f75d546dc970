package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/abcast"
	"repro/internal/check"
	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ShardedOptions configures a ShardedCluster: N abcast.Sharded processes,
// each hosting Groups ordering groups over one multiplexed network and one
// shared per-process store.
type ShardedOptions struct {
	N      int
	Groups int
	Seed   uint64
	Net    transport.MemOptions
	// Protocol configures every group of every process.
	Protocol abcast.ProtocolOptions
	// MergedDelivery is abcast.ShardedConfig.MergedDelivery: checkpoint
	// folds stop at the merge floor, so merged sequences stay
	// reconstructible across checkpoints. Set it for clusters that verify
	// merged sequences while running a Checkpointer.
	MergedDelivery bool
	// Mux tunes the multiplexer's write coalescing (zero = no coalescing).
	Mux abcast.ShardedNetOptions
	// NewStore, when set, supplies each process's shared stable-storage
	// engine (default storage.NewMem): all groups of the process run in
	// namespaces of it, so a group-commit engine coalesces their fsyncs.
	NewStore func(ids.ProcessID) storage.Stable
}

// shardedFD is every process's failure detector: fast timers.
var shardedFD = abcast.FDOptions{Heartbeat: 5 * time.Millisecond, Timeout: 30 * time.Millisecond}

func (o *ShardedOptions) fill() {
	if o.N <= 0 {
		o.N = 3
	}
	if o.Groups <= 0 {
		o.Groups = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Net.Seed == 0 {
		o.Net.Seed = o.Seed
	}
	if o.Protocol.GossipInterval <= 0 {
		o.Protocol.GossipInterval = 10 * time.Millisecond
	}
}

// ShardedCluster is N abcast.Sharded processes over one multiplexed
// in-memory network: the sharded front end exactly as it ships, crashed and
// recovered as whole processes. Each process's shared store sits on a
// storage.Faulty trigger, so one storage fault takes every group of the
// process down, like a real disk failure. One recorder per ordering group
// verifies that group's history against the full specification.
type ShardedCluster struct {
	Opts ShardedOptions
	Net  *transport.Mem
	Mux  *abcast.ShardedNetwork
	// Procs[pid] is process pid. RunReshardSoak replaces a crashed entry
	// with one rebuilt from the same store.
	Procs  []*abcast.Sharded
	Faults []*storage.Faulty
	// Obs[pid] is process pid's observability plane, shared by all of its
	// groups.
	Obs []*obs.Plane

	recs    *groupRecorders
	engines []storage.Stable // engines from NewStore (closed by Stop)
	ctx     context.Context
	cancel  context.CancelFunc
}

// NewShardedCluster builds (but does not start) a sharded cluster.
func NewShardedCluster(opts ShardedOptions) (*ShardedCluster, error) {
	opts.fill()
	c := &ShardedCluster{
		Opts:  opts,
		Net:   transport.NewMem(opts.N, opts.Net),
		Procs: make([]*abcast.Sharded, opts.N),
		recs:  newGroupRecorders(opts.N),
	}
	c.Mux = abcast.NewShardedNetworkOpts(c.Net, opts.Groups, opts.Mux)
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for p := 0; p < opts.N; p++ {
		pid := ids.ProcessID(p)
		// One plane serves all groups of a process: per-group metrics carry
		// a {group} label.
		c.Obs = append(c.Obs, obs.New(obs.Options{PID: pid}))
		var st storage.Stable = storage.NewMem()
		if opts.NewStore != nil {
			st = opts.NewStore(pid)
			c.engines = append(c.engines, st)
		}
		c.Faults = append(c.Faults, storage.NewFaulty(st))
	}
	// The mux is cluster-global in this simulated harness; its counters
	// land on process 0's registry.
	c.Mux.SetObs(c.Obs[0])
	for p := 0; p < opts.N; p++ {
		if err := c.build(ids.ProcessID(p)); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// build makes process pid a new abcast.Sharded over its store: the
// persisted topology and reaped set are read back, as on a restart.
func (c *ShardedCluster) build(pid ids.ProcessID) error {
	s, err := abcast.NewSharded(abcast.ShardedConfig{
		PID:            pid,
		N:              c.Opts.N,
		Protocol:       c.Opts.Protocol,
		FD:             shardedFD,
		MergedDelivery: c.Opts.MergedDelivery,
		// Every process of a run comes back, so none may age out of the
		// GC floor: here a GC-forced state transfer is always a bug.
		MergeFloorStaleness: -1,
		Obs:                 c.Obs[pid],
		OnDeliver:           c.recs.onDeliver(pid),
		OnRestore:           c.recs.onRestore(pid),
	}, c.Faults[pid], c.Mux)
	if err != nil {
		return fmt.Errorf("sharded p%v: %w", pid, err)
	}
	c.Procs[pid] = s
	return nil
}

// StartAll boots every process.
func (c *ShardedCluster) StartAll() error {
	for p := range c.Procs {
		if err := c.Start(ids.ProcessID(p)); err != nil {
			return err
		}
	}
	return nil
}

// startBound is how long a process's boot may take: its replay takes
// milliseconds, even under the race detector.
const startBound = 30 * time.Second

// Start boots process pid (initialization or recovery). Every group's
// recorder opens a new session first: replay delivers into it. A boot
// still under way after startBound stops, and its error names the round
// its replay waits on.
func (c *ShardedCluster) Start(pid ids.ProcessID) error {
	c.recs.startSessions(pid, c.Procs[pid].Groups())
	c.Faults[pid].Disarm()
	ctx, cancel := context.WithCancel(c.ctx) // the incarnation's, ended by the cluster's once it boots
	bound := time.AfterFunc(startBound, cancel)
	defer bound.Stop()
	return c.Procs[pid].Start(ctx)
}

// Stop tears the whole cluster down, closing any engines NewStore opened.
func (c *ShardedCluster) Stop() {
	for _, s := range c.Procs {
		if s != nil {
			s.Crash()
		}
	}
	c.cancel()
	c.Net.Close()
	for _, st := range c.engines {
		if cl, ok := st.(storage.Closer); ok {
			cl.Close()
		}
	}
}

// Broadcast submits a payload on group g at process pid, records it with
// the group's recorder, and waits until it is ordered.
func (c *ShardedCluster) Broadcast(ctx context.Context, pid ids.ProcessID, g ids.GroupID, payload []byte) (ids.MsgID, error) {
	id, err := c.Procs[pid].BroadcastTo(ctx, g, payload)
	c.recs.submitted(g, id, payload, err == nil)
	return id, err
}

// AwaitDelivered blocks until every listed process has delivered id in
// group g.
func (c *ShardedCluster) AwaitDelivered(ctx context.Context, g ids.GroupID, id ids.MsgID, pids ...ids.ProcessID) error {
	for {
		all := true
		for _, pid := range pids {
			if !c.Procs[pid].Delivered(g, id) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("await %v g%v: %w", id, g, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// FlightDump returns the merged, time-ordered anomaly event log of every
// process's flight recorder — the first artifact to read after a failed
// sharded soak.
func (c *ShardedCluster) FlightDump() string {
	return obs.FormatDump(obs.DumpAll(c.Obs))
}

// violation annotates a safety/liveness violation with the flight-recorder
// dump, so the causal event sequence leading up to the failure travels with
// the error.
func (c *ShardedCluster) violation(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w\n--- flight recorder ---\n%s", err, c.FlightDump())
}

// mustDeliver is group g's Termination set: every message delivered
// anywhere, plus every broadcast that returned.
func mustDeliver(rec *check.Recorder) []ids.MsgID {
	return append(rec.DeliveredAnywhere(), rec.ReturnedBroadcasts()...)
}

// VerifyAll runs every group's safety checks plus Termination for the
// given good processes (which must be fully up).
func (c *ShardedCluster) VerifyAll(good ...ids.ProcessID) error {
	if err := c.recs.verify(); err != nil {
		return c.violation(err)
	}
	for _, g := range c.recs.groups() {
		finals := make([]check.Final, 0, len(good))
		for _, pid := range good {
			if !c.Procs[pid].Up() {
				return fmt.Errorf("group %v: good process p%d is down", g, pid)
			}
			base, suffix := c.Procs[pid].Sequence(g)
			finals = append(finals, check.NewFinal(pid, base, suffix))
		}
		if err := check.VerifyTermination(mustDeliver(c.recs.rec(g)), finals); err != nil {
			return c.violation(fmt.Errorf("group %v: %w", g, err))
		}
	}
	return nil
}

// AwaitAllDelivered waits until every group's must-deliver set is
// delivered by all listed processes and all groups quiesce, then runs
// VerifyAll (see Cluster.AwaitAllDelivered for the quiescence rationale).
func (c *ShardedCluster) AwaitAllDelivered(ctx context.Context, good ...ids.ProcessID) error {
	for {
		total := 0
		for _, g := range c.recs.groups() {
			must := mustDeliver(c.recs.rec(g))
			total += len(must)
			for _, id := range must {
				if err := c.AwaitDelivered(ctx, g, id, good...); err != nil {
					return err
				}
			}
		}
		quiesced := true
		again := 0
		for _, g := range c.recs.groups() {
			again += len(mustDeliver(c.recs.rec(g)))
			for _, pid := range good {
				if !c.Procs[pid].Up() || c.Procs[pid].UnorderedLen(g) > 0 {
					quiesced = false
				}
			}
		}
		if quiesced && again == total {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("await sharded quiescence: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return c.VerifyAll(good...)
}

// VerifyMergeDeterminism checks that the merged sequences of all listed
// processes agree on the rounds they all cover. Processes may have folded
// different prefixes (their checkpoint floors advance independently), so
// each merge is first trimmed to the highest base among them.
func (c *ShardedCluster) VerifyMergeDeterminism(pids ...ids.ProcessID) error {
	merges := make([][]abcast.Delivery, 0, len(pids))
	var base uint64
	for _, pid := range pids {
		m, from, _, ok := c.Procs[pid].Merged()
		if !ok {
			return fmt.Errorf("merge at p%v unavailable (process down?)", pid)
		}
		base = max(base, from)
		merges = append(merges, m)
	}
	ref := group.TrimBelowRound(merges[0], base)
	for i := 1; i < len(merges); i++ {
		if at := group.VerifyMergePrefix(ref, group.TrimBelowRound(merges[i], base)); at >= 0 {
			return fmt.Errorf("merged sequences of p%v and p%v disagree at index %d (past round %d)",
				pids[0], pids[i], at, base)
		}
	}
	return nil
}

// deliveryEqual is the byte-identical comparison the streaming-vs-batch
// differential uses: identity, position, round, owning group and payload
// must all agree.
func deliveryEqual(a, b abcast.Delivery) bool {
	return a.Group == b.Group && a.Round == b.Round && a.Pos == b.Pos &&
		a.Msg.ID == b.Msg.ID && bytes.Equal(a.Msg.Payload, b.Msg.Payload)
}

// cursorState is one long-lived streaming subscription plus everything it
// has streamed so far; the soaks thread it through their differential
// checks.
type cursorState struct {
	cur      *abcast.MergeCursor
	streamed []abcast.Delivery
}

// verifyCursorAgainstBatch drains cs's cursor and compares the whole
// streamed sequence against the batch merge at pid, polling until both
// views converge on identical sequences (events trail commits by
// microseconds, and a group spliced in live boots asynchronously) or ctx
// expires. Any content mismatch fails immediately, and so does a lagged
// cursor: only a state transfer skips rounds, and the soaks run without
// Δ-triggered transfers at the cursor's process and assert that the GC
// floor forces none. The return value is the agreed sequence length.
func (c *ShardedCluster) verifyCursorAgainstBatch(ctx context.Context, pid ids.ProcessID, cs *cursorState) (int, error) {
	for {
		var err error
		cs.streamed, err = cs.cur.Next(cs.streamed)
		if err != nil {
			return 0, fmt.Errorf("cursor p%v: %w", pid, err)
		}
		state := "batch merge unavailable"
		if batch, from, _, ok := c.Procs[pid].Merged(); ok {
			trimmed := group.TrimBelowRound(cs.streamed, from)
			for i := 0; i < min(len(trimmed), len(batch)); i++ {
				if !deliveryEqual(trimmed[i], batch[i]) {
					return 0, fmt.Errorf("cursor p%v: streaming and batch merge disagree at index %d (past round %d): stream %v/%v@%d batch %v/%v@%d",
						pid, i, from,
						trimmed[i].Group, trimmed[i].Msg.ID, trimmed[i].Pos,
						batch[i].Group, batch[i].Msg.ID, batch[i].Pos)
				}
			}
			if len(trimmed) == len(batch) {
				return len(batch), nil
			}
			state = fmt.Sprintf("streaming (%d) and batch (%d) merges differ in length", len(trimmed), len(batch))
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("cursor p%v: %s: %w", pid, state, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// verifyFoldedMerge is the bounded-state phase of a checkpointing soak. It
// checks folds against the bound production folds use: the cluster floor,
// the lowest durable frontier the processes gossip, not a process's own
// merge frontier. Every process samples its merge frontier and then
// checkpoints past it, so once the gossip has carried the new durable
// frontiers, every fold reaches the lowest sample. Until the deadline it
// checkpoints every process again until no group anywhere keeps a round
// below that floor and every process has folded delivered prefix. Then it
// re-verifies merge determinism, the long-lived cursors and a freshly
// subscribed cursor over the folded state. It returns the rounds folded at
// the first process (summed over groups).
func (c *ShardedCluster) verifyFoldedMerge(ctx context.Context, all []ids.ProcessID, cursors []*cursorState) (uint64, error) {
	floor := uint64(math.MaxUint64)
	for _, pid := range all {
		floor = min(floor, c.Procs[pid].MergeFrontier())
		if err := c.Procs[pid].CheckpointNow(); err != nil {
			return 0, fmt.Errorf("folded merge: checkpoint p%v: %w", pid, err)
		}
	}
	for {
		err := c.foldedTo(all, floor)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("folded merge: %w: %w", err, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := c.VerifyMergeDeterminism(all...); err != nil {
		return 0, fmt.Errorf("folded merge: %w", err)
	}
	var folded uint64
	s := c.Procs[all[0]]
	for g := 0; g < s.Groups(); g++ {
		base, _ := s.Sequence(ids.GroupID(g))
		folded += base.Rounds
	}
	for _, pid := range all {
		// The long-lived cursor is unaffected by folds (it buffered the
		// history live)...
		if _, err := c.verifyCursorAgainstBatch(ctx, pid, cursors[pid]); err != nil {
			return 0, fmt.Errorf("folded merge (long-lived cursor): %w", err)
		}
		// ...and a fresh subscription must still reconstruct everything
		// from the merge base on — the metadata the floor retained.
		fresh, err := c.Procs[pid].MergeCursor()
		if err != nil {
			return 0, fmt.Errorf("folded merge: fresh subscribe p%v: %w", pid, err)
		}
		fcs := &cursorState{cur: fresh}
		_, err = c.verifyCursorAgainstBatch(ctx, pid, fcs)
		fcs.cur.Close()
		if err != nil {
			return 0, fmt.Errorf("folded merge (fresh cursor): %w", err)
		}
	}
	return folded, nil
}

// foldedTo checkpoints every process and reports the first group that
// still keeps a delivery below floor, or a process that folded nothing.
// The topology is static, so the global floor is every group's local one.
func (c *ShardedCluster) foldedTo(all []ids.ProcessID, floor uint64) error {
	for _, pid := range all {
		s := c.Procs[pid]
		if err := s.CheckpointNow(); err != nil {
			return fmt.Errorf("checkpoint p%v: %w", pid, err)
		}
		var foldedMsgs uint64
		for g := 0; g < s.Groups(); g++ {
			base, suffix := s.Sequence(ids.GroupID(g))
			foldedMsgs += base.Pos
			if len(suffix) > 0 && suffix[0].Round < floor {
				return fmt.Errorf("p%v g%d retains round %d (%d deliveries) below the cluster floor %d",
					pid, g, suffix[0].Round, len(suffix), floor)
			}
		}
		if foldedMsgs == 0 {
			return fmt.Errorf("p%v folded nothing below the cluster floor %d", pid, floor)
		}
	}
	return nil
}

// verifyNoGCForced asserts the GC floor's promise: no process ever served a
// state transfer because a peer had fallen below its collection floor. It
// reads the process-lifetime counters behind
// Stats().Total.StateSentGCForced, which itself counts only the live
// incarnation, and returns their sum over every process and group.
func (c *ShardedCluster) verifyNoGCForced() (uint64, error) {
	var n uint64
	for p, s := range c.Procs {
		for g := 0; g < s.Groups(); g++ {
			n += c.Obs[p].Reg().Counter(obs.GroupLabel("abcast.core.state_sent_gc_forced", ids.GroupID(g))).Value()
		}
	}
	if n == 0 {
		return 0, nil
	}
	detail := ""
	for p, plane := range c.Obs {
		for _, e := range plane.Flight().Dump() {
			if e.Kind == obs.EvStateSent && e.Note == "peer below gc floor" {
				detail += fmt.Sprintf(" [p%d g%v k=%d to=p%d kq=%d]", p, e.Group, e.Round, e.A, e.B)
			}
		}
	}
	return n, fmt.Errorf("%d GC-forced state transfers:%s", n, detail)
}

// orphanTag is the lowest sequence number of a re-injected orphan: the
// front end tags an orphan's sequence number with its retiring group at
// bit 48 and above, where native counters never reach.
const orphanTag = 1 << 48

// groupRecorders is a cluster's one set of specification recorders: one
// check.Recorder per ordering group, keyed by Delivery.Group and minted on
// first sight (a resharded cluster's group set grows). Validity is strict:
// a broadcast is recorded when it is submitted, so an identity that is
// delivered but was never submitted fails Verify. The two kinds of message
// the front end originates itself — reshard markers and re-injected
// orphans — are recorded on delivery instead.
type groupRecorders struct {
	mu     sync.Mutex
	n      int
	recs   map[ids.GroupID]*check.Recorder
	events map[ids.GroupID][]int // per process: deliver+restore events recorded
	seen   []map[string]bool     // per process: payloads ever delivered to it
}

func newGroupRecorders(n int) *groupRecorders {
	rr := &groupRecorders{
		n:      n,
		recs:   make(map[ids.GroupID]*check.Recorder),
		events: make(map[ids.GroupID][]int),
		seen:   make([]map[string]bool, n),
	}
	for p := range rr.seen {
		rr.seen[p] = make(map[string]bool)
	}
	return rr
}

// rec returns group g's recorder, minting it on first sight.
func (rr *groupRecorders) rec(g ids.GroupID) *check.Recorder {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.recLocked(g)
}

func (rr *groupRecorders) recLocked(g ids.GroupID) *check.Recorder {
	r, ok := rr.recs[g]
	if !ok {
		r = check.NewRecorder(rr.n)
		rr.recs[g] = r
		rr.events[g] = make([]int, rr.n)
	}
	return r
}

// groups returns the groups seen so far, ascending.
func (rr *groupRecorders) groups() []ids.GroupID {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	gs := make([]ids.GroupID, 0, len(rr.recs))
	for g := range rr.recs {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

// submitted records a broadcast on group g (the Validity set) once it has
// an identity, and marks it owed to every good process if it returned.
func (rr *groupRecorders) submitted(g ids.GroupID, id ids.MsgID, payload []byte, returned bool) {
	if id == (ids.MsgID{}) {
		return
	}
	r := rr.rec(g)
	r.RecordBroadcast(id, payload)
	if returned {
		r.MarkReturned(id)
	}
}

func (rr *groupRecorders) onDeliver(pid ids.ProcessID) func(abcast.Delivery) {
	return func(d abcast.Delivery) {
		rr.mu.Lock()
		r := rr.recLocked(d.Group)
		if abcast.IsReshardMarker(d.Msg.Payload) || d.Msg.ID.Seq >= orphanTag {
			r.RecordBroadcast(d.Msg.ID, d.Msg.Payload)
		}
		rr.events[d.Group][pid]++
		rr.seen[pid][string(d.Msg.Payload)] = true
		rr.mu.Unlock()
		r.OnDeliver(pid)(d)
	}
}

func (rr *groupRecorders) onRestore(pid ids.ProcessID) func(abcast.GroupID, abcast.Snapshot) {
	return func(g abcast.GroupID, snap abcast.Snapshot) {
		rr.mu.Lock()
		r := rr.recLocked(g)
		rr.events[g][pid]++
		rr.mu.Unlock()
		r.OnRestore(pid)(snap)
	}
}

// startSessions opens one incarnation history per hosted group. With the
// empty-session reuse in check.Recorder this is restart-count-free: idle
// groups do not accumulate history objects (verify bounds it).
func (rr *groupRecorders) startSessions(pid ids.ProcessID, groups int) {
	for g := 0; g < groups; g++ {
		rr.rec(ids.GroupID(g)).StartSession(pid)
	}
}

// verify runs every group's specification check plus the recorder-leak
// growth bound: sessions partition recorded events, so a recorder may
// retain at most one session more than the events it recorded for a pid.
func (rr *groupRecorders) verify() error {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for g, r := range rr.recs {
		if err := r.Verify(); err != nil {
			return fmt.Errorf("group %v: %w", g, err)
		}
		for p, e := range rr.events[g] {
			if s := r.Sessions(ids.ProcessID(p)); s > e+1 {
				return fmt.Errorf("group %v: recorder leak: p%d retains %d sessions for %d events", g, p, s, e)
			}
		}
	}
	return nil
}

// delivered reports whether pid has ever delivered payload (in any group,
// under any identity — orphan re-injection remaps ids but not bytes).
func (rr *groupRecorders) delivered(pid ids.ProcessID, payload string) bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.seen[pid][payload]
}

func (rr *groupRecorders) deliveredCount(pid ids.ProcessID) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.seen[pid])
}
