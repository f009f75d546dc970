package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ShardedOptions configures a ShardedCluster: N processes, each hosting
// Groups independent ordering groups over one multiplexed network and one
// shared per-process store.
type ShardedOptions struct {
	N      int
	Groups int
	Seed   uint64
	Net    transport.MemOptions
	// Consensus policy/timing (PID/N/Seed filled per process and group).
	Consensus consensus.Config
	// Core protocol options, applied to every group (PID/N/Group/
	// Incarnation and the recorder callbacks are filled per node).
	Core core.Config
	FD   fd.Options
	// MergedDelivery wires each group's checkpoint fold to the
	// process-wide merge frontier (core.Config.MergeFloor over the
	// process's group.Stream), the merged-mode checkpointing discipline:
	// per-round delivery metadata is retained until every group of the
	// process has committed past it, so the cross-group interleave stays
	// reconstructible across checkpoints. Set it for clusters that verify
	// merged sequences while running a Checkpointer.
	MergedDelivery bool
	// Mux tunes the multiplexer's write coalescing (zero = no coalescing).
	Mux group.MuxOptions
	// InjectFaultyStorage wraps each process's shared store in a
	// storage.Faulty trigger — below the group namespaces, so one fault
	// takes the whole process down, like a real disk failure.
	InjectFaultyStorage bool
	// NewStore, when set, supplies each process's shared stable-storage
	// engine (default storage.NewMem): all groups of the process run in
	// namespaces of it, so a group-commit engine coalesces their fsyncs.
	NewStore func(ids.ProcessID) storage.Stable
	// Transport, when set, replaces the simulated in-memory network
	// (e.g. TCP loopback); Net is then ignored and Cluster.Net is nil.
	Transport transport.Network
	// Obs is the per-process observability template (PID is filled per
	// process). One plane serves all groups of a process — per-group
	// metrics carry a {group} label, so they stay distinguishable.
	Obs obs.Options
}

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
	if o.Consensus.RetryMin <= 0 {
		o.Consensus.RetryMin = 3 * time.Millisecond
	}
	if o.Consensus.RetryMax <= 0 {
		o.Consensus.RetryMax = 50 * time.Millisecond
	}
	if o.Core.GossipInterval <= 0 {
		o.Core.GossipInterval = 10 * time.Millisecond
	}
	if o.FD.Heartbeat <= 0 {
		o.FD.Heartbeat = 5 * time.Millisecond
	}
	if o.FD.Timeout <= 0 {
		o.FD.Timeout = 30 * time.Millisecond
	}
}

// ShardedCluster is N processes x G ordering groups over one multiplexed
// network. Group g's nodes across all processes form one instance of the
// paper's protocol, verified by its own recorder; crash and recovery act
// on whole processes (all groups at once), as they would in production.
type ShardedCluster struct {
	Opts ShardedOptions
	Net  *transport.Mem // nil when Options.Transport overrides it
	Mux  *group.Mux
	// Nodes[pid][gid] is group gid's node at process pid.
	Nodes [][]*node.Node
	// Stores[pid][gid] is the per-group accounted view over the process's
	// shared engine (true layer names: the group namespace sits below).
	Stores [][]*storage.Accounted
	// Faults[pid] is the process-level fault trigger (with
	// InjectFaultyStorage only).
	Faults []*storage.Faulty
	// Recs[gid] is group gid's safety recorder.
	Recs []*check.Recorder
	// Streams[pid] is process pid's per-round merge stream: every group's
	// OnRound feeds it, Frontier is the process's merge floor, and
	// SubscribeMerged hangs streaming cursors off it.
	Streams []*group.Stream
	// Obs[pid] is process pid's observability plane, shared by all of its
	// groups. Always populated.
	Obs []*obs.Plane

	net         transport.Network
	inners      []storage.Stable // engines to close on Stop
	epochStores []storage.Stable // per process: holds the proc-epoch cell
	ctx         context.Context
	cancel      context.CancelFunc

	fdMu sync.Mutex
	fds  []*node.SharedFD // per process; nil when down
}

// NewShardedCluster builds (but does not start) a sharded cluster.
func NewShardedCluster(opts ShardedOptions) *ShardedCluster {
	opts.fill()
	c := &ShardedCluster{Opts: opts}
	if opts.Transport != nil {
		c.net = opts.Transport
	} else {
		c.Net = transport.NewMem(opts.N, opts.Net)
		c.net = c.Net
	}
	c.Mux = group.NewMuxOpts(c.net, opts.Groups, opts.Mux)
	for g := 0; g < opts.Groups; g++ {
		c.Recs = append(c.Recs, check.NewRecorder(opts.N))
	}
	c.fds = make([]*node.SharedFD, opts.N)
	c.ctx, c.cancel = context.WithCancel(context.Background())

	for p := 0; p < opts.N; p++ {
		pid := ids.ProcessID(p)
		obsOpts := opts.Obs
		obsOpts.PID = pid
		plane := obs.New(obsOpts)
		c.Obs = append(c.Obs, plane)
		if p == 0 {
			// The mux is cluster-global in this simulated harness; its
			// counters land on process 0's registry.
			c.Mux.SetObs(plane)
		}
		stream := group.NewStream(opts.Groups)
		stream.SetObs(plane)
		c.Streams = append(c.Streams, stream)
		// The process's shared engine, with the optional process-level
		// fault trigger below every group namespace.
		var shared storage.Stable
		if opts.NewStore != nil {
			shared = opts.NewStore(pid)
			c.inners = append(c.inners, shared)
		} else {
			shared = storage.NewMem()
		}
		if opts.InjectFaultyStorage {
			f := storage.NewFaulty(shared)
			c.Faults = append(c.Faults, f)
			shared = f
		}
		// The proc-epoch cell rides the shared engine, below the fault
		// trigger: an armed storage fault kills the whole process's
		// recovery, epoch log included.
		c.epochStores = append(c.epochStores, shared)

		var nodes []*node.Node
		var stores []*storage.Accounted
		for g := 0; g < opts.Groups; g++ {
			gid := ids.GroupID(g)
			acct := storage.NewAccounted(storage.NewPrefixed(shared, group.StoreNamespace(gid)))
			stores = append(stores, acct)

			coreCfg := opts.Core
			coreCfg.OnDeliver = c.Recs[g].OnDeliver(pid)
			coreCfg.OnRestore = c.Recs[g].OnRestore(pid)
			coreCfg.OnRound = stream.NoteRound
			coreCfg.OnRoundSkip = stream.NoteSkip
			if opts.MergedDelivery {
				coreCfg.MergeFloor = stream.Frontier
			}
			ncfg := node.Config{
				PID:       pid,
				N:         opts.N,
				Group:     gid,
				Core:      coreCfg,
				Consensus: opts.Consensus,
				FD:        opts.FD,
				Obs:       plane,
				SharedFD:  func() fd.API { return c.fdView(pid, gid) },
			}
			nodes = append(nodes, node.New(ncfg, acct, c.Mux.Net(gid)))
		}
		c.Nodes = append(c.Nodes, nodes)
		c.Stores = append(c.Stores, stores)
	}
	return c
}

// fdView returns group gid's facade over process pid's live shared
// detector. During the window where no detector is up (the process is
// down or mid-teardown) it returns an inert facade; the node reading it
// is being crashed anyway.
func (c *ShardedCluster) fdView(pid ids.ProcessID, gid ids.GroupID) fd.API {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	if c.fds[pid] == nil {
		return fd.InertView(pid, c.Opts.N, c.Opts.FD, gid)
	}
	return c.fds[pid].View(gid)
}

// FD returns process pid's live shared failure detector (nil when the
// process is down).
func (c *ShardedCluster) FD(pid ids.ProcessID) *node.SharedFD {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	return c.fds[pid]
}

// StartAll boots every process.
func (c *ShardedCluster) StartAll() error {
	for p := 0; p < c.Opts.N; p++ {
		if err := c.Start(ids.ProcessID(p)); err != nil {
			return err
		}
	}
	return nil
}

// Start boots process pid: the shared failure detector comes up first
// (one proc-epoch log write, one heartbeat stream), then every group
// starts concurrently (their replay phases are independent) and Start
// returns when all are up. On any failure the whole process is crashed
// again — a sharded process is either fully up or fully down.
func (c *ShardedCluster) Start(pid ids.ProcessID) error {
	for g := range c.Recs {
		c.Recs[g].StartSession(pid)
	}
	if c.Faults != nil {
		c.Faults[pid].Disarm()
	}
	epoch, err := node.NextProcEpoch(c.epochStores[pid])
	if err != nil {
		return fmt.Errorf("sharded start p%v: %w", pid, err)
	}
	sfd, err := node.StartSharedFD(c.ctx, pid, c.Opts.N, epoch, c.Opts.FD, c.Mux.ProcNet())
	if err != nil {
		return fmt.Errorf("sharded start p%v: %w", pid, err)
	}
	c.fdMu.Lock()
	c.fds[pid] = sfd
	c.fdMu.Unlock()
	errs := make([]error, c.Opts.Groups)
	var wg sync.WaitGroup
	for g, n := range c.Nodes[pid] {
		wg.Add(1)
		go func(g int, n *node.Node) {
			defer wg.Done()
			errs[g] = n.Start(c.ctx)
		}(g, n)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			c.Crash(pid)
			return fmt.Errorf("sharded start p%v g%d: %w", pid, g, err)
		}
	}
	return nil
}

// Crash kills process pid: every group's volatile state is lost at once,
// and the shared failure detector stops with them.
func (c *ShardedCluster) Crash(pid ids.ProcessID) {
	for _, n := range c.Nodes[pid] {
		n.Crash()
	}
	c.fdMu.Lock()
	sfd := c.fds[pid]
	c.fds[pid] = nil
	c.fdMu.Unlock()
	if sfd != nil {
		sfd.Stop()
	}
}

// Recover restarts process pid and returns once every group's replay
// completes.
func (c *ShardedCluster) Recover(pid ids.ProcessID) (time.Duration, error) {
	start := time.Now()
	err := c.Start(pid)
	return time.Since(start), err
}

// Up reports whether every group of process pid is running.
func (c *ShardedCluster) Up(pid ids.ProcessID) bool {
	for _, n := range c.Nodes[pid] {
		if !n.Up() {
			return false
		}
	}
	return true
}

// Stop tears the whole cluster down, closing any engines the store hooks
// opened.
func (c *ShardedCluster) Stop() {
	for p := range c.Nodes {
		c.Crash(ids.ProcessID(p))
	}
	c.cancel()
	if c.Net != nil {
		c.Net.Close()
	}
	for _, st := range c.inners {
		if cl, ok := st.(storage.Closer); ok {
			cl.Close()
		}
	}
}

// Broadcast submits a payload on group g at process pid, records it with
// the group's recorder, and waits until it is ordered (basic A-broadcast
// semantics).
func (c *ShardedCluster) Broadcast(ctx context.Context, pid ids.ProcessID, g ids.GroupID, payload []byte) (ids.MsgID, error) {
	p := c.Nodes[pid][g].Proto()
	if p == nil {
		return ids.MsgID{}, node.ErrDown
	}
	id, err := p.Broadcast(ctx, payload)
	if id != (ids.MsgID{}) {
		c.Recs[g].RecordBroadcast(id, payload)
	}
	if err == nil {
		c.Recs[g].MarkReturned(id)
	}
	return id, err
}

// AwaitDelivered blocks until every listed process has delivered id in
// group g.
func (c *ShardedCluster) AwaitDelivered(ctx context.Context, g ids.GroupID, id ids.MsgID, pids ...ids.ProcessID) error {
	for {
		all := true
		for _, pid := range pids {
			p := c.Nodes[pid][g].Proto()
			if p == nil || !p.Delivered(id) {
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

// VerifyAll runs every group's safety checks plus Termination for the
// given good processes (which must be fully up).
func (c *ShardedCluster) VerifyAll(good ...ids.ProcessID) error {
	for g, rec := range c.Recs {
		gid := ids.GroupID(g)
		if err := rec.Verify(); err != nil {
			return c.violation(fmt.Errorf("group %v: %w", gid, err))
		}
		must := rec.DeliveredAnywhere()
		must = append(must, rec.ReturnedBroadcasts()...)
		finals := make([]check.Final, 0, len(good))
		for _, pid := range good {
			p := c.Nodes[pid][gid].Proto()
			if p == nil {
				return fmt.Errorf("group %v: good process p%d is down", gid, pid)
			}
			base, suffix := p.Sequence()
			finals = append(finals, check.NewFinal(pid, base, suffix))
		}
		if err := check.VerifyTermination(must, finals); err != nil {
			return c.violation(fmt.Errorf("group %v: %w", gid, err))
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
		for g, rec := range c.Recs {
			must := rec.DeliveredAnywhere()
			must = append(must, rec.ReturnedBroadcasts()...)
			total += len(must)
			for _, id := range must {
				if err := c.AwaitDelivered(ctx, ids.GroupID(g), id, good...); err != nil {
					return err
				}
			}
		}
		quiesced := true
	outer:
		for _, pid := range good {
			for _, n := range c.Nodes[pid] {
				if p := n.Proto(); p == nil || p.UnorderedLen() > 0 {
					quiesced = false
					break outer
				}
			}
		}
		again := 0
		for _, rec := range c.Recs {
			again += len(rec.DeliveredAnywhere()) + len(rec.ReturnedBroadcasts())
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

// Sequences snapshots every group's delivery sequence at process pid
// (Merge / Subscribe input).
func (c *ShardedCluster) Sequences(pid ids.ProcessID) ([]group.Sequence, error) {
	seqs := make([]group.Sequence, 0, c.Opts.Groups)
	for g, n := range c.Nodes[pid] {
		p := n.Proto()
		if p == nil {
			return nil, fmt.Errorf("p%v g%d is down", pid, g)
		}
		r := p.Round() // read before Sequence: under-reports, never over
		base, suffix := p.Sequence()
		seqs = append(seqs, group.Sequence{
			Group:      ids.GroupID(g),
			Base:       base,
			Deliveries: suffix,
			Rounds:     r,
		})
	}
	return seqs, nil
}

// MergedAt computes process pid's deterministic cross-group merge,
// covering rounds [from, rounds). ok is false while the process is down.
func (c *ShardedCluster) MergedAt(pid ids.ProcessID) (merged []core.Delivery, from, rounds uint64, ok bool) {
	seqs, err := c.Sequences(pid)
	if err != nil {
		return nil, 0, 0, false
	}
	merged, from, rounds = group.Merge(seqs)
	return merged, from, rounds, true
}

// SubscribeMerged subscribes a streaming merge cursor at process pid.
func (c *ShardedCluster) SubscribeMerged(pid ids.ProcessID) (*group.Cursor, error) {
	return c.Streams[pid].Subscribe(func() ([]group.Sequence, error) {
		return c.Sequences(pid)
	})
}

// VerifyMergeDeterminism checks that the merged sequences of all listed
// processes agree on the rounds they all cover. Processes may have folded
// different prefixes (their checkpoint floors advance independently), so
// each merge is first trimmed to the highest base among them.
func (c *ShardedCluster) VerifyMergeDeterminism(pids ...ids.ProcessID) error {
	merges := make([][]core.Delivery, 0, len(pids))
	var base uint64
	for _, pid := range pids {
		m, from, _, ok := c.MergedAt(pid)
		if !ok {
			return fmt.Errorf("merge at p%v unavailable (process down?)", pid)
		}
		if from > base {
			base = from
		}
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
func deliveryEqual(a, b core.Delivery) bool {
	return a.Group == b.Group && a.Round == b.Round && a.Pos == b.Pos &&
		a.Msg.ID == b.Msg.ID && bytes.Equal(a.Msg.Payload, b.Msg.Payload)
}

// sliceRounds cuts a round-ordered delivery sequence down to the rounds
// in [lo, hi).
func sliceRounds(m []core.Delivery, lo, hi uint64) []core.Delivery {
	m = group.TrimBelowRound(m, lo)
	end := 0
	for end < len(m) && m[end].Round < hi {
		end++
	}
	return m[:end]
}

// cursorState is one long-lived streaming subscription plus everything it
// has streamed so far; the soak threads it through its differential
// checks.
type cursorState struct {
	cur      *group.Cursor
	streamed []core.Delivery
	resyncs  int
}

// verifyCursorAgainstBatch drains cs's cursor and compares the whole
// streamed sequence against the batch merge at pid, polling until both
// views converge on identical sequences (events trail commits by
// microseconds) or ctx expires. Any content mismatch fails immediately.
//
// A lagged cursor — the process adopted a GC-forced state transfer whose
// skipped rounds no consumer can reconstruct — is handled the way a real
// consumer must: the prefix streamed before the lag is verified against
// the batch merge over the rounds both cover, then the subscription is
// replaced by a fresh one (which resumes at the merge base) and the check
// continues. The return value is the agreed sequence length of the final
// comparison.
func (c *ShardedCluster) verifyCursorAgainstBatch(ctx context.Context, pid ids.ProcessID, cs *cursorState) (int, error) {
	for {
		var err error
		cs.streamed, err = cs.cur.Next(cs.streamed)
		if errors.Is(err, group.ErrCursorLagged) {
			if err := c.verifyLaggedPrefix(pid, cs); err != nil {
				return 0, err
			}
			fresh, err := c.SubscribeMerged(pid)
			if err != nil {
				return 0, fmt.Errorf("cursor p%v: resubscribe after lag: %w", pid, err)
			}
			cs.cur.Close()
			cs.cur, cs.streamed = fresh, nil
			cs.resyncs++
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("cursor p%v: %w", pid, err)
		}
		batch, from, _, ok := c.MergedAt(pid)
		if !ok {
			return 0, fmt.Errorf("cursor p%v: batch merge unavailable", pid)
		}
		trimmed := group.TrimBelowRound(cs.streamed, from)
		n := len(trimmed)
		if len(batch) < n {
			n = len(batch)
		}
		for i := 0; i < n; i++ {
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
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("cursor p%v: streaming (%d) and batch (%d) merges never converged: %w",
				pid, len(trimmed), len(batch), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// verifyLaggedPrefix checks that what a now-lagged cursor streamed before
// the gap is byte-identical to the batch merge over the rounds both
// cover.
func (c *ShardedCluster) verifyLaggedPrefix(pid ids.ProcessID, cs *cursorState) error {
	batch, from, rounds, ok := c.MergedAt(pid)
	if !ok {
		return fmt.Errorf("cursor p%v: batch merge unavailable after lag", pid)
	}
	lo, hi := cs.cur.StartRound(), cs.cur.Emitted()
	if from > lo {
		lo = from
	}
	if rounds < hi {
		hi = rounds
	}
	if hi <= lo {
		return nil // no overlap to compare
	}
	a := sliceRounds(cs.streamed, lo, hi)
	b := sliceRounds(batch, lo, hi)
	if len(a) != len(b) {
		return fmt.Errorf("cursor p%v: lagged prefix covers rounds [%d,%d) with %d deliveries; batch has %d",
			pid, lo, hi, len(a), len(b))
	}
	for i := range a {
		if !deliveryEqual(a[i], b[i]) {
			return fmt.Errorf("cursor p%v: lagged prefix disagrees with batch at index %d (rounds [%d,%d))", pid, i, lo, hi)
		}
	}
	return nil
}

// verifyFoldedMerge is the bounded-state phase of a checkpointing soak:
// it force-checkpoints every group of every process (folding under the
// merge floor), asserts the folds actually reclaimed delivered prefix and
// left no explicit delivery below the merge floor, and re-verifies merge
// determinism, the long-lived cursors, and a freshly subscribed cursor
// over the genuinely folded state. Returns the rounds folded at p0
// (summed over groups).
func (c *ShardedCluster) verifyFoldedMerge(ctx context.Context, all []ids.ProcessID, cursors []*cursorState) (uint64, error) {
	everyGroupActive := true
	for _, rec := range c.Recs {
		if len(rec.DeliveredAnywhere()) == 0 {
			everyGroupActive = false
		}
	}
	for _, pid := range all {
		var foldedMsgs uint64
		// The frontier only moves forward, so whatever a fold below leaves
		// in a group's explicit suffix must lie at or above this sample.
		floor := c.Streams[pid].Frontier()
		for g, n := range c.Nodes[pid] {
			p := n.Proto()
			if p == nil {
				return 0, fmt.Errorf("folded merge: p%v g%d down at verification", pid, g)
			}
			if err := p.CheckpointNow(); err != nil {
				return 0, fmt.Errorf("folded merge: checkpoint p%v g%d: %w", pid, g, err)
			}
			base, suffix := p.Sequence()
			foldedMsgs += base.Pos
			// Bounded suffix: the fold keeps only the rounds the merge has
			// not passed yet, however long the history behind them is.
			if len(suffix) > 0 && suffix[0].Round < floor {
				return 0, fmt.Errorf("folded merge: p%v g%d retains round %d (%d deliveries) below the merge floor %d",
					pid, g, suffix[0].Round, len(suffix), floor)
			}
		}
		// Bounded state: the slowest group's floor equals its own round
		// counter, so with every group active the forced fold must have
		// absorbed delivered prefix somewhere at this process.
		if everyGroupActive && foldedMsgs == 0 {
			return 0, fmt.Errorf("folded merge: p%v folded nothing under the merge floor (frontier %d)",
				pid, c.Streams[pid].Frontier())
		}
	}
	if err := c.VerifyMergeDeterminism(all...); err != nil {
		return 0, fmt.Errorf("folded merge: %w", err)
	}
	var folded uint64
	for g, n := range c.Nodes[all[0]] {
		p := n.Proto()
		if p == nil {
			return 0, fmt.Errorf("folded merge: p%v g%d down", all[0], g)
		}
		base, _ := p.Sequence()
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
		fresh, err := c.SubscribeMerged(pid)
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

// LayerTotals rolls the per-group accounted stats of process pid up by
// layer name ("cons", "abcast", "node", ...): group namespaces sit below
// the accounting, so the per-layer attribution stays truthful and summing
// across groups double-counts nothing (each group's ops are its own; the
// shared engine's fsyncs are not per-group state and are read from the
// engine once).
func (c *ShardedCluster) LayerTotals(pid ids.ProcessID) map[string]storage.LayerStats {
	out := make(map[string]storage.LayerStats)
	for _, acct := range c.Stores[pid] {
		for name, st := range acct.Layers() {
			cur := out[name]
			cur.Add(st)
			out[name] = cur
		}
	}
	return out
}
