package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/storage"
)

// ShardedSoakOptions configures one randomized crash-recovery soak over a
// sharded multi-group cluster: the seeded schedule (shared with RunSoak)
// crashes and recovers whole processes (every group at once) and arms
// process-level storage faults below the group namespaces, while
// closed-loop senders spread the broadcast workload over every group. The
// final verification is per group — each group must satisfy the full
// Atomic Broadcast specification — plus the cross-group merge determinism
// check.
type ShardedSoakOptions struct {
	// Seed drives the whole schedule. Required; 0 picks the default.
	Seed uint64
	// N is the process count (default 3); Groups the ordering-group count
	// (default 2).
	N      int
	Groups int
	// Steps is the number of fault-schedule steps (default 40).
	Steps int
	// Msgs is the number of broadcast attempts across the run (default
	// 120), spread round-robin over the groups.
	Msgs int
	// Payload is the broadcast payload size in bytes (default 32).
	Payload int
	// MaxDown caps how many processes may be down simultaneously
	// (default N-1).
	MaxDown int
	// Core selects the protocol variant under test. Application
	// checkpointing (CheckpointEvery + Checkpointer) is supported: the
	// cluster then runs the merged-mode checkpointing discipline (each
	// group's folds gated by the process-wide merge frontier), and the
	// final phase force-folds and re-verifies the merge over genuinely
	// checkpointed prefixes. Δ-triggered state transfer must stay off —
	// an adoption skips rounds wholesale, which no merge consumer can
	// reconstruct; RunShardedSoak rejects it.
	Core core.Config
	// Consensus extends every group's consensus engine configuration —
	// notably the lease's TTL (PID/N/Seed filled per node).
	Consensus consensus.Config
	// Mux tunes the multiplexer's write coalescing (zero = none), so the
	// soak can exercise the coalesced data plane under crash/recovery.
	Mux group.MuxOptions
	// NewStore, when set, supplies each process's shared engine (all
	// groups in namespaces of it); default in-memory.
	NewStore func(ids.ProcessID) storage.Stable
	// DrainTimeout bounds the final catch-up-and-verify phase (default
	// 60s).
	DrainTimeout time.Duration
}

func (o *ShardedSoakOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.N <= 0 {
		o.N = 3
	}
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.Steps <= 0 {
		o.Steps = 40
	}
	if o.Msgs <= 0 {
		o.Msgs = 120
	}
	if o.Payload <= 0 {
		o.Payload = 32
	}
	if o.MaxDown <= 0 || o.MaxDown >= o.N {
		o.MaxDown = o.N - 1
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 60 * time.Second
	}
}

// ShardedSoakResult summarizes what one sharded soak run exercised.
type ShardedSoakResult struct {
	Crashes       int
	Recoveries    int
	StorageFaults int
	Broadcasts    int
	Returned      int // across all groups
	Delivered     int // distinct messages across all groups' final orders
	MergedRounds  uint64
	FoldedRounds  uint64 // rounds folded into base checkpoints (p0, summed over groups)
	CursorMerged  int    // deliveries streamed by p0's cursor (== batch merge length)
	CursorResyncs int    // cursor resubscriptions after GC-forced state transfers
	LeaseRevokes  int    // lease revocations the schedule injected
}

func (r ShardedSoakResult) String() string {
	return fmt.Sprintf("crashes=%d recoveries=%d storage-faults=%d broadcasts=%d returned=%d delivered=%d merged-rounds=%d folded-rounds=%d cursor-merged=%d cursor-resyncs=%d lease-revokes=%d",
		r.Crashes, r.Recoveries, r.StorageFaults, r.Broadcasts, r.Returned, r.Delivered, r.MergedRounds, r.FoldedRounds, r.CursorMerged, r.CursorResyncs, r.LeaseRevokes)
}

// shardedTarget adapts a ShardedCluster to the soak engine: crash and
// recovery act on whole processes, and the workload walks the groups
// round-robin (offset per sender) so every group sees traffic — merge
// liveness needs every group to keep deciding rounds.
type shardedTarget struct{ c *ShardedCluster }

func (t shardedTarget) Crash(pid ids.ProcessID) { t.c.Crash(pid) }
func (t shardedTarget) Recover(pid ids.ProcessID) (time.Duration, error) {
	return t.c.Recover(pid)
}
func (t shardedTarget) ProcessUp(pid ids.ProcessID) bool        { return t.c.Up(pid) }
func (t shardedTarget) Fault(pid ids.ProcessID) *storage.Faulty { return t.c.Faults[pid] }
func (t shardedTarget) RevokeLease(pid ids.ProcessID) {
	for _, n := range t.c.Nodes[pid] {
		if e := n.Engine(); e != nil {
			e.RevokeLease()
		}
	}
}
func (t shardedTarget) Broadcast(ctx context.Context, pid ids.ProcessID, msgIndex int, payload []byte) (ids.MsgID, error) {
	g := ids.GroupID((msgIndex + int(pid)) % t.c.Opts.Groups)
	return t.c.Broadcast(ctx, pid, g, payload)
}

// RunShardedSoak executes one randomized sharded crash-recovery soak and
// returns the verification error, if any. Every run is a pure function of
// Seed (plus goroutine interleavings), like RunSoak.
//
// Beyond the per-group specification checks, the final phase verifies the
// streaming merge against the batch merge: a cursor subscribed at every
// process before the faults begin must, after the drain, have streamed a
// sequence byte-identical to what batch Merge reconstructs — across every
// crash, recovery and (in the checkpointing variant) merge-floor-gated
// fold the schedule produced. With a Checkpointer configured the run then
// force-folds every group under the merge floor, asserts the folds
// actually reclaimed delivered prefix (bounded state), and re-verifies
// merge determinism plus a freshly subscribed cursor over the folded
// state.
func RunShardedSoak(opts ShardedSoakOptions) (ShardedSoakResult, error) {
	opts.fill()
	var res ShardedSoakResult
	if opts.Core.Delta > 0 {
		return res, fmt.Errorf("sharded soak: Δ state transfer skips rounds wholesale, which no merge consumer can reconstruct — run that variant through RunSoak")
	}
	if opts.Core.CheckpointEvery > 0 && opts.Core.Checkpointer == nil {
		return res, fmt.Errorf("sharded soak: CheckpointEvery without a Checkpointer never folds; configure one (the variant under test is merged-mode application checkpointing)")
	}

	shOpts := ShardedOptions{
		N:                   opts.N,
		Groups:              opts.Groups,
		Seed:                opts.Seed,
		Net:                 DefaultLossyNet(opts.Seed),
		Consensus:           opts.Consensus,
		Core:                opts.Core,
		Mux:                 opts.Mux,
		InjectFaultyStorage: true,
		NewStore:            opts.NewStore,
		// The soak consumes merged sequences, so checkpointing runs the
		// merged-mode discipline: folds gated by the merge frontier.
		MergedDelivery: opts.Core.Checkpointer != nil,
	}
	c := NewShardedCluster(shOpts)
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: start: %w", opts.Seed, err)
	}

	// One streaming cursor per process, subscribed before any fault: its
	// output is the differential oracle's counterpart for the whole run.
	// A GC-forced state transfer during the schedule lags a cursor; the
	// verification then checks its pre-lag prefix and resubscribes, the
	// protocol real merged-mode consumers follow.
	cursors := make([]*cursorState, opts.N)
	for p := 0; p < opts.N; p++ {
		cur, err := c.SubscribeMerged(ids.ProcessID(p))
		if err != nil {
			return res, fmt.Errorf("sharded soak seed=%d: subscribe p%d: %w", opts.Seed, p, err)
		}
		cursors[p] = &cursorState{cur: cur}
	}

	counts, drainCtx, cancel, err := runSoakSchedule(soakSchedule{
		seed:         opts.Seed,
		n:            opts.N,
		steps:        opts.Steps,
		msgs:         opts.Msgs,
		payload:      opts.Payload,
		maxDown:      opts.MaxDown,
		drainTimeout: opts.DrainTimeout,
	}, shardedTarget{c})
	res = ShardedSoakResult{
		Crashes:       counts.crashes,
		Recoveries:    counts.recoveries,
		StorageFaults: counts.storageFaults,
		Broadcasts:    counts.broadcasts,
		LeaseRevokes:  counts.leaseRevokes,
	}
	if err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	defer cancel()
	for _, rec := range c.Recs {
		res.Returned += len(rec.ReturnedBroadcasts())
	}

	var all []ids.ProcessID
	for p := 0; p < opts.N; p++ {
		all = append(all, ids.ProcessID(p))
	}
	if err := c.AwaitAllDelivered(drainCtx, all...); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: drain: %w", opts.Seed, err)
	}
	for _, rec := range c.Recs {
		res.Delivered += len(rec.DeliveredAnywhere())
	}
	if err := c.VerifyMergeDeterminism(all...); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	if _, _, rounds, ok := c.MergedAt(0); ok {
		res.MergedRounds = rounds
	}

	// Streaming-vs-batch differential: every process's cursor must have
	// streamed exactly the interleave batch Merge reconstructs.
	for p := 0; p < opts.N; p++ {
		n, err := c.verifyCursorAgainstBatch(drainCtx, ids.ProcessID(p), cursors[p])
		if err != nil {
			return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
		}
		if p == 0 {
			res.CursorMerged = n
		}
		res.CursorResyncs += cursors[p].resyncs
	}

	if opts.Core.Checkpointer != nil {
		folded, err := c.verifyFoldedMerge(drainCtx, all, cursors)
		if err != nil {
			return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
		}
		res.FoldedRounds = folded
	}

	if err := awaitSharedFDConvergence(drainCtx, c, all); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	if err := verifyObsInvariants(c.Obs); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	return res, nil
}

// awaitSharedFDConvergence asserts the shared-FD recovery contract after
// every process came back up: each process's one detector must re-trust
// every peer at that peer's CURRENT process-level epoch — a crashed and
// recovered process advertises a higher epoch and all groups' facades see
// the re-trust at once (they read the same detector). Heartbeats are
// periodic, so the check polls until the views converge.
func awaitSharedFDConvergence(ctx context.Context, c *ShardedCluster, all []ids.ProcessID) error {
	for {
		converged := true
		var detail string
		for _, p := range all {
			fdP := c.FD(p)
			if fdP == nil {
				return fmt.Errorf("shared fd: p%v has no detector while up", p)
			}
			for _, q := range all {
				fdQ := c.FD(q)
				if fdQ == nil {
					return fmt.Errorf("shared fd: p%v has no detector while up", q)
				}
				want := fdQ.Detector().SelfEpoch()
				// Every group's facade reads the shared state; check one
				// per group to pin the facade path itself.
				for g := 0; g < c.Opts.Groups; g++ {
					v := fdP.View(ids.GroupID(g))
					if v.Epoch(q) != want || v.Suspects(q) {
						converged = false
						detail = fmt.Sprintf("p%v g%d sees p%v at epoch %d (want %d), suspected=%v",
							p, g, q, v.Epoch(q), want, v.Suspects(q))
					}
				}
			}
		}
		if converged {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shared fd never converged: %s: %w", detail, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
