package harness

import (
	"context"
	"fmt"
	"time"

	"repro/abcast"
	"repro/internal/ids"
	"repro/internal/storage"
)

// The sharded soak's shape: soakN processes of soakGroups groups,
// soakSteps fault-schedule steps with at most soakN-1 processes down at
// once, soakMsgs broadcast attempts of soakPayload bytes spread round-robin
// over the groups, and soakDrain for the final catch-up and verification.
const (
	soakN       = 3
	soakGroups  = 3
	soakSteps   = 40
	soakMsgs    = 120
	soakPayload = 32
	soakDrain   = 60 * time.Second
)

// ShardedSoakOptions configures one randomized crash-recovery soak over a
// cluster of abcast.Sharded processes: the seeded schedule crashes and
// recovers whole processes (every group at once), arms process-level
// storage faults below the group namespaces and isolates processes on the
// network, while closed-loop senders spread the broadcast workload over
// every group. The final verification is per
// group — each group must satisfy the full Atomic Broadcast specification
// — plus the cross-group merge checks.
type ShardedSoakOptions struct {
	// Seed drives the whole schedule. Required; 0 picks the default.
	Seed uint64
	// Protocol selects the protocol variant under test. Application
	// checkpointing (CheckpointEvery + Checkpointer) is supported: the
	// cluster then runs in merged mode (each group's folds gated by the
	// merge floor), and the final phase force-folds and re-verifies the
	// merge over genuinely checkpointed prefixes. Δ-triggered state
	// transfer must stay off — an adoption skips rounds wholesale, which no
	// merge consumer can reconstruct; RunShardedSoak rejects it.
	Protocol abcast.ProtocolOptions
	// NewStore, when set, supplies each process's shared engine (all
	// groups in namespaces of it); default in-memory.
	NewStore func(ids.ProcessID) storage.Stable
}

func (o *ShardedSoakOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// ShardedSoakResult summarizes what one sharded soak run exercised.
type ShardedSoakResult struct {
	Crashes       int
	Recoveries    int
	StorageFaults int
	Isolations    int // processes the schedule cut off from their peers
	LeasesLost    int // lease-lost events in the flight recorders
	Broadcasts    int
	Returned      int // across all groups
	Delivered     int // distinct messages across all groups' final orders
	MergedRounds  uint64
	FoldedRounds  uint64 // rounds folded into base checkpoints (p0, summed over groups)
	CursorMerged  int    // deliveries streamed by p0's cursor (== batch merge length)
	GCForced      uint64 // state transfers forced by a peer's GC floor (must be 0)
}

func (r ShardedSoakResult) String() string {
	return fmt.Sprintf("crashes=%d recoveries=%d storage-faults=%d isolations=%d leases-lost=%d broadcasts=%d returned=%d delivered=%d merged-rounds=%d folded-rounds=%d cursor-merged=%d gc-forced=%d",
		r.Crashes, r.Recoveries, r.StorageFaults, r.Isolations, r.LeasesLost, r.Broadcasts, r.Returned, r.Delivered, r.MergedRounds, r.FoldedRounds, r.CursorMerged, r.GCForced)
}

// RunShardedSoak executes one randomized sharded crash-recovery soak and
// returns the verification error, if any. Every run is a pure function of
// Seed (plus goroutine interleavings).
//
// Beyond the per-group specification checks, the final phase verifies the
// streaming merge against the batch merge: a cursor subscribed at every
// process before the faults begin must, after the drain, have streamed a
// sequence byte-identical to what batch Merged reconstructs — across every
// crash, recovery and (in the checkpointing variant) merge-floor-gated fold
// the schedule produced. No process may have served a GC-forced state
// transfer: the cluster floor holds every fold behind the slowest
// recoverer. With a Checkpointer configured the run then force-folds every
// group down to the cluster floor, asserts the folds reclaimed delivered
// prefix (bounded state), and re-verifies merge determinism plus a freshly
// subscribed cursor over the folded state.
func RunShardedSoak(opts ShardedSoakOptions) (ShardedSoakResult, error) {
	opts.fill()
	var res ShardedSoakResult
	if opts.Protocol.Delta > 0 {
		return res, fmt.Errorf("sharded soak: Δ state transfer skips rounds wholesale, which no merge consumer can reconstruct — the unsharded soaks run that variant")
	}
	if opts.Protocol.CheckpointEvery > 0 && opts.Protocol.Checkpointer == nil {
		return res, fmt.Errorf("sharded soak: CheckpointEvery without a Checkpointer never folds; configure one (the variant under test is merged-mode application checkpointing)")
	}

	c, err := NewShardedCluster(ShardedOptions{
		N:        soakN,
		Groups:   soakGroups,
		Seed:     opts.Seed,
		Net:      DefaultLossyNet(opts.Seed),
		Protocol: opts.Protocol,
		// The coalesced data plane, under crash and recovery.
		Mux:      abcast.ShardedNetOptions{FlushDelay: 200 * time.Microsecond},
		NewStore: opts.NewStore,
		// The soak consumes merged sequences, so checkpointing runs the
		// merged-mode discipline: folds gated by the merge floor.
		MergedDelivery: opts.Protocol.Checkpointer != nil,
	})
	if err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: start: %w", opts.Seed, err)
	}

	// One streaming cursor per process, subscribed before any fault: its
	// output is the differential oracle's counterpart for the whole run.
	cursors := make([]*cursorState, soakN)
	for p := 0; p < soakN; p++ {
		cur, err := c.Procs[p].MergeCursor()
		if err != nil {
			return res, fmt.Errorf("sharded soak seed=%d: subscribe p%d: %w", opts.Seed, p, err)
		}
		cursors[p] = &cursorState{cur: cur}
	}

	drainCtx, cancel, err := runSoakSchedule(opts, c, &res)
	if err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	defer cancel()
	for _, g := range c.recs.groups() {
		res.Returned += len(c.recs.rec(g).ReturnedBroadcasts())
	}

	var all []ids.ProcessID
	for p := 0; p < soakN; p++ {
		all = append(all, ids.ProcessID(p))
	}
	if err := c.AwaitAllDelivered(drainCtx, all...); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: drain: %w", opts.Seed, err)
	}
	for _, g := range c.recs.groups() {
		res.Delivered += len(c.recs.rec(g).DeliveredAnywhere())
	}
	res.LeasesLost = leasesLost(c.Obs)
	// Checked before the cursors: a GC-forced transfer would lag them.
	if res.GCForced, err = c.verifyNoGCForced(); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	if err := c.VerifyMergeDeterminism(all...); err != nil {
		return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
	}
	if _, _, rounds, ok := c.Procs[0].Merged(); ok {
		res.MergedRounds = rounds
	}

	// Streaming-vs-batch differential: every process's cursor must have
	// streamed exactly the interleave batch Merged reconstructs.
	for p := 0; p < soakN; p++ {
		n, err := c.verifyCursorAgainstBatch(drainCtx, ids.ProcessID(p), cursors[p])
		if err != nil {
			return res, fmt.Errorf("sharded soak seed=%d: %w", opts.Seed, err)
		}
		if p == 0 {
			res.CursorMerged = n
		}
	}

	if opts.Protocol.Checkpointer != nil {
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
// recovered process advertises a higher epoch. Heartbeats are periodic, so
// the check polls until the views converge.
func awaitSharedFDConvergence(ctx context.Context, c *ShardedCluster, all []ids.ProcessID) error {
	for {
		converged := true
		var detail string
		for _, p := range all {
			fdP := c.Procs[p].FD()
			if fdP == nil {
				return fmt.Errorf("shared fd: p%v has no detector while up", p)
			}
			for _, q := range all {
				fdQ := c.Procs[q].FD()
				if fdQ == nil {
					return fmt.Errorf("shared fd: p%v has no detector while up", q)
				}
				if want := fdQ.SelfEpoch(); fdP.Epoch(q) != want || fdP.Suspects(q) {
					converged = false
					detail = fmt.Sprintf("p%v sees p%v at epoch %d (want %d), suspected=%v",
						p, q, fdP.Epoch(q), want, fdP.Suspects(q))
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
