package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/abcast"
	"repro/internal/ids"
)

// ReshardSoakOptions configures one randomized live-resharding soak: a
// seeded schedule interleaves scale-outs (AddGroup), retirements
// (RetireGroup), whole-process crashes and recoveries, checkpoint folds
// and keyed broadcast bursts over an abcast.Sharded cluster, then drains
// and verifies that the moving group set never bent the Atomic Broadcast
// guarantees — per group, and across groups through the merged order.
type ReshardSoakOptions struct {
	// Seed drives the whole schedule (0 picks the default).
	Seed uint64
}

// The reshard soak's shape: reshardN processes (process 0 never crashes:
// it holds the run-long merge cursor whose output is diffed against the
// batch merge at the end), reshardGroups groups at the start and at most
// reshardMaxGroups ever minted, and reshardSteps schedule steps. The final
// catch-up and verification get soakDrain.
const (
	reshardN         = 3
	reshardGroups    = 2
	reshardMaxGroups = 6
	reshardSteps     = 30
)

// ReshardSoakResult summarizes what one resharding soak exercised.
type ReshardSoakResult struct {
	Joins       int // groups minted live
	Retirements int // groups sealed and drained
	Crashes     int
	Recoveries  int
	Broadcasts  int // broadcast attempts that were admitted
	Delivered   int // distinct payloads the always-up process delivered
	Reaped      int // retired groups reclaimed by the floor-gated reap
	CursorLen   int // deliveries the run-long cursor streamed at p0
	GCForced    uint64
}

func (r ReshardSoakResult) String() string {
	return fmt.Sprintf("joins=%d retirements=%d crashes=%d recoveries=%d broadcasts=%d delivered=%d reaped=%d cursor=%d gc-forced=%d",
		r.Joins, r.Retirements, r.Crashes, r.Recoveries, r.Broadcasts, r.Delivered, r.Reaped, r.CursorLen, r.GCForced)
}

// foldCount is the trivial application checkpointer of the soak: state is
// a message count, so folds are cheap and restores are content-free.
type foldCount struct{}

func (foldCount) Checkpoint(prev []byte, delivered []abcast.Message) []byte {
	var n uint64
	if len(prev) == 8 {
		n = binary.BigEndian.Uint64(prev)
	}
	n += uint64(len(delivered))
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, n)
	return out
}

func (foldCount) Restore([]byte) {}

// RunReshardSoak executes one randomized live-resharding soak over a
// ShardedCluster and returns the verification error, if any. The run is a
// pure function of Seed (plus goroutine interleavings). A crashed process
// recovers as a new abcast.Sharded built from its store, which is how the
// persisted topology is reloaded after a real restart.
//
// Verified at the end, after every process recovers and the cluster
// drains:
//
//   - every group's history satisfies the Atomic Broadcast specification
//     (position contiguity + the global position/message bijection =
//     Integrity and Total Order; Validity against the submitted
//     broadcasts, byte-identical payloads everywhere);
//   - every admitted broadcast is delivered by every process, across
//     however many retirements re-injected it (Termination);
//   - the merged orders of all processes agree across every epoch splice,
//     and the run-long streaming cursor at the never-crashed process is
//     byte-identical to what batch Merged reconstructs;
//   - no process ever served a GC-forced state transfer: the gossiped
//     cluster floor kept checkpoint folds behind the slowest recoverer;
//   - the observability conservation laws, including the reshard-event
//     edge-detection laws, hold on every process's plane.
func RunReshardSoak(opts ReshardSoakOptions) (ReshardSoakResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	var res ReshardSoakResult
	rng := rand.New(rand.NewSource(int64(opts.Seed)))

	c, err := NewShardedCluster(ShardedOptions{
		N:      reshardN,
		Groups: reshardGroups,
		Seed:   opts.Seed,
		Protocol: abcast.ProtocolOptions{
			PipelineDepth:   2,
			IdleHeartbeat:   2 * time.Millisecond,
			CheckpointEvery: 8,
			Checkpointer:    foldCount{},
			// Δ-triggered state transfer is the ordinary catch-up lane for
			// recoverers; the cluster floor only has to eliminate the
			// GC-FORCED kind.
			Delta: 8,
		},
		MergedDelivery: true,
	})
	if err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: start: %w", opts.Seed, err)
	}
	procs := c.Procs
	ctx := context.Background()

	// The run-long streaming consumer: subscribed before any fault or
	// reshard, diffed against the batch merge at the end. It lives on p0,
	// which the schedule never crashes.
	cur, err := procs[0].MergeCursor()
	if err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: cursor: %w", opts.Seed, err)
	}
	defer cur.Close()
	cursor := &cursorState{cur: cur}

	// Shadow bookkeeping the schedule steers by.
	down := -1                            // crashed pid (at most one; never 0)
	retired := make(map[ids.GroupID]bool) // groups sealed by this run
	admitted := make(map[string]bool)     // payloads owed delivery everywhere
	minted := reshardGroups

	upProcs := func() []int {
		var up []int
		for p := 0; p < reshardN; p++ {
			if p != down {
				up = append(up, p)
			}
		}
		return up
	}
	activeGroups := func() []ids.GroupID {
		var a []ids.GroupID
		for _, g := range procs[0].ActiveGroups() {
			if !retired[g] {
				a = append(a, g)
			}
		}
		return a
	}
	broadcast := func(step int) {
		for j := 0; j < 4; j++ {
			up := upProcs()
			p := up[rng.Intn(len(up))]
			key := fmt.Sprintf("k-%d-%d-%d", opts.Seed, step, j)
			payload := []byte(fmt.Sprintf("m-%d-%d-%d", opts.Seed, step, j))
			bctx, bcancel := context.WithTimeout(ctx, 10*time.Second)
			g, id, err := procs[p].Broadcast(bctx, []byte(key), payload)
			bcancel()
			c.recs.submitted(g, id, payload, err == nil)
			if err == nil {
				admitted[string(payload)] = true
				res.Broadcasts++
			}
		}
	}
	checkpointAll := func() {
		for _, p := range upProcs() {
			_ = procs[p].CheckpointNow() // a group may be mid-boot after a splice; best-effort
		}
	}
	recoverProc := func() error {
		if down < 0 {
			return nil
		}
		pid := ids.ProcessID(down)
		down = -1
		if err := c.build(pid); err != nil {
			return fmt.Errorf("recover p%d: %w", pid, err)
		}
		// Bounded (Start): a stalled replay fails the seed with the round
		// it waits on, not the package with the test timeout.
		if err := c.Start(pid); err != nil {
			return fmt.Errorf("recover p%d: %w", pid, err)
		}
		res.Recoveries++
		// Re-run the idempotent retirement tail on the recovered process:
		// its incarnation may hold orphans of a group the cluster drained
		// while it was down, and only a local RetireGroup re-injects them.
		// A group the floor-gated reap already reclaimed has no orphans by
		// construction (every consumer passed its final round).
		for g := range retired {
			rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
			// The recovered process may still be resynchronizing its
			// topology from the floor gossip; retiring before it knows
			// the group would bounce off "not in the topology".
			if err := awaitKnown(rctx, procs[pid], g); err != nil {
				rcancel()
				return fmt.Errorf("recovered p%d never learned %v: %w", pid, g, err)
			}
			err := procs[pid].RetireGroup(rctx, g)
			rcancel()
			if err != nil && !strings.Contains(err.Error(), "reaped") {
				detail := ""
				for q := 0; q < reshardN; q++ {
					detail += fmt.Sprintf(" p%d{k=%d active=%v epoch=%d}", q, procs[q].Round(g), procs[q].ActiveGroups(), procs[q].Epoch())
				}
				return fmt.Errorf("re-retire %v at recovered p%d: %w:%s", g, pid, err, detail)
			}
		}
		return nil
	}

	// The deterministic lagging-recoverer phase sits mid-schedule: crash a
	// process, fold checkpoints on the survivors for several steps, then
	// recover it. No process ages out of the harness's GC floor, so the
	// gossiped floor must have held every fold behind the laggard — the
	// GCForced == 0 assertion at the end is this phase's teeth.
	lagStart := reshardSteps / 3

	for step := 0; step < reshardSteps; step++ {
		if step == lagStart {
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
			down = 1 + rng.Intn(reshardN-1)
			procs[down].Crash()
			res.Crashes++
			broadcast(step)
			checkpointAll()
			continue
		}
		if step == lagStart+3 {
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
		}

		switch pick := rng.Intn(10); {
		case pick < 4:
			broadcast(step)
		case pick < 5: // crash (never p0, at most one down, not during the lag phase)
			if down < 0 && (step < lagStart || step > lagStart+3) {
				down = 1 + rng.Intn(reshardN-1)
				procs[down].Crash()
				res.Crashes++
			} else {
				broadcast(step)
			}
		case pick < 6:
			if err := recoverProc(); err != nil {
				return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
			}
		case pick < 8: // scale-out
			if minted >= reshardMaxGroups {
				broadcast(step)
				break
			}
			caller := upProcs()[rng.Intn(len(upProcs()))]
			actx, acancel := context.WithTimeout(ctx, 30*time.Second)
			gid, err := procs[caller].AddGroup(actx)
			acancel()
			if err != nil {
				return res, fmt.Errorf("reshard soak seed=%d step=%d: AddGroup at p%d: %w", opts.Seed, step, caller, err)
			}
			minted++
			res.Joins++
			// Wait for every up process to splice the group in before the
			// schedule moves on (the next op may retire it).
			wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
			err = awaitSpliced(wctx, procs, upProcs(), gid)
			wcancel()
			if err != nil {
				return res, fmt.Errorf("reshard soak seed=%d step=%d: splice of %v: %w", opts.Seed, step, gid, err)
			}
		case pick < 9: // retire
			active := activeGroups()
			if len(active) < 2 {
				broadcast(step)
				break
			}
			g := active[rng.Intn(len(active))]
			// Feed the group a last burst on the async path so the drain
			// has orphan candidates to re-inject.
			for j := 0; j < 3; j++ {
				payload := []byte(fmt.Sprintf("o-%d-%d-%d", opts.Seed, step, j))
				id, err := procs[upProcs()[j%len(upProcs())]].BroadcastToAsync(g, payload)
				c.recs.submitted(g, id, payload, false)
				if err == nil {
					admitted[string(payload)] = true
					res.Broadcasts++
				}
			}
			for _, p := range upProcs() {
				rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
				// A process that recovered after the join learns the group
				// from the floor gossip's topology descriptor — wait for
				// that splice (and its node boot) before asking it to
				// retire.
				if err := awaitKnown(rctx, procs[p], g); err != nil {
					rcancel()
					return res, fmt.Errorf("reshard soak seed=%d step=%d: p%d never learned %v: %w", opts.Seed, step, p, g, err)
				}
				err := procs[p].RetireGroup(rctx, g)
				rcancel()
				if err != nil && !strings.Contains(err.Error(), "reaped") {
					detail := ""
					for q := 0; q < reshardN; q++ {
						detail += fmt.Sprintf(" p%d{groups=%d active=%v epoch=%d k=%d}", q, procs[q].Groups(), procs[q].ActiveGroups(), procs[q].Epoch(), procs[q].Round(g))
					}
					return res, fmt.Errorf("reshard soak seed=%d step=%d: RetireGroup(%v) at p%d: %w:%s", opts.Seed, step, g, p, err, detail)
				}
			}
			retired[g] = true
			res.Retirements++
		default:
			checkpointAll()
		}
	}

	// Drain: everyone up, every admitted payload delivered everywhere.
	if err := recoverProc(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	drainCtx, drainCancel := context.WithTimeout(ctx, soakDrain)
	defer drainCancel()
	for {
		missing := ""
		for p := 0; p < reshardN; p++ {
			for payload := range admitted {
				if !c.recs.delivered(ids.ProcessID(p), payload) {
					missing = fmt.Sprintf("p%d missing %q", p, payload)
					break
				}
			}
		}
		if missing == "" {
			break
		}
		select {
		case <-drainCtx.Done():
			return res, fmt.Errorf("reshard soak seed=%d: termination: %s", opts.Seed, missing)
		case <-time.After(2 * time.Millisecond):
		}
	}
	res.Delivered = c.recs.deliveredCount(0)

	// Per-group specification + recorder-leak growth bound.
	if err := c.recs.verify(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, c.violation(err))
	}

	// The cluster-wide GC floor held every fold behind the lagging
	// recoverer: nobody was ever forced into a state transfer by GC (checked
	// before the cursor, which such a transfer would lag).
	if res.GCForced, err = c.verifyNoGCForced(); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}

	// Cross-group: merged orders agree across every epoch splice (polled:
	// a group spliced in live boots asynchronously, and its process has no
	// merge until it is up), and the run-long cursor streamed exactly the
	// batch interleave.
	var all []ids.ProcessID
	for p := 0; p < reshardN; p++ {
		all = append(all, ids.ProcessID(p))
	}
	for {
		err := c.VerifyMergeDeterminism(all...)
		if err == nil {
			break
		}
		select {
		case <-drainCtx.Done():
			return res, fmt.Errorf("reshard soak seed=%d: merge verification: %w", opts.Seed, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if _, err := c.verifyCursorAgainstBatch(drainCtx, 0, cursor); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	res.CursorLen = len(cursor.streamed)

	// Give the floor-gated reap one chance to fire (not asserted: remote
	// floors may legitimately still lag the final rounds).
	for p := 0; p < reshardN; p++ {
		res.Reaped += procs[p].ReapRetired()
	}

	if err := verifyObsInvariants(c.Obs); err != nil {
		return res, fmt.Errorf("reshard soak seed=%d: %w", opts.Seed, err)
	}
	return res, nil
}

// awaitSpliced waits until every up process's topology includes g AND its
// auto-spliced member node has finished booting (ensureGroups boots the
// node asynchronously on marker arrival; a retire that races the boot
// would seal a group whose member is still calling Start).
func awaitSpliced(ctx context.Context, procs []*abcast.Sharded, up []int, g ids.GroupID) error {
	for {
		all := true
		for _, p := range up {
			found := false
			for _, a := range procs[p].ActiveGroups() {
				if a == g {
					found = true
				}
			}
			if !found || procs[p].Groups() <= int(g) || !procs[p].Up() {
				all = false
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// awaitKnown waits until one process's TOPOLOGY knows g (node-set size is
// not enough: the shared network grows it early), its node set covers g,
// and every node it hosts is up (the floor gossip's descriptor splices
// late groups in; the boot is asynchronous).
func awaitKnown(ctx context.Context, p *abcast.Sharded, g ids.GroupID) error {
	for {
		if p.InTopology(g) && p.Groups() > int(g) && p.Up() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
