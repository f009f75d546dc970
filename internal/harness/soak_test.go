package harness

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim/stack"
	"repro/internal/storage"
	"repro/internal/wire"
)

var simSeed = flag.Uint64("sim.seed", 0, "run only this full-stack simulator seed in each selected soak batch, and print its steps")

// soakBatch runs one soak batch of the full-stack simulator
// (stack.Schedule with Soak): schedules base*1000 .. base*1000+19, or only
// -sim.seed. Like the wall-clock soak before it, every schedule isolates
// processes for at least 3 FD timeouts, lease holders among them, and must
// show an isolation and a lost lease in its effects.
func soakBatch(t *testing.T, base uint64, cfg core.Config, cons consensus.Config) {
	sc := stack.Schedule{N: 3, Core: cfg, Consensus: cons, Soak: true}
	tally := sc.Check(t, base*1000, 20, *simSeed, "go test ./internal/harness/ -run '"+t.Name()+"$' -sim.seed=%d -v")
	t.Logf("soak: %+v", tally)
	if tally.Crashes == 0 && *simSeed == 0 {
		t.Fatalf("the batch crashed no process (seeds too tame?): %+v", tally)
	}
	requireLeaseLost(t, tally.Isolations, tally.LeasesLost)
}

// TestSoakSeeds runs the randomized crash-recovery soak for a fixed set of
// base seeds, as batches of the full-stack simulator (soakBatch). The
// pipelined variant runs a short lease TTL, so leases also expire
// mid-stream. A failing schedule prints its steps and the command that
// replays it exactly, e.g.
//
//	go test ./internal/harness/ -run 'TestSoakSeeds/seed=23/pipelined$' -sim.seed=23004 -v
func TestSoakSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		for name, cfg := range stack.Variants() {
			var cons consensus.Config
			if name == "pipelined" {
				cons.LeaseTTL = 50 * time.Millisecond
			}
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				soakBatch(t, seed, cfg, cons)
			})
		}
	}
}

// requireLeaseLost fails a soak that isolated no process, or whose
// isolations cost no lease holder its lease.
func requireLeaseLost(t *testing.T, isolations, leasesLost int) {
	t.Helper()
	if isolations == 0 {
		t.Fatal("schedule isolated no process")
	}
	if leasesLost == 0 {
		t.Fatalf("%d isolations, but no lease-lost event in any flight recorder", isolations)
	}
}

// TestSoakSeedsWAL runs the pipelined soak batch for the WAL's seeds. The
// simulated disk stands in for the WAL's contract: writes resolve in issue
// order, and a crash loses the tail that has not resolved. The real WAL
// under storage.Faulty injection stays covered by the sharded-wal soaks
// (TestSoakSeedsSharded), FuzzWALAgainstMem and the WAL crash tests in
// internal/storage.
func TestSoakSeedsWAL(t *testing.T) {
	for _, seed := range []uint64{5, 31} {
		t.Run(fmt.Sprintf("seed=%d/wal", seed), func(t *testing.T) {
			t.Parallel()
			soakBatch(t, seed, stack.Variants()["pipelined"], consensus.Config{})
		})
	}
}

// TestLeaseLostUnderIsolation pins, in virtual time, the property the
// wall-clock soak could only observe: a lease holder isolated for 3 FD
// timeouts emits lease-lost; another process decides the next rounds at a
// higher ballot; and once healed, the old holder orders again, through
// classic ballots or a lease it re-acquires at a new ballot — with the
// oracle holding throughout.
func TestLeaseLostUnderIsolation(t *testing.T) {
	s := stack.Scripted(t)
	s.Boot()
	holder := s.Procs[0]
	for i := 0; holder.Lease() == 0; i++ {
		if i > 20 {
			t.Fatal("p0 holds no lease after 20 rounds")
		}
		s.BroadcastAndWait(t, 0)
	}
	b, k, lost := holder.Lease(), holder.Core.Round(), holder.LeasesLost()

	iso := stack.IsolationFDTimeouts * int64(stack.FDTimeout)
	end := s.Now + iso
	s.Isolate(0, iso)
	s.Broadcast(0, true) // a round at the lease ballot finds no quorum
	s.Await(t, "the isolated holder loses its lease", func() bool { return holder.LeasesLost() > lost })
	if s.Now > end {
		t.Fatalf("the lease was lost %.3fms after the isolation ended", float64(s.Now-end)/float64(time.Millisecond))
	}

	since := len(s.Accepts)
	s.BroadcastAndWait(t, 1)
	higher := false
	for _, a := range s.Accepts[since:] {
		if a.PID == 0 && a.Ballot == b && a.K >= k {
			t.Fatalf("the isolated holder's accept reached round %d at its lost ballot", a.K)
		}
		higher = higher || a.PID != 0 && a.K >= k && a.Ballot > b
	}
	if !higher {
		t.Fatalf("no process decided round %d on at a ballot above the lease's %d: %+v", k, b, s.Accepts[since:])
	}

	s.Await(t, "the isolation ends", func() bool { return s.Now >= end })
	since = len(s.Accepts)
	s.BroadcastAndWait(t, 0)
	s.Await(t, "every process delivered", s.Terminated)
	for _, a := range s.Accepts[since:] {
		if a.Ballot == b {
			t.Fatalf("round %d went out at the lost lease's ballot %d", a.K, b)
		}
	}
	if err := s.Rec.Verify(); err != nil {
		t.Fatal(err)
	}
}

// soakCheckpointer is the application fold the checkpointing soak variant
// runs: a running (count, FNV-style hash) over every folded message, so
// the app state genuinely depends on the folded prefix.
type soakCheckpointer struct{}

func (soakCheckpointer) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	var count, h uint64
	if len(prev) > 0 {
		r := wire.NewReader(prev)
		count, h = r.U64(), r.U64()
	}
	for _, m := range delivered {
		count++
		h = h*1099511628211 ^ uint64(m.ID.Sender)<<40 ^ uint64(m.ID.Incarnation)<<32 ^ m.ID.Seq
	}
	w := wire.NewWriter(20)
	w.U64(count)
	w.U64(h)
	return w.Bytes()
}

func (soakCheckpointer) Restore([]byte) {}

// TestSoakSeedsSharded extends the soak matrix to sharded multi-group
// clusters of abcast.Sharded processes over a shared WAL: whole-process
// crashes, async recoveries and process-level storage faults (below the
// group namespaces, so one fault kills every group's write path at once)
// under a lossy network, while the workload spreads broadcasts over every
// group. Verification is per group — each group's total order must
// satisfy the full specification — plus cross-group merge determinism,
// the streaming-vs-batch merge differential (a cursor subscribed before
// the faults must stream exactly what batch Merged reconstructs), shared-FD
// re-trust at recovered epochs (RunShardedSoak's
// awaitSharedFDConvergence), and zero GC-forced state transfers: the
// front end's cluster GC floor holds every fold behind the slowest
// recoverer, so no cursor has to resubscribe.
//
// The processes run the shipped shared-substrate stack: the process-level
// failure detector, digest anti-entropy gossip, the cluster floor gossip
// and the write-coalescing mux. Like every soak, the schedule isolates
// processes and injects fsync latency. The ckpt variant additionally runs
// merged-mode application checkpointing (folds gated by the merge floor)
// with WAL segment compaction underneath, and the soak's final phase
// folds every group down to the cluster floor and re-verifies the merge
// over the checkpointed prefixes.
//
// Reproduce a failing seed like the other soaks:
//
//	go test ./internal/harness -run 'TestSoakSeedsSharded/seed=11' -v -count=1
func TestSoakSeedsSharded(t *testing.T) {
	base := abcast.ProtocolOptions{
		PipelineDepth:    4,
		BatchedBroadcast: true,
		IncrementalLog:   true,
		MaxBatchBytes:    4 << 10,
		MaxBatchDelay:    300 * time.Microsecond,
	}
	ckpt := base
	ckpt.CheckpointEvery = 6
	ckpt.Checkpointer = soakCheckpointer{}
	variants := map[string]abcast.ProtocolOptions{
		"sharded-wal":      base,
		"sharded-wal-ckpt": ckpt,
	}
	for _, seed := range []uint64{11, 47} {
		for name, cfg := range variants {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				walOpts := storage.WALOptions{SyncEvery: 16, MaxSyncDelay: 500 * time.Microsecond}
				if cfg.Checkpointer != nil {
					// The checkpointing variant also exercises the segment
					// compactor under crash/recovery: checkpoint deletes
					// create garbage, compaction reclaims it mid-soak.
					walOpts.CompactFactor = 2
					walOpts.CompactMinBytes = 4 << 10
				}
				res, err := RunShardedSoak(ShardedSoakOptions{
					Seed:     seed,
					Protocol: cfg,
					NewStore: func(pid ids.ProcessID) storage.Stable {
						w, werr := storage.OpenWAL(
							filepath.Join(dir, fmt.Sprintf("p%d", pid)), walOpts)
						if werr != nil {
							t.Fatalf("open wal: %v", werr)
						}
						return w
					},
				})
				t.Logf("sharded soak: %v", res)
				if err != nil {
					t.Fatalf("sharded soak failed: %v", err)
				}
				if res.Crashes+res.StorageFaults == 0 {
					t.Fatalf("schedule exercised no faults (seed too tame?): %v", res)
				}
				requireLeaseLost(t, res.Isolations, res.LeasesLost)
				if cfg.Checkpointer != nil && res.FoldedRounds == 0 {
					t.Fatalf("checkpointing variant folded nothing: %v", res)
				}
			})
		}
	}
}
