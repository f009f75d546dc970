package harness

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// soakVariants are the protocol configurations the randomized soak guards:
// the paper's basic protocol, and the high-throughput pipelined + adaptively
// batched + checkpointing + state-transfer stack. Both gossip IDs and
// repair by pull, so dissemination, recovery catch-up and the state
// transfer must all hold under crashes and loss without a payload re-send.
// The same two configurations, at three and five processes, also run in
// the core simulator (internal/core TestSimSchedules), where a failing
// seed replays step for step.
func soakVariants() map[string]core.Config {
	return map[string]core.Config{
		"basic": {},
		"pipelined": {
			PipelineDepth:    4,
			BatchedBroadcast: true,
			IncrementalLog:   true,
			MaxBatchBytes:    4 << 10,
			MaxBatchDelay:    300 * time.Microsecond,
			CheckpointEvery:  8,
			Delta:            12,
		},
	}
}

// TestSoakSeeds runs the randomized crash-recovery soak for a fixed set of
// seeds on the wall clock, over the real consensus engine and transport:
// each seed generates a random schedule of crashes, async recoveries,
// injected storage faults, process isolations and fsync latency under a
// lossy network while a closed-loop workload broadcasts, then everything
// recovers, drains, and the recorder verifies Validity, Integrity, Total
// Order and Termination. Every run must isolate a process and show a lease
// lost in the flight recorders: suspicion really moved the lease. The
// pipelined variant runs a short lease TTL, so leases also expire
// mid-stream.
//
// Reproducing a failure: the schedule is a pure function of the seed, but
// goroutine interleavings are not, so re-run the failing subtest by name,
// e.g.
//
//	go test ./internal/harness -run 'TestSoakSeeds/seed=23/pipelined' -v -count=1
//
// and iterate with -race. A core-level failure replays exactly in the core
// simulator instead.
func TestSoakSeeds(t *testing.T) {
	seeds := []uint64{1, 7, 23}
	for _, seed := range seeds {
		for name, cfg := range soakVariants() {
			var cons consensus.Config
			if name == "pipelined" {
				cons.LeaseTTL = 50 * time.Millisecond
			}
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				res, err := RunSoak(SoakOptions{
					Seed:      seed,
					N:         3,
					Core:      cfg,
					Consensus: cons,
				})
				t.Logf("soak: %v", res)
				if err != nil {
					t.Fatalf("soak failed: %v", err)
				}
				if res.Crashes+res.StorageFaults == 0 {
					t.Fatalf("schedule exercised no faults (seed too tame?): %v", res)
				}
				requireLeaseLost(t, res.Isolations, res.LeasesLost)
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

// TestSoakSeedsWAL runs the seeded soak schedule over the group-commit WAL
// engine with storage.Faulty injection on top: injected faults fail log
// operations at arbitrary points of the asynchronous pipeline and the
// resulting crash/recovery cycles must still produce one total order with
// no loss and no duplication. Like the harness's in-memory stores, the WAL
// instances stay open across simulated crashes (the node's volatile
// incarnation dies; the storage object does not), so this soak exercises
// fault-time behavior of the pipeline, not loss of the un-fsynced tail —
// cold-restart recovery from the durable prefix alone is covered by the
// reopen tests in internal/storage and abcast's TestPublicAPIWALStorage.
func TestSoakSeedsWAL(t *testing.T) {
	for _, seed := range []uint64{5, 31} {
		t.Run(fmt.Sprintf("seed=%d/wal", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			res, err := RunSoak(SoakOptions{
				Seed: seed,
				N:    3,
				Core: soakVariants()["pipelined"],
				NewStore: func(pid ids.ProcessID) storage.Stable {
					w, werr := storage.OpenWAL(
						filepath.Join(dir, fmt.Sprintf("p%d", pid)),
						storage.WALOptions{SyncEvery: 16, MaxSyncDelay: 500 * time.Microsecond})
					if werr != nil {
						t.Fatalf("open wal: %v", werr)
					}
					return w
				},
			})
			t.Logf("soak: %v", res)
			if err != nil {
				t.Fatalf("soak failed: %v", err)
			}
			if res.Crashes+res.StorageFaults == 0 {
				t.Fatalf("schedule exercised no faults (seed too tame?): %v", res)
			}
			requireLeaseLost(t, res.Isolations, res.LeasesLost)
		})
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
					N:        3,
					Groups:   3,
					Protocol: cfg,
					Mux:      abcast.ShardedNetOptions{FlushDelay: 200 * time.Microsecond},
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
