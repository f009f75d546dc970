package abcast_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/abcast"
)

func awaitDeliveredAll(t *testing.T, procs []*abcast.Process, id abcast.MsgID, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		all := true
		for _, p := range procs {
			if !p.Delivered(id) {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("message %v not delivered by all processes", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// heartbeatCluster builds a merged-delivery sharded cluster with the
// given idle-heartbeat setting (0 = the merged-mode default; negative =
// forced off, reproducing the pre-heartbeat behavior).
func heartbeatCluster(t *testing.T, n, groups int, idle time.Duration) []*abcast.Sharded {
	t.Helper()
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 11})
	t.Cleanup(net.Close)
	snet := abcast.NewShardedNetwork(net, groups)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	procs := make([]*abcast.Sharded, n)
	for p := 0; p < n; p++ {
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID:            abcast.ProcessID(p),
			N:              n,
			MergedDelivery: true,
			Protocol:       abcast.ProtocolOptions{IdleHeartbeat: idle},
		}, abcast.NewMemStorage(), snet)
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = s
	}
	t.Cleanup(func() {
		for _, s := range procs {
			s.Crash()
		}
	})
	for _, s := range procs {
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return procs
}

// TestIdleGroupHeartbeatUnpinsMerge is the regression test for the
// idle-group merge-frontier stall. The merge frontier is the minimum of
// the per-group round counters, so before the idle heartbeat a group
// with no traffic pinned it forever: a message ordered by a busy group
// never entered the merged sequence. The control subtest forces the
// heartbeat off and proves the stall is real; the fixed subtest runs the
// merged-mode default and proves the same message merges without any
// traffic on the other group.
func TestIdleGroupHeartbeatUnpinsMerge(t *testing.T) {
	const n, groups = 3, 2

	t.Run("heartbeat-off-stalls", func(t *testing.T) {
		procs := heartbeatCluster(t, n, groups, -1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		id, err := procs[0].BroadcastTo(ctx, 0, []byte("busy-group-only"))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, 0, id, 20*time.Second)
		// Group 1 never decides a round, so the frontier must stay pinned
		// at 0 and the merge stays empty — hold the observation over a
		// grace window long enough for several would-be heartbeats.
		for wait := 0; wait < 25; wait++ {
			merged, _, rounds, ok := procs[0].Merged()
			if !ok {
				t.Fatal("merge unavailable")
			}
			if rounds != 0 || len(merged) != 0 || procs[0].MergeFrontier() != 0 {
				t.Fatalf("frontier advanced with an idle group and heartbeats off: rounds=%d merged=%d frontier=%d",
					rounds, len(merged), procs[0].MergeFrontier())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st := procs[0].Stats(); st.Total.HeartbeatRounds != 0 {
			t.Fatalf("heartbeat rounds proposed while forced off: %d", st.Total.HeartbeatRounds)
		}
	})

	t.Run("heartbeat-default-advances", func(t *testing.T) {
		procs := heartbeatCluster(t, n, groups, 0) // merged-mode default kicks in
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		id, err := procs[0].BroadcastTo(ctx, 0, []byte("busy-group-only"))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, 0, id, 20*time.Second)
		deadline := time.Now().Add(20 * time.Second)
		for {
			merged, _, _, ok := procs[0].Merged()
			if ok {
				for _, d := range merged {
					if d.Group == 0 && d.Msg.ID == id {
						// The idle group's heartbeat rounds carried the
						// frontier past the busy group's round.
						var hb uint64
						for _, s := range procs {
							hb += s.Stats().Total.HeartbeatRounds
						}
						if hb == 0 {
							t.Fatal("frontier advanced but no heartbeat rounds counted")
						}
						return
					}
				}
			}
			if time.Now().After(deadline) {
				merged, _, rounds, _ := procs[0].Merged()
				t.Fatalf("message never merged: rounds=%d merged=%d frontier=%d",
					rounds, len(merged), procs[0].MergeFrontier())
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// TestHeartbeatRoundsBoundWALSize is the compaction-friendliness guard
// for heartbeat rounds (the log-lifecycle counterpart of the storage
// package's TestCompactionBoundsWALSize): empty rounds still append
// proposal, acceptor and decision records, so a long idle period must
// not grow the log without bound. Heartbeat rounds count toward
// CheckpointEvery like any other round, every checkpoint discards
// consensus state below it, and WAL compaction reclaims the dead
// records — the control run with checkpointing off shows the growth the
// discipline prevents.
func TestHeartbeatRoundsBoundWALSize(t *testing.T) {
	const n = 3
	const idleFor = 700 * time.Millisecond
	run := func(t *testing.T, checkpointEvery int) (live, disk int64, hb uint64) {
		t.Helper()
		net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 13})
		defer net.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		wals := make([]abcast.Storage, n)
		walOpts := abcast.WALOptions{
			SyncEvery:       16,
			MaxSyncDelay:    200 * time.Microsecond,
			SegmentBytes:    8 << 10,
			CompactFactor:   2,
			CompactMinBytes: 4 << 10,
		}
		for p := 0; p < n; p++ {
			w, err := abcast.NewWALStorage(fmt.Sprintf("%s/p%d", t.TempDir(), p), walOpts)
			if err != nil {
				t.Fatal(err)
			}
			wals[p] = w
		}
		procs := make([]*abcast.Process, n)
		for p := 0; p < n; p++ {
			var err error
			procs[p], err = abcast.NewProcess(abcast.Config{
				PID: abcast.ProcessID(p),
				N:   n,
				Protocol: abcast.ProtocolOptions{
					IdleHeartbeat:   time.Millisecond,
					CheckpointEvery: checkpointEvery,
				},
			}, wals[p], net)
			if err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			for _, p := range procs {
				p.Crash()
			}
		}()
		for _, p := range procs {
			if err := p.Start(ctx); err != nil {
				t.Fatal(err)
			}
		}
		// A little real traffic so the log holds live state, then idle:
		// from here on every round is a heartbeat.
		for i := 0; i < 4; i++ {
			id, err := procs[0].Broadcast(ctx, fmt.Appendf(nil, "warm-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			awaitDeliveredAll(t, procs, id, 20*time.Second)
		}
		time.Sleep(idleFor)
		w := wals[0].(interface {
			LiveBytes() int64
			DiskBytes() int64
		})
		return w.LiveBytes(), w.DiskBytes(), procs[0].Stats().HeartbeatRounds
	}

	ctrlLive, ctrlDisk, ctrlHB := run(t, 0)
	live, disk, hb := run(t, 8)
	t.Logf("control (no checkpoint): live=%d disk=%d heartbeats=%d; checkpointed: live=%d disk=%d heartbeats=%d",
		ctrlLive, ctrlDisk, ctrlHB, live, disk, hb)
	if ctrlHB < 20 || hb < 20 {
		t.Fatalf("idle period produced too few heartbeat rounds to measure growth: control=%d checkpointed=%d", ctrlHB, hb)
	}
	// Checkpoint + discard + compaction must keep the live set near the
	// steady state while the control accumulates per-round records.
	if live*2 > ctrlLive {
		t.Fatalf("heartbeat rounds not reclaimed: live=%d vs unbounded control live=%d", live, ctrlLive)
	}
	// And the disk footprint must track the live set, not history (same
	// bound shape as TestCompactionBoundsWALSize).
	bound := 2 * 2 * live // 2 x CompactFactor x live
	if min := int64(2 * (4 << 10)); bound < min {
		bound = min
	}
	if disk > bound {
		t.Fatalf("WAL disk %d exceeds %d (live %d)", disk, bound, live)
	}
}
