package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/ids"
)

// TestShardedClusterOrdersPerGroup drives a small multi-group cluster:
// every group orders its own traffic at every process, the per-group
// recorders verify the full specification, and the merged sequences agree.
func TestShardedClusterOrdersPerGroup(t *testing.T) {
	const groups = 3
	c, err := NewShardedCluster(ShardedOptions{
		N:        3,
		Groups:   groups,
		Seed:     17,
		Protocol: abcast.ProtocolOptions{PipelineDepth: 2, MaxBatchDelay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 30; i++ {
		pid := ids.ProcessID(i % 3)
		g := ids.GroupID(i % groups)
		if _, err := c.Broadcast(ctx, pid, g, fmt.Appendf(nil, "m-%d", i)); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyMergeDeterminism(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	merged, from, rounds, ok := c.Procs[0].Merged()
	if !ok || rounds == 0 || from != 0 {
		t.Fatalf("merge unavailable: from=%d rounds=%d ok=%v", from, rounds, ok)
	}
	if len(merged) != 30 {
		// Every broadcast was awaited, and the frontier covers every
		// group's decided rounds after quiescence... but trailing rounds
		// at different counters may hold back a suffix; at minimum the
		// merge must not duplicate or invent messages.
		seen := make(map[string]bool)
		for _, d := range merged {
			k := fmt.Sprintf("%v/%v", d.Group, d.Msg.ID)
			if seen[k] {
				t.Fatalf("duplicate in merge: %s", k)
			}
			seen[k] = true
		}
		if len(merged) > 30 {
			t.Fatalf("merge invented deliveries: %d > 30", len(merged))
		}
	}
}

// TestShardedClusterProcessCrashRecovery crashes a whole process and
// recovers it: every group replays to the common order.
func TestShardedClusterProcessCrashRecovery(t *testing.T) {
	const groups = 2
	c, err := NewShardedCluster(ShardedOptions{
		N:      3,
		Groups: groups,
		Seed:   23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 10; i++ {
		if _, err := c.Broadcast(ctx, 1, ids.GroupID(i%groups), []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	c.Procs[1].Crash()
	if c.Procs[1].Up() {
		t.Fatal("crashed process reports up")
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Broadcast(ctx, 0, ids.GroupID(i%groups), []byte("during")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start(1); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyMergeDeterminism(0, 1, 2); err != nil {
		t.Fatal(err)
	}
}
