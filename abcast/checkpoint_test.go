package abcast_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/abcast"
)

// TestPublicAPIAppCheckpointAndStateTransfer drives the full §5 feature
// set through the public facade only: a replicated KV store with
// application checkpoints, garbage collection, and a Δ state transfer on
// recovery.
func TestPublicAPIAppCheckpointAndStateTransfer(t *testing.T) {
	const n = 3
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 99})
	defer net.Close()

	kvs := make([]*abcast.KVStore, n)
	procs := make([]*abcast.Process, n)
	for pid := 0; pid < n; pid++ {
		kv := abcast.NewKVStore()
		kvs[pid] = kv
		var err error
		procs[pid], err = abcast.NewProcess(abcast.Config{
			PID: abcast.ProcessID(pid),
			N:   n,
			Protocol: abcast.ProtocolOptions{
				CheckpointEvery: 4,
				Delta:           2,
				Checkpointer:    kv,
			},
			OnDeliver: func(d abcast.Delivery) { kv.Apply(d) },
			OnRestore: func(s abcast.Snapshot) { kv.Restore(s.App) },
		}, abcast.NewMemStorage(), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := procs[pid].Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer procs[pid].Crash()
	}

	procs[2].Crash()
	for i := 0; i < 25; i++ {
		if _, err := procs[0].Broadcast(ctx, abcast.EncodePut(fmt.Sprintf("k%d", i%6), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for pid := 0; pid < 2; pid++ {
		if err := procs[pid].CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := procs[2].Start(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if kvs[2].Fingerprint() == kvs[0].Fingerprint() && kvs[0].Applied() >= 25 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kvs[2].Fingerprint() != kvs[0].Fingerprint() {
		t.Fatal("replica 2 never converged after state transfer")
	}
	if procs[2].Stats().StateAdopted == 0 {
		t.Fatal("expected a state transfer through the public API")
	}
	base, _ := procs[2].Sequence()
	if base.Pos == 0 || base.App == nil {
		t.Fatalf("adopted base snapshot empty: %+v", base)
	}
}
