package rsm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/rsm"
)

// replicas is one Store per process, wired into a cluster's delivery and
// restore callbacks. The harness records a delivery before the Store
// applies it, so AwaitAllDelivered can return while a replica is still one
// Apply behind: compare replicas only after awaitApplied.
type replicas struct {
	stores []*rsm.Store

	mu      sync.Mutex
	changed chan struct{} // closed and replaced whenever a replica changes
}

// wire makes one Store per process and hooks them into opts.
func (r *replicas) wire(opts *harness.Options) {
	r.stores = make([]*rsm.Store, opts.N)
	for i := range r.stores {
		r.stores[i] = rsm.NewStore()
	}
	r.changed = make(chan struct{})
	opts.OnDeliver = func(pid ids.ProcessID, d core.Delivery) {
		r.stores[pid].Apply(d)
		r.notify()
	}
	opts.OnRestore = func(pid ids.ProcessID, s core.Snapshot) {
		r.stores[pid].Restore(s.App)
		r.notify()
	}
}

func (r *replicas) notify() {
	r.mu.Lock()
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// awaitApplied returns once every replica in pids has applied n messages.
func (r *replicas) awaitApplied(ctx context.Context, n uint64, pids ...ids.ProcessID) error {
	for {
		r.mu.Lock()
		changed := r.changed
		r.mu.Unlock()
		behind := -1
		for _, p := range pids {
			if r.stores[p].Applied() < n {
				behind = int(p)
				break
			}
		}
		if behind < 0 {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return fmt.Errorf("replica %d applied %d of %d: %w", behind, r.stores[behind].Applied(), n, ctx.Err())
		}
	}
}

// buildReplicated wires one Store per process into a cluster.
func buildReplicated(opts harness.Options) (*harness.Cluster, *replicas) {
	r := &replicas{}
	r.wire(&opts)
	return harness.NewCluster(opts), r
}

func TestReplicatedKVConverges(t *testing.T) {
	c, r := buildReplicated(harness.Options{N: 3, Seed: 61})
	stores := r.stores
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 20; i++ {
		sender := ids.ProcessID(i % 3)
		if _, err := c.Broadcast(ctx, sender, rsm.EncodePut(fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.awaitApplied(ctx, 20, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	fp := stores[0].Fingerprint()
	for p := 1; p < 3; p++ {
		if stores[p].Fingerprint() != fp {
			t.Fatalf("replica %d diverged", p)
		}
	}
	if v, _, _ := stores[1].Get("k0"); v == "" {
		t.Fatal("replica missing data")
	}
}

func TestReplicatedKVRecoversAfterCrash(t *testing.T) {
	c, r := buildReplicated(harness.Options{N: 3, Seed: 62})
	stores := r.stores
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 10; i++ {
		if _, err := c.Broadcast(ctx, 0, rsm.EncodePut(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(2)
	// More writes while p2 is down.
	for i := 10; i < 15; i++ {
		if _, err := c.Broadcast(ctx, 0, rsm.EncodePut(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.awaitApplied(ctx, 15, 0, 2); err != nil {
		t.Fatal(err)
	}
	if stores[2].Fingerprint() != stores[0].Fingerprint() {
		t.Fatal("recovered replica diverged")
	}
}

func TestKVCheckpointerPerProcess(t *testing.T) {
	// Full wiring: per-process Store acts as Checkpointer, OnDeliver and
	// OnRestore. State transfer then ships real application snapshots.
	opts := harness.Options{
		N:    3,
		Seed: 64,
		Core: core.Config{CheckpointEvery: 5, Delta: 3},
	}
	r := &replicas{}
	r.wire(&opts)
	stores := r.stores
	// The Checkpointer in core.Config is shared across processes in
	// harness.Options; its Checkpoint fold is pure (state in, state
	// out), so sharing is safe — Restore must go to the right store,
	// which OnRestore above guarantees. Use store[0] solely as the
	// pure fold engine.
	opts.Core.Checkpointer = foldOnly{s: stores[0]}
	c := harness.NewCluster(opts)
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c.Crash(2)
	for i := 0; i < 40; i++ {
		if _, err := c.Broadcast(ctx, 0, rsm.EncodePut(fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AwaitRound(ctx, 0, 15); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].Proto().CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].Proto().CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.awaitApplied(ctx, 40, 0, 2); err != nil {
		t.Fatal(err)
	}
	if stores[2].Fingerprint() != stores[0].Fingerprint() {
		t.Fatal("state-transferred replica diverged")
	}
}

// foldOnly adapts a Store to a pure Checkpointer: Checkpoint delegates to
// the store's pure fold (state in, state out — safe to share between
// processes), while Restore is a no-op because restores are routed to the
// right per-process store via harness.Options.OnRestore.
type foldOnly struct{ s *rsm.Store }

var _ core.Checkpointer = foldOnly{}

func (f foldOnly) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	return f.s.Checkpoint(prev, delivered)
}

func (f foldOnly) Restore(app []byte) {}
