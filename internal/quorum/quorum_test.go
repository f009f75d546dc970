package quorum_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/quorum"
	"repro/internal/router"
)

type fixture struct {
	c        *harness.Cluster
	mu       sync.Mutex
	replicas map[ids.ProcessID]*quorum.Replica
}

func (f *fixture) replica(pid ids.ProcessID) *quorum.Replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replicas[pid]
}

func build(n int, seed uint64) *fixture {
	f := &fixture{replicas: make(map[ids.ProcessID]*quorum.Replica)}
	f.c = harness.NewCluster(harness.Options{
		N:    n,
		Seed: seed,
		App: func(pid ids.ProcessID, net router.Net) router.Handler {
			r := quorum.NewReplica(pid, n, net)
			f.mu.Lock()
			f.replicas[pid] = r
			f.mu.Unlock()
			return r.OnMessage
		},
		OnDeliver: func(pid ids.ProcessID, d core.Delivery) {
			f.mu.Lock()
			r := f.replicas[pid]
			f.mu.Unlock()
			if r != nil {
				r.Apply(d)
			}
		},
	})
	return f
}

// awaitApplied waits until every replica in pids has applied key at
// version or later. The harness judges delivery by Delivered, which turns
// true slightly before OnDeliver hands the write to the replica.
func (f *fixture) awaitApplied(ctx context.Context, t *testing.T, key string, version uint64, pids ...ids.ProcessID) {
	t.Helper()
	for _, pid := range pids {
		for {
			if v, ok := f.replica(pid).Local(key); ok && v.Version >= version {
				break
			}
			select {
			case <-ctx.Done():
				t.Fatalf("p%d never applied %s at version %d", pid, key, version)
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}

func TestQuorumReadSeesLatestWrite(t *testing.T) {
	f := build(3, 81)
	defer f.c.Stop()
	if err := f.c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := f.c.Broadcast(ctx, 0, quorum.EncodeWrite("x", "v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.Broadcast(ctx, 1, quorum.EncodeWrite("x", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := f.c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	f.awaitApplied(ctx, t, "x", 2, 0, 1, 2)
	// Read quorum of 2 from each replica: everyone sees v2.
	for p := 0; p < 3; p++ {
		got, err := f.replica(ids.ProcessID(p)).Read(ctx, "x", 2)
		if err != nil {
			t.Fatalf("p%d read: %v", p, err)
		}
		if got.Value != "v2" {
			t.Fatalf("p%d read %q, want v2", p, got.Value)
		}
	}
}

func TestQuorumReadOutvotesStaleReplica(t *testing.T) {
	f := build(3, 82)
	defer f.c.Stop()
	if err := f.c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := f.c.Broadcast(ctx, 0, quorum.EncodeWrite("k", "old")); err != nil {
		t.Fatal(err)
	}
	if err := f.c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	f.awaitApplied(ctx, t, "k", 1, 0, 1, 2)
	// p2 crashes; a new write lands while it is down.
	f.c.Crash(2)
	if _, err := f.c.Broadcast(ctx, 0, quorum.EncodeWrite("k", "new")); err != nil {
		t.Fatal(err)
	}
	if err := f.c.AwaitAllDelivered(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	f.awaitApplied(ctx, t, "k", 2, 0, 1)
	if _, err := f.c.Recover(2); err != nil {
		t.Fatal(err)
	}
	// Even if p2's replica were stale, a read quorum of 2 must see
	// version 2 ("new") because it overlaps {p0, p1}.
	got, err := f.replica(2).Read(ctx, "k", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != "new" || got.Version != 2 {
		t.Fatalf("quorum read got %+v, want new/v2", got)
	}
}

func TestQuorumLocalVsQuorumRead(t *testing.T) {
	f := build(3, 83)
	defer f.c.Stop()
	if err := f.c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 5; i++ {
		if _, err := f.c.Broadcast(ctx, 0, quorum.EncodeWrite("seq", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	f.awaitApplied(ctx, t, "seq", 5, 1)
	local, ok := f.replica(1).Local("seq")
	if !ok || local.Value != "v4" {
		t.Fatalf("local read: %+v %v", local, ok)
	}
	// Read quorum of 1 is just the local copy.
	q1, err := f.replica(1).Read(ctx, "seq", 1)
	if err != nil || q1 != local {
		t.Fatalf("r=1 read: %+v %v", q1, err)
	}
}

func TestQuorumReadValidation(t *testing.T) {
	f := build(3, 84)
	defer f.c.Stop()
	if err := f.c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := f.replica(0).Read(ctx, "x", 0); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := f.replica(0).Read(ctx, "x", 4); err == nil {
		t.Fatal("r>n accepted")
	}
}
