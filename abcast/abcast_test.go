package abcast_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/storage"
)

// group spins up n processes over one mem network with per-process
// delivery logs.
type group struct {
	procs []*abcast.Process
	mu    sync.Mutex
	logs  [][]abcast.MsgID
}

func newGroup(t *testing.T, n int, proto abcast.ProtocolOptions) *group {
	t.Helper()
	g := &group{logs: make([][]abcast.MsgID, n)}
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 7})
	t.Cleanup(net.Close)
	for pid := 0; pid < n; pid++ {
		pid := pid
		st := abcast.NewMemStorage()
		p, err := abcast.NewProcess(abcast.Config{
			PID:      abcast.ProcessID(pid),
			N:        n,
			Protocol: proto,
			OnDeliver: func(d abcast.Delivery) {
				g.mu.Lock()
				g.logs[pid] = append(g.logs[pid], d.Msg.ID)
				g.mu.Unlock()
			},
		}, st, net)
		if err != nil {
			t.Fatal(err)
		}
		g.procs = append(g.procs, p)
	}
	t.Cleanup(func() {
		for _, p := range g.procs {
			p.Crash()
		}
	})
	return g
}

func TestPublicAPIBasicRoundTrip(t *testing.T) {
	g := newGroup(t, 3, abcast.ProtocolOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range g.procs {
		if err := p.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	id, err := g.procs[0].Broadcast(ctx, []byte("public api"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, p := range g.procs {
			if !p.Delivered(id) {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, suffix := g.procs[2].Sequence()
	if len(suffix) != 1 || suffix[0].Msg.ID != id {
		t.Fatalf("sequence: %v", suffix)
	}
	if g.procs[0].Round() == 0 {
		t.Fatal("round never advanced")
	}
	if g.procs[0].Stats().Broadcasts != 1 {
		t.Fatal("stats not counted")
	}
}

func TestPublicAPICrashRecover(t *testing.T) {
	g := newGroup(t, 3, abcast.ProtocolOptions{CheckpointEvery: 3, Delta: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range g.procs {
		if err := p.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := g.procs[0].Broadcast(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	g.procs[1].Crash()
	if g.procs[1].Up() {
		t.Fatal("crashed process reports up")
	}
	if err := g.procs[1].Start(ctx); err != nil {
		t.Fatal(err)
	}
	if !g.procs[1].Up() {
		t.Fatal("recovered process reports down")
	}
	id, err := g.procs[1].Broadcast(ctx, []byte("after recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.procs[1].Delivered(id) {
		t.Fatal("broadcast returned but not delivered")
	}
}

// TestPublicAPIWALStorage runs the pipelined+batched stack over the
// group-commit WAL engine through the public API, with the durability
// policy set where it lives (WALOptions SyncEvery / MaxSyncDelay), and exercises
// a crash-faithful recovery: the crashed process's WAL is CLOSED and
// reopened from disk, so the recovered incarnation sees exactly the
// durable prefix (the reopened engine's replay of the segment files), not
// a surviving in-memory index.
func TestPublicAPIWALStorage(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	g := &group{logs: make([][]abcast.MsgID, n)}
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 9})
	t.Cleanup(net.Close)
	proto := abcast.ProtocolOptions{
		PipelineDepth:    4,
		BatchedBroadcast: true,
		IncrementalLog:   true,
		MaxBatchDelay:    200 * time.Microsecond,
	}
	walOpts := abcast.WALOptions{SyncEvery: 32, MaxSyncDelay: 300 * time.Microsecond}
	stores := make([]*storage.WAL, n)
	for pid := 0; pid < n; pid++ {
		pid := pid
		st, err := abcast.NewWALStorage(fmt.Sprintf("%s/p%d", dir, pid), walOpts)
		if err != nil {
			t.Fatal(err)
		}
		stores[pid] = st
		p, err := abcast.NewProcess(abcast.Config{
			PID:      abcast.ProcessID(pid),
			N:        n,
			Protocol: proto,
			OnDeliver: func(d abcast.Delivery) {
				g.mu.Lock()
				g.logs[pid] = append(g.logs[pid], d.Msg.ID)
				g.mu.Unlock()
			},
		}, st, net)
		if err != nil {
			t.Fatal(err)
		}
		g.procs = append(g.procs, p)
	}
	t.Cleanup(func() {
		for _, p := range g.procs {
			p.Crash()
		}
		for _, st := range stores {
			st.Close()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range g.procs {
		if err := p.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var ids []abcast.MsgID
	for i := 0; i < 12; i++ {
		id, err := g.procs[i%n].Broadcast(ctx, []byte(fmt.Sprintf("wal%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Crash p1 and lose its volatile state for real: close the WAL (the
	// un-fsynced queue dies with it) and rebuild the process over a fresh
	// engine opened from the segment files alone.
	g.procs[1].Crash()
	if err := stores[1].Close(); err != nil {
		t.Fatal(err)
	}
	st1, err := abcast.NewWALStorage(fmt.Sprintf("%s/p%d", dir, 1), walOpts)
	if err != nil {
		t.Fatal(err)
	}
	stores[1] = st1
	g.procs[1], err = abcast.NewProcess(abcast.Config{
		PID:      1,
		N:        n,
		Protocol: proto,
		OnDeliver: func(d abcast.Delivery) {
			g.mu.Lock()
			g.logs[1] = append(g.logs[1], d.Msg.ID)
			g.mu.Unlock()
		},
	}, st1, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.procs[1].Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Every batched broadcast that returned must eventually be delivered
	// by the recovered process too.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for !g.procs[1].Delivered(id) {
			if time.Now().After(deadline) {
				t.Fatalf("recovered process never delivered %v", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	id, err := g.procs[1].Broadcast(ctx, []byte("after recovery"))
	if err != nil {
		t.Fatal(err)
	}
	for !g.procs[1].Delivered(id) {
		if time.Now().After(deadline) {
			t.Fatal("post-recovery broadcast never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}
