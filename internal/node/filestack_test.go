package node_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestFullStackOverFileStorage runs three nodes whose stable storage is the
// file-backed engine, the WAL (the deployment configuration), crashes one,
// and verifies recovery replays from it.
func TestFullStackOverFileStorage(t *testing.T) {
	const n = 3
	net := transport.NewMem(n, transport.MemOptions{Seed: 71})
	defer net.Close()

	var mu sync.Mutex
	orders := make([][]ids.MsgID, n)

	nodes := make([]*node.Node, n)
	for p := 0; p < n; p++ {
		p := p
		st, err := storage.OpenWAL(filepath.Join(t.TempDir(), "st"), storage.WALOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		nodes[p] = node.New(node.Config{
			PID: ids.ProcessID(p),
			N:   n,
			Core: core.Config{
				OnDeliver: func(d core.Delivery) {
					mu.Lock()
					orders[p] = append(orders[p], d.Msg.ID)
					mu.Unlock()
				},
				OnRestore: func(core.Snapshot) {
					mu.Lock()
					orders[p] = nil
					mu.Unlock()
				},
			},
		}, st, net)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for p := 0; p < n; p++ {
		if err := nodes[p].Start(ctx); err != nil {
			t.Fatalf("start %d: %v", p, err)
		}
		defer nodes[p].Crash()
	}

	for i := 0; i < 8; i++ {
		if _, err := nodes[i%n].Broadcast(ctx, []byte(fmt.Sprintf("disk%d", i))); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}

	nodes[1].Crash()
	if err := nodes[1].Start(ctx); err != nil {
		t.Fatalf("recover from disk: %v", err)
	}
	if nodes[1].Proto().Stats().ReplayedRounds == 0 {
		t.Fatal("expected disk replay")
	}

	// p1 keeps participating after disk recovery.
	id, err := nodes[1].Broadcast(ctx, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for p := 0; p < n; p++ {
			proto := nodes[p].Proto()
			if proto == nil || !proto.Delivered(id) {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	// All sequences prefix-agree (p1's was rebuilt from scratch).
	for p := 1; p < n; p++ {
		short := len(orders[0])
		if len(orders[p]) < short {
			short = len(orders[p])
		}
		for i := 0; i < short; i++ {
			if orders[0][i] != orders[p][i] {
				t.Fatalf("order divergence at %d between p0 and p%d", i, p)
			}
		}
	}
}
