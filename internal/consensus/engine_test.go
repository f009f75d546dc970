package consensus

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestEngineClusterHandsOffAndRecovers runs three Engines as a process runs
// them — router, real fd.Detector, wall clock — where the simulator tests
// step the bare machine: every WaitDecided wakes with the one decision, the
// survivors of the leader's crash decide the next instance, and the leader,
// restored through New from its store, keeps its decision and learns the
// one it missed.
func TestEngineClusterHandsOffAndRecovers(t *testing.T) {
	const n = 3
	net := transport.NewMem(n, transport.MemOptions{Seed: 17})
	defer net.Close()
	stores := []storage.Stable{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	dets, engs, stops := make([]*fd.Detector, n), make([]*Engine, n), make([]func(), n)
	start := func(pid ids.ProcessID, epoch uint32) {
		ep, err := net.Attach(pid)
		if err != nil {
			t.Fatal(err)
		}
		rt := router.New(ep)
		dets[pid] = fd.New(pid, n, epoch, fd.Options{Heartbeat: 5 * time.Millisecond}, rt.Bound(router.ChanFD))
		cfg := Config{PID: pid, N: n, RetryMin: 3 * time.Millisecond, RetryMax: 40 * time.Millisecond, Seed: uint64(epoch)}
		if engs[pid], err = New(cfg, stores[pid], rt.Bound(router.ChanConsensus), dets[pid]); err != nil {
			t.Fatal(err)
		}
		rt.Handle(router.ChanFD, dets[pid].OnMessage)
		rt.Handle(router.ChanConsensus, engs[pid].OnMessage)
		ctx, cancel := context.WithCancel(context.Background())
		rt.Start(ctx)
		dets[pid].Start(ctx)
		engs[pid].Start(ctx)
		det, eng := dets[pid], engs[pid]
		stops[pid] = func() { cancel(); rt.Stop(); det.Stop(); eng.Stop() }
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	decide := func(k uint64, at ...int) []byte {
		t.Helper()
		var first []byte
		for _, p := range at {
			if err := engs[p].Propose(k, val(p, k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range at {
			got, err := engs[p].WaitDecided(ctx, k)
			if err != nil || first != nil && !bytes.Equal(first, got) {
				t.Fatalf("p%d: instance %d: decided %q (err %v), another process %q", p, k, got, err, first)
			}
			first = got
		}
		return first
	}

	for p := range ids.ProcessID(n) {
		start(p, 1)
		defer func() { stops[p]() }()
	}
	first := decide(0, 0, 1, 2)
	stops[0]()
	second := decide(1, 1, 2)

	start(0, 2)
	if got, err := engs[0].WaitDecided(ctx, 0); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("p0's decision of instance 0 was %q, after its crash %q (err %v)", first, got, err)
	}
	if got, err := engs[0].WaitDecided(ctx, 1); err != nil || !bytes.Equal(got, second) {
		t.Fatalf("recovered p0 learned %q for instance 1 (err %v), the others decided %q", got, err, second)
	}
}
