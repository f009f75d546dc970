package abcast_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/abcast"
)

// shardedCluster wires N sharded processes over one mem network and one
// shared in-memory store per process.
func shardedCluster(t *testing.T, n, groups int, opts abcast.ProtocolOptions, store func(int) abcast.Storage) ([]*abcast.Sharded, func()) {
	t.Helper()
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 7})
	snet := abcast.NewShardedNetwork(net, groups)
	procs := make([]*abcast.Sharded, n)
	ctx, cancel := context.WithCancel(context.Background())
	for p := 0; p < n; p++ {
		var st abcast.Storage = abcast.NewMemStorage()
		if store != nil {
			st = store(p)
		}
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID:      abcast.ProcessID(p),
			N:        n,
			Protocol: opts,
		}, st, snet)
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = s
	}
	for _, s := range procs {
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return procs, func() {
		for _, s := range procs {
			s.Crash()
		}
		cancel()
		net.Close()
	}
}

func awaitShardedDelivered(t *testing.T, procs []*abcast.Sharded, g abcast.GroupID, id abcast.MsgID, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		all := true
		for _, s := range procs {
			if !s.Delivered(g, id) {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("message %v not delivered by all processes in group %v", id, g)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedBasic: keys route deterministically, every group orders its
// own messages at every process, and per-group sequences agree.
func TestShardedBasic(t *testing.T) {
	const n, groups, msgs = 3, 4, 40
	procs, stop := shardedCluster(t, n, groups, abcast.ProtocolOptions{}, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type sent struct {
		g  abcast.GroupID
		id abcast.MsgID
	}
	var sends []sent
	used := make(map[abcast.GroupID]bool)
	for i := 0; i < msgs; i++ {
		key := fmt.Appendf(nil, "key-%d", i)
		p := procs[i%n]
		wantG := p.Route(key)
		g, id, err := p.Broadcast(ctx, key, fmt.Appendf(nil, "payload-%d", i))
		if err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
		if g != wantG {
			t.Fatalf("Broadcast used group %v, Route says %v", g, wantG)
		}
		if g2 := procs[(i+1)%n].Route(key); g2 != g {
			t.Fatalf("routers disagree across processes: %v vs %v", g, g2)
		}
		used[g] = true
		sends = append(sends, sent{g, id})
	}
	if len(used) < 2 {
		t.Fatalf("hash router used only %d of %d groups", len(used), groups)
	}
	for _, s := range sends {
		awaitShardedDelivered(t, procs, s.g, s.id, 20*time.Second)
	}

	// Per-group total order: the suffixes agree across processes.
	for g := 0; g < groups; g++ {
		_, ref := procs[0].Sequence(abcast.GroupID(g))
		for p := 1; p < n; p++ {
			_, seq := procs[p].Sequence(abcast.GroupID(g))
			if len(seq) != len(ref) {
				t.Fatalf("group %d: p0 has %d deliveries, p%d has %d", g, len(ref), p, len(seq))
			}
			for i := range ref {
				if ref[i].Msg.ID != seq[i].Msg.ID {
					t.Fatalf("group %d: order differs at %d", g, i)
				}
				if ref[i].Group != abcast.GroupID(g) {
					t.Fatalf("delivery not tagged with its group: %+v", ref[i])
				}
			}
		}
	}

	// Stats roll up without losing messages.
	st := procs[0].Stats()
	if len(st.PerGroup) != groups {
		t.Fatalf("PerGroup has %d entries; want %d", len(st.PerGroup), groups)
	}
	if st.Total.Delivered != uint64(msgs) {
		t.Fatalf("rolled-up Delivered = %d; want %d", st.Total.Delivered, msgs)
	}
	var sum uint64
	for _, g := range st.PerGroup {
		sum += g.Delivered
	}
	if sum != st.Total.Delivered {
		t.Fatalf("per-group sum %d != total %d", sum, st.Total.Delivered)
	}
}

// TestShardedMergeDeterminism: the merged sequences of all processes agree
// on their common prefix.
func TestShardedMergeDeterminism(t *testing.T) {
	const n, groups, msgs = 3, 3, 30
	procs, stop := shardedCluster(t, n, groups, abcast.ProtocolOptions{}, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sends []struct {
		g  abcast.GroupID
		id abcast.MsgID
	}
	for i := 0; i < msgs; i++ {
		// Route explicitly so every group sees traffic (an idle group
		// pins the merge frontier at 0).
		g := abcast.GroupID(i % groups)
		id, err := procs[i%n].BroadcastTo(ctx, g, fmt.Appendf(nil, "m-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, struct {
			g  abcast.GroupID
			id abcast.MsgID
		}{g, id})
	}
	for _, s := range sends {
		awaitShardedDelivered(t, procs, s.g, s.id, 20*time.Second)
	}

	merged0, from0, rounds, ok := procs[0].Merged()
	if !ok {
		t.Fatal("merge not ok at p0")
	}
	if rounds == 0 || len(merged0) == 0 || from0 != 0 {
		t.Fatalf("empty merge: from=%d rounds=%d len=%d", from0, rounds, len(merged0))
	}
	for p := 1; p < n; p++ {
		mergedP, _, _, ok := procs[p].Merged()
		if !ok {
			t.Fatalf("merge not ok at p%d", p)
		}
		short, long := merged0, mergedP
		if len(long) < len(short) {
			short, long = long, short
		}
		for i := range short {
			if short[i].Group != long[i].Group || short[i].Msg.ID != long[i].Msg.ID {
				t.Fatalf("merged sequences disagree at %d: p0=%v/%v pX=%v/%v",
					i, merged0[i].Group, merged0[i].Msg.ID, mergedP[i].Group, mergedP[i].Msg.ID)
			}
		}
	}
}

// TestShardedCrashRecoveryOverSharedWAL crashes a whole sharded process
// and recovers it from one shared WAL: every group's order survives, and
// shared-WAL fsyncs are counted once in the rollup.
func TestShardedCrashRecoveryOverSharedWAL(t *testing.T) {
	const n, groups, msgs = 3, 2, 16
	dir := t.TempDir()
	wals := make([]abcast.Storage, n)
	for p := 0; p < n; p++ {
		w, err := abcast.NewWALStorage(fmt.Sprintf("%s/p%d", dir, p), abcast.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wals[p] = w
	}
	procs, stop := shardedCluster(t, n, groups,
		abcast.ProtocolOptions{BatchedBroadcast: true, IncrementalLog: true, PipelineDepth: 2},
		func(p int) abcast.Storage { return wals[p] })
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sends []struct {
		g  abcast.GroupID
		id abcast.MsgID
	}
	send := func(from int, i int) {
		g := abcast.GroupID(i % groups)
		id, err := procs[from].BroadcastTo(ctx, g, fmt.Appendf(nil, "m-%d", i))
		if err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
		sends = append(sends, struct {
			g  abcast.GroupID
			id abcast.MsgID
		}{g, id})
	}
	for i := 0; i < msgs/2; i++ {
		send(i%n, i)
	}
	for _, s := range sends {
		awaitShardedDelivered(t, procs, s.g, s.id, 20*time.Second)
	}

	procs[1].Crash()
	if procs[1].Up() {
		t.Fatal("crashed process reports up")
	}
	for i := msgs / 2; i < msgs; i++ {
		send(0, i) // p1 is down; survivors keep ordering in every group
	}
	if err := procs[1].Start(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, s := range sends {
		awaitShardedDelivered(t, procs, s.g, s.id, 20*time.Second)
	}
	for g := 0; g < groups; g++ {
		_, ref := procs[0].Sequence(abcast.GroupID(g))
		_, rec := procs[1].Sequence(abcast.GroupID(g))
		if len(ref) != len(rec) {
			t.Fatalf("group %d: recovered process has %d deliveries, want %d", g, len(rec), len(ref))
		}
		for i := range ref {
			if ref[i].Msg.ID != rec[i].Msg.ID {
				t.Fatalf("group %d: recovered order differs at %d", g, i)
			}
		}
	}
	if st := procs[0].Stats(); st.WALSyncs == 0 {
		t.Fatal("shared WAL sync count missing from rollup")
	}
}

// TestShardedDeliverCallbackTagging: one shared OnDeliver handler serves
// all groups, with Delivery.Group telling them apart.
func TestShardedDeliverCallbackTagging(t *testing.T) {
	const n, groups = 3, 2
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 9})
	snet := abcast.NewShardedNetwork(net, groups)
	defer net.Close()

	var mu sync.Mutex
	got := make(map[abcast.GroupID]int)
	procs := make([]*abcast.Sharded, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for p := 0; p < n; p++ {
		pid := p
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID: abcast.ProcessID(p), N: n,
			OnDeliver: func(d abcast.Delivery) {
				if pid == 0 {
					mu.Lock()
					got[d.Group]++
					mu.Unlock()
				}
			},
		}, abcast.NewMemStorage(), snet)
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = s
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, s := range procs {
			s.Crash()
		}
	}()

	for g := abcast.GroupID(0); int(g) < groups; g++ {
		id, err := procs[0].BroadcastTo(ctx, g, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, g, id, 20*time.Second)
	}
	// OnDeliver runs on the protocol's upcall goroutine, so it may trail
	// Delivered: wait for a callback from every group before counting.
	deadline := time.Now().Add(20 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	for len(got) < groups && time.Now().Before(deadline) {
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
	}
	for g := abcast.GroupID(0); int(g) < groups; g++ {
		if got[g] != 1 {
			t.Fatalf("OnDeliver tag counts = %v; want one delivery per group", got)
		}
	}
}

// countFold is a minimal application checkpointer for the merged-mode
// checkpointing test: state is the count of folded messages.
type countFold struct{}

func (countFold) Checkpoint(prev []byte, delivered []abcast.Message) []byte {
	var n uint64
	for _, b := range prev {
		n = n<<8 | uint64(b)
	}
	n += uint64(len(delivered))
	return []byte{byte(n >> 56), byte(n >> 48), byte(n >> 40), byte(n >> 32),
		byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

func (countFold) Restore([]byte) {}

// TestShardedMergeCursorWithCheckpointing exercises the public log-
// lifecycle surface end to end: a streaming MergeCursor subscribed
// before any traffic must deliver exactly what batch Merged reconstructs
// while MergedDelivery-gated application checkpoints fold the prefix
// underneath it.
func TestShardedMergeCursorWithCheckpointing(t *testing.T) {
	const n, groups, msgs = 3, 2, 36
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 9})
	snet := abcast.NewShardedNetwork(net, groups)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	procs := make([]*abcast.Sharded, n)
	for p := 0; p < n; p++ {
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID: abcast.ProcessID(p),
			N:   n,
			Protocol: abcast.ProtocolOptions{
				CheckpointEvery: 4,
				Checkpointer:    countFold{},
				PipelineDepth:   2,
				MaxBatchDelay:   200 * time.Microsecond,
			},
			MergedDelivery: true,
		}, abcast.NewMemStorage(), snet)
		if err != nil {
			t.Fatal(err)
		}
		procs[p] = s
	}
	defer func() {
		for _, s := range procs {
			s.Crash()
		}
		net.Close()
	}()
	for _, s := range procs {
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}

	cur, err := procs[0].MergeCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	for i := 0; i < msgs; i++ {
		g := abcast.GroupID(i % groups)
		id, err := procs[i%n].BroadcastTo(ctx, g, fmt.Appendf(nil, "m-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, g, id, 20*time.Second)
	}
	// Force folds under the merge floor, then verify the fold actually
	// happened (every group saw traffic, so the floor is positive).
	if err := procs[0].CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	var streamed []abcast.Delivery
	deadline := time.Now().Add(20 * time.Second)
	for {
		streamed, err = cur.Next(streamed)
		if err != nil {
			t.Fatal(err)
		}
		batch, from, rounds, ok := procs[0].Merged()
		if !ok {
			t.Fatal("merge unavailable")
		}
		// Cursor output starts at round 0; align to the folded base.
		aligned := streamed
		for len(aligned) > 0 && aligned[0].Round < from {
			aligned = aligned[1:]
		}
		match := len(aligned) == len(batch)
		for i := 0; match && i < len(batch); i++ {
			if aligned[i].Group != batch[i].Group || aligned[i].Msg.ID != batch[i].Msg.ID ||
				aligned[i].Pos != batch[i].Pos {
				t.Fatalf("cursor and batch merge disagree at %d: %+v vs %+v", i, aligned[i], batch[i])
			}
		}
		if match && from > 0 && cur.Emitted() >= rounds && len(streamed) > len(aligned) {
			// Folds happened (from > 0), the cursor covered everything the
			// batch covers, and it also streamed the pre-fold prefix the
			// batch can no longer reconstruct.
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: streamed=%d aligned=%d batch=%d from=%d emitted=%d rounds=%d",
				len(streamed), len(aligned), len(batch), from, cur.Emitted(), rounds)
		}
		time.Sleep(time.Millisecond)
	}
	if procs[0].MergeFrontier() == 0 {
		t.Fatal("merge frontier never advanced")
	}
}
