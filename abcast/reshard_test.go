package abcast_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/abcast"
	igroup "repro/internal/group"
)

// awaitGroupKnown polls until every process's topology includes g as an
// active group and its local member node answers. Groups() covering g is
// not enough: a joined group's node boots asynchronously after the
// topology learns it, and answers once Merged does (ok only while every
// group node of the process is up).
func awaitGroupKnown(t *testing.T, procs []*abcast.Sharded, g abcast.GroupID, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		all := true
		for _, s := range procs {
			active := false
			for _, a := range s.ActiveGroups() {
				if a == g {
					active = true
				}
			}
			if !active || s.Groups() <= int(g) {
				all = false
				break
			}
			if _, _, _, ok := s.Merged(); !ok {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group %v not active at every process", g)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedConfigValidate: construction-time validation mirrors
// ProtocolOptions.Validate and rejects out-of-range identities.
func TestShardedConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  abcast.ShardedConfig
		want string // substring of the error; empty = valid
	}{
		{"valid", abcast.ShardedConfig{PID: 0, N: 3}, ""},
		{"zero N", abcast.ShardedConfig{PID: 0, N: 0}, "N > 0"},
		{"negative N", abcast.ShardedConfig{PID: 0, N: -1}, "N > 0"},
		{"negative PID", abcast.ShardedConfig{PID: -1, N: 3}, "out of range"},
		{"PID beyond N", abcast.ShardedConfig{PID: 3, N: 3}, "out of range"},
		{"bad protocol", abcast.ShardedConfig{PID: 0, N: 3,
			Protocol: abcast.ProtocolOptions{PipelineDepth: -2}}, "PipelineDepth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// NewSharded must reject what Validate rejects.
	net := abcast.NewMemNetwork(3, abcast.MemNetOptions{Seed: 3})
	defer net.Close()
	snet := abcast.NewShardedNetwork(net, 2)
	if _, err := abcast.NewSharded(abcast.ShardedConfig{PID: 9, N: 3}, abcast.NewMemStorage(), snet); err == nil {
		t.Fatal("NewSharded accepted an out-of-range PID")
	}
}

// TestShardedAddGroupLive scales a running deployment from 2 to 3 groups:
// one process announces the join, every process splices the group in off
// the ordered marker, the router epoch bumps, and the new group orders
// traffic at every process.
func TestShardedAddGroupLive(t *testing.T) {
	const n, groups = 3, 2
	// Idle heartbeats keep quiescent groups from pinning the merge
	// frontier below the marker round.
	procs, stop := shardedCluster(t, n, groups,
		abcast.ProtocolOptions{IdleHeartbeat: 5 * time.Millisecond}, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm every existing group so the merge has content on both sides of
	// the splice.
	for g := abcast.GroupID(0); int(g) < groups; g++ {
		id, err := procs[0].BroadcastTo(ctx, g, fmt.Appendf(nil, "pre-%d", g))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, g, id, 20*time.Second)
	}

	epoch0 := procs[0].Epoch()
	gid, err := procs[0].AddGroup(ctx)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	if gid != abcast.GroupID(groups) {
		t.Fatalf("AddGroup minted gid %v; want %v", gid, groups)
	}
	awaitGroupKnown(t, procs, gid, 20*time.Second)
	// The router swaps to the join's epoch a goroutine handoff after the
	// topology learns the group.
	deadline := time.Now().Add(20 * time.Second)
	for p, s := range procs {
		for e := s.Epoch(); e <= epoch0; e = s.Epoch() {
			if time.Now().After(deadline) {
				t.Fatalf("p%d epoch %d did not advance past %d on join", p, e, epoch0)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The new group orders traffic, at every process, addressed explicitly
	// and through the key router (which must now place keys on it).
	id, err := procs[1].BroadcastTo(ctx, gid, []byte("post-join"))
	if err != nil {
		t.Fatalf("broadcast to joined group: %v", err)
	}
	awaitShardedDelivered(t, procs, gid, id, 20*time.Second)
	routed := false
	for i := 0; i < 4096 && !routed; i++ {
		key := fmt.Appendf(nil, "key-%d", i)
		if procs[0].Route(key) != gid {
			continue
		}
		routed = true
		if g2 := procs[2].Route(key); g2 != gid {
			t.Fatalf("routers disagree after join: %v vs %v", gid, g2)
		}
		g, rid, err := procs[0].Broadcast(ctx, key, []byte("routed"))
		if err != nil {
			t.Fatal(err)
		}
		if g != gid {
			t.Fatalf("Broadcast used %v, Route promised %v", g, gid)
		}
		awaitShardedDelivered(t, procs, g, rid, 20*time.Second)
	}
	if !routed {
		t.Fatal("router never places any key on the joined group")
	}

	// The merged order spans the splice identically everywhere, and the
	// JOIN marker itself shows up in it (that is the coordination point).
	awaitAgreedMerge(t, procs, 20*time.Second, func(m []abcast.Delivery) error {
		marker, post := false, false
		for _, d := range m {
			if abcast.IsReshardMarker(d.Msg.Payload) {
				marker = true
			}
			if d.Group == gid {
				post = true
			}
		}
		if !marker {
			return fmt.Errorf("no reshard marker in the merged order")
		}
		if !post {
			return fmt.Errorf("no post-join delivery in the merged order")
		}
		return nil
	})
}

// awaitAgreedMerge polls until every process's Merged output prefix-agrees
// with p0's and p0's satisfies check.
func awaitAgreedMerge(t *testing.T, procs []*abcast.Sharded, d time.Duration, check func([]abcast.Delivery) error) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		err := func() error {
			m0, _, _, ok := procs[0].Merged()
			if !ok {
				return fmt.Errorf("merge unavailable at p0")
			}
			for p := 1; p < len(procs); p++ {
				mp, _, _, ok := procs[p].Merged()
				if !ok {
					return fmt.Errorf("merge unavailable at p%d", p)
				}
				short := m0
				if len(mp) < len(short) {
					short = mp
				}
				for i := range short {
					if m0[i].Group != mp[i].Group || m0[i].Msg.ID != mp[i].Msg.ID {
						t.Fatalf("merged orders disagree at %d: p0=%v/%v p%d=%v/%v",
							i, m0[i].Group, m0[i].Msg.ID, p, mp[i].Group, mp[i].Msg.ID)
					}
				}
			}
			return check(m0)
		}()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("merge never converged: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedRetireGroupDrains retires one of three groups: the seal
// marker drains it shut at every process, broadcasts to it bounce with
// ErrSealed, the router stops placing keys on it, and the merged order
// stays agreed across the epoch splice.
func TestShardedRetireGroupDrains(t *testing.T) {
	const n, groups = 3, 3
	const retired = abcast.GroupID(2)
	procs, stop := shardedCluster(t, n, groups,
		abcast.ProtocolOptions{IdleHeartbeat: 5 * time.Millisecond}, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for g := abcast.GroupID(0); int(g) < groups; g++ {
		id, err := procs[0].BroadcastTo(ctx, g, fmt.Appendf(nil, "pre-%d", g))
		if err != nil {
			t.Fatal(err)
		}
		awaitShardedDelivered(t, procs, g, id, 20*time.Second)
	}

	epoch0 := procs[0].Epoch()
	for p, s := range procs { // every process retires; announcements are dup-inert
		if err := s.RetireGroup(ctx, retired); err != nil {
			t.Fatalf("RetireGroup at p%d: %v", p, err)
		}
	}
	for p, s := range procs {
		if e := s.Epoch(); e <= epoch0 {
			t.Fatalf("p%d epoch %d did not advance past %d on seal", p, e, epoch0)
		}
		active := s.ActiveGroups()
		for _, a := range active {
			if a == retired {
				t.Fatalf("p%d still lists %v active after retirement: %v", p, retired, active)
			}
		}
		if len(active) != groups-1 {
			t.Fatalf("p%d active groups = %v; want %d of them", p, active, groups-1)
		}
	}

	// Sealed group bounces new work; the default router never lands there.
	if _, err := procs[0].BroadcastTo(ctx, retired, []byte("late")); !errors.Is(err, abcast.ErrSealed) {
		t.Fatalf("broadcast to sealed group: err=%v; want ErrSealed", err)
	}
	for i := 0; i < 4096; i++ {
		if g := procs[1].Route(fmt.Appendf(nil, "key-%d", i)); g == retired {
			t.Fatalf("router still places keys on the retired group")
		}
	}
	// Keyed Broadcast re-routes around a seal race instead of failing.
	if _, _, err := procs[0].Broadcast(ctx, []byte("after-retire"), []byte("x")); err != nil {
		t.Fatalf("keyed broadcast after retirement: %v", err)
	}

	// The SEAL marker is in the retired group's sequence, and the merged
	// order — spanning pre-seal deliveries of the retired group, the
	// marker, and post-seal traffic — agrees everywhere.
	_, seq := procs[0].Sequence(retired)
	sawSeal := false
	for _, d := range seq {
		if abcast.IsReshardMarker(d.Msg.Payload) {
			sawSeal = true
		}
	}
	if !sawSeal {
		t.Fatal("seal marker missing from the retired group's sequence")
	}
	id, err := procs[2].BroadcastTo(ctx, 0, []byte("post-seal"))
	if err != nil {
		t.Fatal(err)
	}
	awaitShardedDelivered(t, procs, 0, id, 20*time.Second)
	awaitAgreedMerge(t, procs, 20*time.Second, func(m []abcast.Delivery) error {
		var sawRetired, sawPost bool
		for _, d := range m {
			if d.Group == retired {
				sawRetired = true
			}
			if d.Group == 0 && string(d.Msg.Payload) == "post-seal" {
				sawPost = true
			}
		}
		if !sawRetired || !sawPost {
			return fmt.Errorf("merge does not span the splice (retired=%v post=%v)", sawRetired, sawPost)
		}
		return nil
	})

	// Retiring again is a no-op class of its own: the group is already
	// sealed and drained, so a repeat call just re-runs the idempotent
	// tail and succeeds.
	if err := procs[0].RetireGroup(ctx, retired); err != nil {
		t.Fatalf("repeated RetireGroup: %v", err)
	}
	// Reshard metrics surfaced the drain.
	if st := procs[0].Stats(); st.Total.Delivered == 0 {
		t.Fatal("stats lost deliveries across retirement")
	}
}

// TestShardedSealCarriesPipelineDepth: the drain window W a SEAL marker
// carries is the depth of the proposal pipeline the processes run,
// max(1, PipelineDepth) — the configuration is static, so no proposer can
// have a window deeper than that past the seal round.
func TestShardedSealCarriesPipelineDepth(t *testing.T) {
	for _, tc := range []struct {
		depth int
		want  uint64
	}{{0, 1}, {1, 1}, {4, 4}} {
		t.Run(fmt.Sprintf("depth=%d", tc.depth), func(t *testing.T) {
			const retired = abcast.GroupID(1)
			procs, stop := shardedCluster(t, 1, 2, abcast.ProtocolOptions{PipelineDepth: tc.depth}, nil)
			defer stop()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := procs[0].RetireGroup(ctx, retired); err != nil {
				t.Fatal(err)
			}
			_, seq := procs[0].Sequence(retired)
			for _, d := range seq {
				if w, ok := igroup.DecodeSealMarker(d.Msg.Payload); ok {
					if w != tc.want {
						t.Fatalf("SEAL marker carries W=%d, want %d", w, tc.want)
					}
					return
				}
			}
			t.Fatalf("no SEAL marker among the %d deliveries of the retired group", len(seq))
		})
	}
}

// TestShardedRetireOrphanTermination floods a group with asynchronous
// broadcasts and retires it immediately: messages the drain cut off must
// be re-injected into a successor group and still reach every process
// (Termination survives the reshard).
func TestShardedRetireOrphanTermination(t *testing.T) {
	const n, groups, msgs = 3, 2, 24
	const retired = abcast.GroupID(1)
	procs, stop := shardedCluster(t, n, groups, abcast.ProtocolOptions{}, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	payloads := make(map[string]bool, msgs)
	for i := 0; i < msgs; i++ {
		pl := fmt.Sprintf("orphan-candidate-%d", i)
		if _, err := procs[i%n].BroadcastToAsync(retired, []byte(pl)); err != nil {
			if errors.Is(err, abcast.ErrSealed) {
				break // a racing test run's seal landed absurdly fast; rest would bounce
			}
			t.Fatal(err)
		}
		payloads[pl] = true
	}
	for p, s := range procs {
		if err := s.RetireGroup(ctx, retired); err != nil {
			t.Fatalf("RetireGroup at p%d: %v", p, err)
		}
	}

	// Every admitted payload must surface in some group's sequence at
	// every process — ordered pre-seal in the retiring group, or remapped
	// and re-injected into the successor.
	deadline := time.Now().Add(20 * time.Second)
	for {
		missing := ""
		for p, s := range procs {
			found := make(map[string]bool, len(payloads))
			for g := 0; g < s.Groups(); g++ {
				_, seq := s.Sequence(abcast.GroupID(g))
				for _, d := range seq {
					found[string(d.Msg.Payload)] = true
				}
			}
			for pl := range payloads {
				if !found[pl] {
					missing = fmt.Sprintf("p%d missing %q", p, pl)
				}
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphan never delivered after retirement: %s", missing)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedReshardRestart crashes every process after a scale-out and a
// retirement and rebuilds the deployment from its stores: the persisted
// topology restores the joined group's offset and the retired group's
// seal without replaying any marker.
func TestShardedReshardRestart(t *testing.T) {
	const n, groups = 3, 2
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 11})
	defer net.Close()
	snet := abcast.NewShardedNetwork(net, groups)
	stores := make([]abcast.Storage, n)
	for p := range stores {
		stores[p] = abcast.NewMemStorage()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	build := func() []*abcast.Sharded {
		procs := make([]*abcast.Sharded, n)
		for p := 0; p < n; p++ {
			s, err := abcast.NewSharded(abcast.ShardedConfig{
				PID: abcast.ProcessID(p), N: n,
				Protocol: abcast.ProtocolOptions{IdleHeartbeat: 5 * time.Millisecond},
			}, stores[p], snet)
			if err != nil {
				t.Fatal(err)
			}
			procs[p] = s
		}
		// All at once: Start returns after replay, and replaying a round
		// whose proposal was logged but not decided before the crash needs
		// a quorum of the others up.
		errs := make(chan error, n)
		for _, s := range procs {
			go func() { errs <- s.Start(ctx) }()
		}
		for range procs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		return procs
	}

	procs := build()
	id0, err := procs[0].BroadcastTo(ctx, 0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	awaitShardedDelivered(t, procs, 0, id0, 20*time.Second)

	gid, err := procs[0].AddGroup(ctx)
	if err != nil {
		t.Fatal(err)
	}
	awaitGroupKnown(t, procs, gid, 20*time.Second)
	idNew, err := procs[1].BroadcastTo(ctx, gid, []byte("in-new-group"))
	if err != nil {
		t.Fatal(err)
	}
	awaitShardedDelivered(t, procs, gid, idNew, 20*time.Second)
	for p, s := range procs {
		if err := s.RetireGroup(ctx, 1); err != nil {
			t.Fatalf("RetireGroup at p%d: %v", p, err)
		}
	}

	for _, s := range procs {
		s.Crash()
	}
	procs = build()

	for p, s := range procs {
		if s.Groups() != groups+1 {
			t.Fatalf("p%d rebuilt with %d groups; want %d", p, s.Groups(), groups+1)
		}
		active := s.ActiveGroups()
		if len(active) != 2 || active[0] != 0 || active[1] != gid {
			t.Fatalf("p%d active groups after restart = %v; want [0 %v]", p, active, gid)
		}
	}
	// The seal survived the restart without any marker replay: new work
	// still bounces.
	if _, err := procs[0].BroadcastTo(ctx, 1, []byte("late")); !errors.Is(err, abcast.ErrSealed) {
		t.Fatalf("broadcast to sealed group after restart: err=%v; want ErrSealed", err)
	}
	// The joined group's history and offset survived: old traffic is
	// still there and new traffic still orders.
	awaitShardedDelivered(t, procs, gid, idNew, 20*time.Second)
	idAgain, err := procs[2].BroadcastTo(ctx, gid, []byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	awaitShardedDelivered(t, procs, gid, idAgain, 20*time.Second)
	awaitAgreedMerge(t, procs, 20*time.Second, func(m []abcast.Delivery) error {
		for _, d := range m {
			if d.Group == gid && string(d.Msg.Payload) == "post-restart" {
				return nil
			}
		}
		return fmt.Errorf("post-restart delivery not merged yet")
	})
}

// TestRecoveredRetireJudgesOnCurrentView: a process that was down while
// the cluster added g2 and retired g0 restores the topology it persisted,
// in which g0 is the last active group. Re-running the retirement there
// (to re-inject its orphans) must not be judged on that restored view: it
// succeeds once the peers' floor reports bring the view up to date.
func TestRecoveredRetireJudgesOnCurrentView(t *testing.T) {
	const n, groups = 3, 2
	net := abcast.NewMemNetwork(n, abcast.MemNetOptions{Seed: 13})
	defer net.Close()
	snet := abcast.NewShardedNetwork(net, groups)
	stores := make([]abcast.Storage, n)
	for p := range stores {
		stores[p] = abcast.NewMemStorage()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	build := func(p int) *abcast.Sharded {
		s, err := abcast.NewSharded(abcast.ShardedConfig{
			PID: abcast.ProcessID(p), N: n,
			Protocol: abcast.ProtocolOptions{IdleHeartbeat: 5 * time.Millisecond},
		}, stores[p], snet)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	procs := make([]*abcast.Sharded, n)
	errs := make(chan error, n)
	for p := range procs {
		procs[p] = build(p)
		go func() { errs <- procs[p].Start(ctx) }()
	}
	for range procs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, s := range procs {
			s.Crash()
		}
	}()

	// Epoch 1: g1 retired everywhere, so g0 is p1's last active group.
	for p, s := range procs {
		if err := s.RetireGroup(ctx, 1); err != nil {
			t.Fatalf("RetireGroup(g1) at p%d: %v", p, err)
		}
	}
	procs[1].Crash()
	// Epochs 2 and 3, while p1 is down: g2 joins, g0 retires.
	live := []*abcast.Sharded{procs[0], procs[2]}
	gid, err := procs[0].AddGroup(ctx)
	if err != nil {
		t.Fatal(err)
	}
	awaitGroupKnown(t, live, gid, 20*time.Second)
	for _, s := range live {
		if err := s.RetireGroup(ctx, 0); err != nil {
			t.Fatalf("RetireGroup(g0) while p1 is down: %v", err)
		}
	}

	procs[1] = build(1)
	if err := procs[1].Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].RetireGroup(ctx, 0); err != nil && !strings.Contains(err.Error(), "reaped") {
		t.Fatalf("re-retiring g0 at the recovered p1 (epoch %d, peers at %d): %v", procs[1].Epoch(), procs[0].Epoch(), err)
	}
	if active := procs[1].ActiveGroups(); len(active) != 1 || active[0] != gid {
		t.Fatalf("recovered p1's active groups = %v; want [%v]", active, gid)
	}
}
