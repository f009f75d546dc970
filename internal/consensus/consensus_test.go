package consensus

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
)

// testProc bundles one process's stack for consensus-level tests.
type testProc struct {
	pid    ids.ProcessID
	store  storage.Stable
	rt     *router.Router
	det    *fd.Detector
	eng    *Engine
	cancel context.CancelFunc
}

// testCluster wires n consensus engines over a mem network.
type testCluster struct {
	t     *testing.T
	net   *transport.Mem
	procs []*testProc
	cfg   Config
}

func newTestCluster(t *testing.T, n int, policy Policy, netOpts transport.MemOptions) *testCluster {
	t.Helper()
	stores := make([]storage.Stable, n)
	for p := range stores {
		stores[p] = storage.NewMem()
	}
	tc := newStoppedCluster(t, policy, netOpts, stores)
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	return tc
}

// newStoppedCluster wires one process per store without starting any, so a
// test can adjust the configuration first.
func newStoppedCluster(t *testing.T, policy Policy, netOpts transport.MemOptions, stores []storage.Stable) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:   t,
		net: transport.NewMem(len(stores), netOpts),
		cfg: Config{
			N:        len(stores),
			Policy:   policy,
			RetryMin: 3 * time.Millisecond,
			RetryMax: 40 * time.Millisecond,
		},
	}
	t.Cleanup(tc.net.Close)
	for p, st := range stores {
		tc.procs = append(tc.procs, &testProc{pid: ids.ProcessID(p), store: st})
	}
	return tc
}

// start boots (or reboots) process pid with the given incarnation epoch.
func (tc *testCluster) start(pid ids.ProcessID, epoch uint32) {
	tc.t.Helper()
	pr := tc.procs[pid]
	ep, err := tc.net.Attach(pid)
	if err != nil {
		tc.t.Fatalf("attach %v: %v", pid, err)
	}
	pr.rt = router.New(ep)
	pr.det = fd.New(pid, len(tc.procs), epoch, fd.Options{
		Heartbeat: 5 * time.Millisecond,
		Timeout:   25 * time.Millisecond,
	}, pr.rt.Bound(router.ChanFD))
	cfg := tc.cfg
	cfg.PID = pid
	cfg.Seed = uint64(pid) + uint64(epoch)<<16 + 1
	eng, err := New(cfg, pr.store, pr.rt.Bound(router.ChanConsensus), pr.det)
	if err != nil {
		tc.t.Fatalf("new engine %v: %v", pid, err)
	}
	pr.eng = eng
	pr.rt.Handle(router.ChanFD, pr.det.OnMessage)
	pr.rt.Handle(router.ChanConsensus, eng.OnMessage)
	ctx, cancel := context.WithCancel(context.Background())
	pr.cancel = cancel
	pr.rt.Start(ctx)
	pr.det.Start(ctx)
	eng.Start(ctx)
}

// crash stops process pid, losing all volatile state.
func (tc *testCluster) crash(pid ids.ProcessID) {
	pr := tc.procs[pid]
	pr.cancel()
	pr.rt.Stop()
	pr.det.Stop()
	pr.eng.Stop()
	pr.rt, pr.det, pr.eng = nil, nil, nil
}

func (tc *testCluster) stopAll() {
	for p := range tc.procs {
		if tc.procs[p].eng != nil {
			tc.crash(ids.ProcessID(p))
		}
	}
}

func val(p int, k uint64) []byte {
	return []byte(fmt.Sprintf("v-%d-%d", p, k))
}

func TestDecideSingleInstance(t *testing.T) {
	for _, policy := range []Policy{PolicyLeader, PolicyRotating} {
		t.Run(policy.String(), func(t *testing.T) {
			tc := newTestCluster(t, 3, policy, transport.MemOptions{Seed: 7})
			defer tc.stopAll()

			for p, pr := range tc.procs {
				if err := pr.eng.Propose(0, val(p, 0)); err != nil {
					t.Fatalf("propose: %v", err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var first []byte
			for p, pr := range tc.procs {
				got, err := pr.eng.WaitDecided(ctx, 0)
				if err != nil {
					t.Fatalf("p%d wait: %v", p, err)
				}
				if first == nil {
					first = got
				} else if !bytes.Equal(first, got) {
					t.Fatalf("agreement violated: %q vs %q", first, got)
				}
			}
			// Uniform Validity: the decision is one of the proposals.
			valid := false
			for p := range tc.procs {
				if bytes.Equal(first, val(p, 0)) {
					valid = true
				}
			}
			if !valid {
				t.Fatalf("decision %q was never proposed", first)
			}
		})
	}
}

func TestDecideManyInstancesLossyNetwork(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{
		Seed:     11,
		Loss:     0.10,
		Dup:      0.05,
		MinDelay: 0,
		MaxDelay: 2 * time.Millisecond,
	})
	defer tc.stopAll()

	const instances = 20
	for k := uint64(0); k < instances; k++ {
		for p, pr := range tc.procs {
			if err := pr.eng.Propose(k, val(p, k)); err != nil {
				t.Fatalf("propose: %v", err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := uint64(0); k < instances; k++ {
		var first []byte
		for p, pr := range tc.procs {
			got, err := pr.eng.WaitDecided(ctx, k)
			if err != nil {
				t.Fatalf("p%d k=%d wait: %v", p, k, err)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Fatalf("k=%d agreement violated", k)
			}
		}
	}
}

func TestProposeIdempotent(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{Seed: 3})
	defer tc.stopAll()

	pr := tc.procs[0]
	if err := pr.eng.Propose(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// P4: re-proposing a different value keeps the original.
	if err := pr.eng.Propose(0, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, ok := pr.eng.Proposal(0)
	if !ok || !bytes.Equal(got, []byte("first")) {
		t.Fatalf("proposal changed: %q ok=%v", got, ok)
	}
}

func TestCrashRecoverKeepsDecision(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{Seed: 5})
	defer tc.stopAll()

	for p, pr := range tc.procs {
		if err := pr.eng.Propose(0, val(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want, err := tc.procs[1].eng.WaitDecided(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Crash p1 and recover it: P5 — the decision must be stable, straight
	// from the local log without any network round.
	tc.crash(1)
	tc.start(1, 2)
	got, ok := tc.procs[1].eng.DecidedLocal(0)
	if !ok {
		// The decision may not have been logged locally before the
		// crash (only a majority has it); it must still be learnable.
		got, err = tc.procs[1].eng.WaitDecided(ctx, 0)
		if err != nil {
			t.Fatalf("recovered wait: %v", err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decision changed across crash: %q vs %q", got, want)
	}
}

func TestCrashRecoverKeepsProposal(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{Seed: 9})
	defer tc.stopAll()

	if err := tc.procs[2].eng.Propose(7, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	tc.crash(2)
	tc.start(2, 2)
	got, ok := tc.procs[2].eng.Proposal(7)
	if !ok || !bytes.Equal(got, []byte("survives")) {
		t.Fatalf("proposal lost across crash: %q ok=%v", got, ok)
	}
}

func TestDecideWithMinorityCrashed(t *testing.T) {
	tc := newTestCluster(t, 5, PolicyLeader, transport.MemOptions{Seed: 13})
	defer tc.stopAll()

	// Crash 2 of 5 (a minority): the rest must still decide.
	tc.crash(3)
	tc.crash(4)
	for p := 0; p < 3; p++ {
		if err := tc.procs[p].eng.Propose(0, val(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first []byte
	for p := 0; p < 3; p++ {
		got, err := tc.procs[p].eng.WaitDecided(ctx, 0)
		if err != nil {
			t.Fatalf("p%d: %v", p, err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Fatal("agreement violated")
		}
	}
}

func TestLeaderCrashHandsOff(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{Seed: 17})
	defer tc.stopAll()

	// Let the detector see p0 alive, then kill it before proposing.
	time.Sleep(30 * time.Millisecond)
	tc.crash(0)
	for p := 1; p < 3; p++ {
		if err := tc.procs[p].eng.Propose(0, val(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := tc.procs[1].eng.WaitDecided(ctx, 0)
	if err != nil {
		t.Fatalf("p1: %v", err)
	}
	b, err := tc.procs[2].eng.WaitDecided(ctx, 0)
	if err != nil {
		t.Fatalf("p2: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("agreement violated after leader crash")
	}
}

// TestDiscardBelow: the floor drops instance state and deletes exactly the
// cells each instance wrote — three at a process that logged a proposal
// (proposal, acceptor, decision), two at a process that only accepted and
// learned — and none of them is left on disk. One row has p0 alone
// propose, the other raises the floor over instances every process
// proposed to. There p1 logs its proposal for instance 0 only: p0 decides
// that round classically and then asks for the lease, which p1 grants
// before it proposes instance 1, so its proposals for instances 1 and 2 are
// deferred and, since p1 coordinates neither, never written — 3+2+2 = 7
// deletes at p1, not 9.
func TestDiscardBelow(t *testing.T) {
	for _, row := range []struct {
		name      string
		proposers []ids.ProcessID // in proposing order; p0, the leader, last
		deletes   [2]int          // deletes over instances 0-2 at p0 and at p1
		cells     [2]int          // cells per instance at or above the floor
	}{
		{"one proposer", []ids.ProcessID{0}, [2]int{9, 6}, [2]int{3, 2}},
		{"every process proposes", []ids.ProcessID{2, 1, 0}, [2]int{9, 7}, [2]int{3, 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newScriptedSim(t, simOptions{})
			// The leader proposes last: a process that learns the decision
			// first logs no proposal. A process that does not propose only
			// accepts and learns.
			for k := uint64(0); k < 5; k++ {
				for _, p := range row.proposers {
					s.propose(p, k, val(int(p), k))
				}
				s.awaitDecided(t, k, val(0, k), 0, 1)
				if k == 0 {
					s.await(t, "p0's lease request for instances >= 1 at p1", func() bool {
						return s.received(1, mLeaseReq, 1, 0) > 0
					})
				}
			}
			s.settle(50 * ms)
			for p, want := range row.deletes {
				since := len(s.trace)
				s.discardBelow(ids.ProcessID(p), 3)
				if got := s.effects(ids.ProcessID(p), opDelete, 0, since); got != want {
					t.Fatalf("p%d: discarding three instances cost %d deletes, want %d", p, got, want)
				}
			}
			m := s.procs[0].m
			if _, ok := m.insts[2]; ok {
				t.Fatal("instance 2 should be discarded")
			}
			if err := m.propose(2, []byte("x"), 0); err == nil {
				t.Fatal("propose below floor should fail")
			}
			if _, ok := s.decided(0, 4); !ok {
				t.Fatal("decision 4 should survive")
			}

			// Keys below the floor are gone from stable storage, and the
			// ones at or above it are all there.
			s.settle(50 * ms)
			for p, cells := range row.cells {
				keys, err := s.procs[p].disk.List(keyPrefix)
				if err != nil {
					t.Fatal(err)
				}
				kept := 0
				for _, key := range keys {
					if kind, k, ok := parseKey(key); ok && kind != cellLease && k < 3 {
						t.Fatalf("p%d: stale key %s", p, key)
					} else if ok && kind != cellLease {
						kept++
					}
				}
				if want := 2 * cells; kept != want {
					t.Fatalf("p%d: %d cells at or above the floor, want %d: %v", p, kept, want, keys)
				}
			}
		})
	}
}

func TestRecoveryResumesInFlightInstance(t *testing.T) {
	tc := newTestCluster(t, 3, PolicyLeader, transport.MemOptions{Seed: 23})
	defer tc.stopAll()

	// p0 proposes alone and crashes immediately: no decision yet is
	// likely. After recovery the engine must re-drive the instance
	// because the proposal is logged but no decision is.
	if err := tc.procs[0].eng.Propose(0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	tc.crash(0)
	tc.start(0, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := tc.procs[0].eng.WaitDecided(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("solo")) {
		t.Fatalf("decision %q, want the only proposal", got)
	}
}
