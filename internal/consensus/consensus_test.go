package consensus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/storage"
)

func val(p int, k uint64) []byte {
	return []byte(fmt.Sprintf("v-%d-%d", p, k))
}

// awaitAll runs until every live process decided instances [0, n); the
// oracle checks Agreement and Validity on the way.
func (s *sim) awaitAll(t *testing.T, n uint64) {
	t.Helper()
	s.Await(t, fmt.Sprintf("instances 0-%d decided everywhere", n-1), func() bool {
		for _, p := range s.procs {
			for k := range n {
				if _, ok := s.decided(p.pid, k); p.m != nil && !ok {
					return false
				}
			}
		}
		return true
	})
}

// awaitLogged runs until pid's proposal for k is durable.
func (s *sim) awaitLogged(t *testing.T, pid ids.ProcessID, k uint64) {
	t.Helper()
	s.Await(t, "the proposal is logged", func() bool { _, ok := s.procs[pid].m.proposal(k); return ok })
}

func TestDecideSingleInstance(t *testing.T) {
	for _, policy := range []Policy{PolicyLeader, PolicyRotating} {
		t.Run(policy.String(), func(t *testing.T) {
			s := newScriptedSim(t, simOptions{policy: policy})
			for p := range s.procs {
				s.propose(ids.ProcessID(p), 0, val(p, 0))
			}
			s.awaitAll(t, 1)
		})
	}
}

func TestDecideManyInstancesLossyNetwork(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.Loss, s.Dup, s.Delay = 0.10, 0.05, [2]int64{0, 2 * ms}
	const instances = 20
	for k := range uint64(instances) {
		for p := range s.procs {
			s.propose(ids.ProcessID(p), k, val(p, k))
		}
	}
	s.awaitAll(t, instances)
}

func TestProposeIdempotent(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.propose(0, 0, []byte("first"))
	// P4: re-proposing a different value keeps the original.
	s.propose(0, 0, []byte("second"))
	s.awaitLogged(t, 0, 0)
	if got, _ := s.procs[0].m.proposal(0); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("proposal changed: %q", got)
	}
}

func TestCrashRecoverKeepsDecision(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	for p := range s.procs {
		s.propose(ids.ProcessID(p), 0, val(p, 0))
	}
	s.awaitAll(t, 1)
	want, _ := s.decided(1, 0)

	// Crash p1 and recover it: P5 — the decision must be stable. It comes
	// from the local log, or, if the decision cell was not durable yet,
	// from the accept quorum's cells.
	s.crash(1)
	s.recover(1)
	s.learn(1, 0)
	s.awaitDecided(t, 0, want, 1)
}

func TestCrashRecoverKeepsProposal(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.propose(2, 7, []byte("survives"))
	s.awaitLogged(t, 2, 7)
	s.crash(2)
	s.recover(2)
	if got, ok := s.procs[2].m.proposal(7); !ok || !bytes.Equal(got, []byte("survives")) {
		t.Fatalf("proposal lost across crash: %q ok=%v", got, ok)
	}
}

func TestDecideWithMinorityCrashed(t *testing.T) {
	s := newScriptedSim(t, simOptions{n: 5})
	// Crash 2 of 5 (a minority): the rest must still decide.
	s.crash(3)
	s.crash(4)
	for p := range ids.ProcessID(3) {
		s.propose(p, 0, val(int(p), 0))
	}
	s.awaitAll(t, 1)
}

func TestLeaderCrashHandsOff(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	// The leader dies before anyone proposes; the detectors notice.
	s.crash(0)
	s.suspect(0, true)
	for p := range ids.ProcessID(2) {
		s.propose(p+1, 0, val(int(p+1), 0))
	}
	s.awaitAll(t, 1)
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
					s.Await(t, "p0's lease request for instances >= 1 at p1", func() bool {
						return s.received(1, mLeaseReq, 1, 0) > 0
					})
				}
			}
			s.Settle(50 * ms)
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
			s.Settle(50 * ms)
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
	s := newScriptedSim(t, simOptions{})
	// p0 proposes alone and crashes once its proposal is logged, before
	// any decision. The recovered machine must drive the instance again,
	// because the proposal is logged and no decision is.
	s.propose(0, 0, []byte("solo"))
	s.awaitLogged(t, 0, 0)
	s.crash(0)
	s.recover(0)
	s.awaitDecided(t, 0, []byte("solo"), 0, 1, 2)
}

// TestDiscardReleasesWaiters: a WaitDecided blocked on an instance that a
// checkpoint then discards returns ErrDiscarded, so a recovery replaying
// that instance goes on past it instead of waiting for good.
func TestDiscardReleasesWaiters(t *testing.T) {
	e, err := New(Config{PID: 0, N: 3}, storage.NewMem(), nopNet{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.Start(ctx)
	defer e.Stop()
	done := make(chan error, 1)
	go func() { _, err := e.WaitDecided(ctx, 2); done <- err }()
	for waiting := false; !waiting; time.Sleep(time.Millisecond) {
		e.l.Lock()
		waiting = e.waiters[2] != nil
		e.l.Unlock()
	}
	e.l.Enter()
	e.Box().DiscardBelow(5)
	e.l.Exit()
	if err := <-done; !errors.Is(err, ErrDiscarded) {
		t.Fatalf("WaitDecided returned %v, want ErrDiscarded", err)
	}
}

// nopNet drops every frame.
type nopNet struct{}

func (nopNet) Send(ids.ProcessID, []byte) {}
func (nopNet) Multisend([]byte)           {}
