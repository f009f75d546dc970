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
	s.Await(t, "the proposal is logged", func() bool { _, ok := s.proposal(pid, k); return ok })
}

// proposal returns pid's durable proposal for k, if it has one.
func (s *sim) proposal(pid ids.ProcessID, k uint64) ([]byte, bool) {
	if in, ok := s.procs[pid].m.insts[k]; ok && in.hasProp {
		return in.proposal, true
	}
	return nil, false
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
	if got, _ := s.proposal(0, 0); !bytes.Equal(got, []byte("first")) {
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

	// Crash p1 and recover it: P5 — the decision must be stable. No
	// decision is logged: the recovered p1 learns it again, unasked, from
	// its own acceptor cell on.
	s.crash(1)
	s.recover(1)
	s.awaitDecided(t, 0, want, 1)
}

func TestCrashRecoverKeepsProposal(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.propose(2, 7, []byte("survives"))
	s.awaitLogged(t, 2, 7)
	s.crash(2)
	s.recover(2)
	if got, ok := s.proposal(2, 7); !ok || !bytes.Equal(got, []byte("survives")) {
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

// TestDiscardBelow: raising the floor drops the instances below it and
// discards each kind of cell (proposal, acceptor) below it with one write:
// two writes whether one instance goes or three, at a process that logged
// proposals as at one that only accepted. A discard at or below the floor
// writes nothing. No cell below the floor is left on disk, every cell at
// or above it is, and the lease grant is untouched; a crash and a recovery
// change none of that: the recovered process's discard at its restored
// floor is two writes that remove nothing more, and it learns the
// decisions above the floor again. One row has p0 alone propose, the
// other has every process propose, so that p1 logs a proposal (for
// instance 0 only: it grants p0's lease before it proposes instance 1, so
// its later proposals are deferred and never written).
func TestDiscardBelow(t *testing.T) {
	const instances, floor = 6, 4
	for _, row := range []struct {
		name      string
		proposers []ids.ProcessID // in proposing order; p0, the leader, last
		cells     [2]int          // cells per instance at or above the floor at p0 and at p1
	}{
		{"one proposer", []ids.ProcessID{0}, [2]int{2, 1}},
		{"every process proposes", []ids.ProcessID{2, 1, 0}, [2]int{2, 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newScriptedSim(t, simOptions{})
			// The leader proposes last: a process that learns the decision
			// first logs no proposal. A process that does not propose only
			// accepts and learns.
			for k := uint64(0); k < instances; k++ {
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
			lease := make(map[ids.ProcessID][]byte)
			for p := range ids.ProcessID(2) {
				lease[p], _, _ = s.procs[p].disk.Get(keyLease)
			}
			if lease[1] == nil {
				t.Fatal("p1 logged no lease grant")
			}

			// discard raises p's floor to k (or tries to) and checks the
			// writes it cost.
			discard := func(p ids.ProcessID, k uint64, writes int) {
				t.Helper()
				since := len(s.trace)
				s.discardBelow(p, k)
				if got := s.effects(p, opDiscard, 0, since); got != writes {
					t.Fatalf("p%d: a discard below %d cost %d writes, want %d", p, k, got, writes)
				}
				for _, cell := range []byte{cellProposal, cellAcceptor} {
					if got := s.effects(p, opDiscard, cell, since); got != writes/2 {
						t.Fatalf("p%d: a discard below %d cost %d writes of %c cells, want %d", p, k, got, cell, writes/2)
					}
				}
			}
			// onDisk checks that p's log holds every cell at or above the
			// floor, none below it, and the lease grant it had.
			onDisk := func(p ids.ProcessID, when string) {
				t.Helper()
				s.Settle(50 * ms)
				keys, err := s.procs[p].disk.List(keyPrefix)
				if err != nil {
					t.Fatal(err)
				}
				kept := 0
				for _, key := range keys {
					if kind, k, ok := parseKey(key); ok && kind != cellLease && k < floor {
						t.Fatalf("p%d %s: stale key %s", p, when, key)
					} else if ok && kind != cellLease {
						kept++
					}
				}
				if want := (instances - floor) * row.cells[p]; kept != want {
					t.Fatalf("p%d %s: %d cells at or above the floor, want %d: %v", p, when, kept, want, keys)
				}
				if got, _, _ := s.procs[p].disk.Get(keyLease); !bytes.Equal(got, lease[p]) {
					t.Fatalf("p%d %s: lease cell %x, was %x", p, when, got, lease[p])
				}
			}
			for p := range ids.ProcessID(2) {
				discard(p, 1, 2)     // one instance
				discard(p, floor, 2) // three more
				discard(p, floor, 0)
				discard(p, 2, 0)
			}
			m := s.procs[0].m
			if _, ok := m.insts[floor-1]; ok {
				t.Fatalf("instance %d should be discarded", floor-1)
			}
			if err := m.propose(floor-1, []byte("x"), 0); err == nil {
				t.Fatal("propose below floor should fail")
			}
			if _, ok := s.decided(0, floor); !ok {
				t.Fatalf("decision %d should survive", floor)
			}
			for p := range ids.ProcessID(2) {
				onDisk(p, "after the discard")
			}

			for p := range ids.ProcessID(2) {
				s.crash(p)
				since := len(s.trace)
				s.recover(p)
				if got := s.effects(p, opDiscard, 0, since); got != 2 {
					t.Fatalf("p%d: the discard at the restored floor cost %d writes, want 2", p, got)
				}
				s.Settle(50 * ms)
				onDisk(p, "after a crash and a recovery")
				m := s.procs[p].m
				for k := range m.insts {
					if k < floor {
						t.Fatalf("p%d restored instance %d below the floor", p, k)
					}
				}
				for k := uint64(floor); k < instances; k++ {
					if _, ok := s.decided(p, k); !ok {
						t.Fatalf("p%d learned no decision for instance %d again", p, k)
					}
				}
				discard(p, floor, 0) // at the restored floor
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
