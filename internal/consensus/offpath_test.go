package consensus

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

// These schedules place events between the issue of a write and its
// durability (a held write) and read the machines' output trace for what
// the machine does off the log: phase 1 beside the proposal log, and a
// decision that is never logged and that recovery learns again.

// heldProposal starts a schedule with p0's proposal write for instance 0
// held, proposes v at p0 and runs until p0 has received the promises of
// p1 and p2: phase 1 has then run to its quorum while the proposal is not
// durable.
func heldProposal(t *testing.T, v []byte) *sim {
	s := newScriptedSim(t, simOptions{})
	s.procs[0].hold = isCell(cellProposal, 0)
	s.propose(0, 0, v)
	s.Await(t, "promises from p1 and p2", func() bool { return s.received(0, mPromise, 0, 0) >= 2 })
	if len(s.sent(0, mPrepare, 0, 0)) == 0 || s.heldWrites(0, isCell(cellProposal, 0)) != 1 {
		t.Fatal("phase 1 did not run beside the held proposal write")
	}
	return s
}

// TestPrepareRunsBesideProposalLog: phase 1 completes while the proposal
// write is held, no mAccept leaves before the release, and what leaves
// after it carries the proposal.
func TestPrepareRunsBesideProposalLog(t *testing.T) {
	v := []byte("beside-the-log")
	s := heldProposal(t, v)
	if n := len(s.sent(0, mAccept, 0, 0)); n != 0 {
		t.Fatalf("%d mAccept sent before the proposal is durable", n)
	}
	s.release(0, isCell(cellProposal, 0))
	s.awaitDecided(t, 0, v, 0, 1, 2)
	for _, m := range s.sent(0, mAccept, 0, 0) {
		if !bytes.Equal(m.val, v) {
			t.Fatalf("mAccept carries %q, want the durable proposal %q", m.val, v)
		}
	}
}

// TestFailedProposalWriteNeverReachesTheWire: the proposal write fails after
// phase 1 reached its quorum. The ballot is given up — p0 never sends an
// mAccept — and the instance decides through p1, on p1's value.
func TestFailedProposalWriteNeverReachesTheWire(t *testing.T) {
	s := heldProposal(t, []byte("never-logged"))
	s.FailHeld(0)
	other := []byte("from-p1")
	s.propose(1, 0, other)
	s.awaitDecided(t, 0, other, 0, 1, 2)
	if sent := s.sent(0, mAccept, 0, 0); len(sent) != 0 {
		t.Fatalf("p0 sent %d mAccept (first carries %q) though its proposal never became durable", len(sent), sent[0].val)
	}
	if s.procs[0].m.insts[0].hasProp {
		t.Fatal("p0 reports a proposal whose write failed")
	}
}

// TestDecisionWritesNoCell: the coordinator and a learner decide, and
// neither logs the decision: every write either issued is a proposal, an
// acceptor or a lease-grant cell, and that is all their logs hold.
func TestDecisionWritesNoCell(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	v := []byte("no-cell")
	s.propose(0, 0, v)
	s.awaitDecided(t, 0, v, 0, 1)
	s.Settle(10 * ms)
	for p := range ids.ProcessID(2) {
		logged := s.effects(p, opPut, cellProposal, 0) + s.effects(p, opPut, cellAcceptor, 0) + s.effects(p, opPut, cellLease, 0)
		if all := s.effects(p, opPut, 0, 0); all != logged {
			t.Fatalf("p%d: %d writes, %d of them proposal, acceptor or lease cells", p, all, logged)
		}
		keys, _ := s.procs[p].disk.List(keyPrefix)
		for _, key := range keys {
			if kind, _, _ := parseKey(key); kind != cellProposal && kind != cellAcceptor && kind != cellLease {
				t.Fatalf("p%d: %s in the log", p, key)
			}
		}
	}
}

// TestRecoveryLearnsFromAcceptorCells: p0 and p1 learn the decision of
// instance 0, and all three crash; p2 stays down afterwards, so in the
// second life the value can only come out of the acceptor cells of p0 and
// p1. Nothing asks for the instance: recovery learns it again. p0 recovers
// as the coordinator of a logged proposal that lost — the chosen value is
// p2's — and must decide what its promise quorum returns, not what it
// logged; p1 recovers with an acceptor cell and no proposal.
func TestRecoveryLearnsFromAcceptorCells(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.procs[0].hold = isCell(cellProposal, 0)

	// p0's own value stays off the wire (its write is held), so the value
	// chosen in the first life is p2's.
	lost, chosen := []byte("p0-logged-but-lost"), []byte("p2-chosen")
	s.propose(0, 0, lost)
	s.Await(t, "promises from p1 and p2", func() bool { return s.received(0, mPromise, 0, 0) >= 2 })
	s.propose(2, 0, chosen)
	s.awaitDecided(t, 0, chosen, 0, 1, 2)
	s.Await(t, "p0 and p1 accepted the chosen value durably", func() bool {
		return hasAccepted(s, 0, chosen) && hasAccepted(s, 1, chosen)
	})
	// Only now does p0's proposal reach its log: a recovered p0 finds a
	// proposal and an acceptor cell.
	if n := s.release(0, isCell(cellProposal, 0)); n != 1 {
		t.Fatalf("released %d proposal writes, want 1", n)
	}
	s.Await(t, "p0's proposal durable", func() bool { _, ok := s.onDisk(0, cellProposal, 0); return ok })

	s.crash(0)
	s.crash(1)
	s.crash(2)
	s.recover(0)
	s.recover(1)
	if _, ok := s.decided(0, 0); ok {
		t.Fatal("p0 recovered a decision")
	}
	if in := s.procs[0].m.insts[0]; !in.hasProp || !bytes.Equal(in.proposal, lost) {
		t.Fatalf("p0 recovered proposal %q, %v", in.proposal, in.hasProp)
	}
	if in, ok := s.procs[1].m.insts[0]; !ok || in.hasProp || !in.hasAcc {
		t.Fatal("p1 recovered a proposal, or no accepted value")
	}
	s.awaitDecided(t, 0, chosen, 0, 1)
}

// hasAccepted reports whether pid's durable acceptor cell for instance 0
// holds v.
func hasAccepted(s *sim, pid ids.ProcessID, v []byte) bool {
	cell, ok := s.onDisk(pid, cellAcceptor, 0)
	if !ok {
		return false
	}
	m := newMachine(Config{N: 3}, nil)
	return m.restore(cellAcceptor, 0, cell) == nil && bytes.Equal(m.insts[0].accV, v)
}
