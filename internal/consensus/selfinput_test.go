package consensus

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ids"
)

// These schedules cover a process's own share of what it sends: no frame,
// but an input of the step that sent it (machine.send, taken by more). The
// lease holder accepts its own proposal in the step that proposes it, and
// counts that accept only once its acceptor cell is durable.

// TestHolderIssuesBothCellsInOneStep: at the lease holder, one propose
// step issues the proposal cell and the holder's acceptor cell, so the two
// can join one group commit, and sends no frame to itself.
func TestHolderIssuesBothCellsInOneStep(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	k := s.decideUntilHeld(t, 0)
	since := len(s.trace)
	s.propose(0, k, val(0, k))
	step := s.trace[since:]
	cells := make(map[byte]int)
	for _, st := range step {
		if st.pid != 0 || st.at != s.Now {
			t.Fatalf("the propose step ran %v", st)
		}
		if st.op == opPut && st.k == k {
			cells[st.cell]++
		}
	}
	if cells[cellProposal] != 1 || cells[cellAcceptor] != 1 {
		t.Fatalf("the propose step issued %d proposal and %d acceptor cells of instance %d, want one each",
			cells[cellProposal], cells[cellAcceptor], k)
	}
	if len(s.sent(0, mAccept, k, since)) != 1 {
		t.Fatalf("the propose step sent no accept at the lease ballot")
	}
	s.awaitDecided(t, k, val(0, k), 0, 1, 2)
	for _, st := range s.trace {
		if st.op == opSend && st.from == st.pid {
			t.Fatalf("p%d addressed a frame to itself: %v", st.pid, st)
		}
	}
}

// TestHolderCountsItsOwnAcceptOnceDurable: the holder's own mAccepted
// enters in.accepts only after its acceptor cell's persisted input. With
// p2's accept lost and the holder's cell held, p1's accept alone is no
// quorum, so nothing is decided until the cell is released.
func TestHolderCountsItsOwnAcceptOnceDurable(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	k := s.decideUntilHeld(t, 0)
	s.procs[0].hold = isCell(cellAcceptor, int64(k))
	s.drop = func(from, to ids.ProcessID, m message) bool { return m.kind == mAccept && to == 2 }
	s.propose(0, k, val(0, k))
	in := s.procs[0].m.insts[k]
	s.Await(t, "p1's accepted", func() bool { return slices.Contains(in.accepts, 1) })
	s.Settle(50 * ms)
	if _, ok := s.decided(0, k); ok || slices.Contains(in.accepts, 0) || s.heldWrites(0, isCell(cellAcceptor, int64(k))) != 1 {
		t.Fatalf("with its acceptor cell held, the holder counts accepts from %v (decided %v)", in.accepts, ok)
	}
	s.release(0, isCell(cellAcceptor, int64(k)))
	s.awaitDecided(t, k, val(0, k), 0, 1)
	if !slices.Contains(in.accepts, 0) {
		t.Fatalf("the holder decided on accepts from %v, without its own", in.accepts)
	}
}

// TestHolderCrashBeforeItsAcceptorCellIsDurable: the holder's accept
// reaches p1 only, and the holder crashes before its own acceptor cell is
// durable, with p1. Nothing was chosen: the one durable accept is p1's.
// p2 and the recovered holder then choose p2's value, which every process
// decides once p1 is back. A holder that counted its own accept at issue
// would have decided its value first (Agreement).
func TestHolderCrashBeforeItsAcceptorCellIsDurable(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	k := s.decideUntilHeld(t, 0)
	mine, theirs := []byte("held-at-the-holder"), []byte("chosen-without-it")
	s.procs[0].hold = func(cell byte, kk uint64) bool { return kk == k && cell != cellLease }
	s.drop = func(from, to ids.ProcessID, m message) bool { return to == 2 }
	s.propose(0, k, mine)
	s.Await(t, "p1 accepted", func() bool {
		in, ok := s.procs[1].m.insts[k]
		return ok && in.hasAcc && bytes.Equal(in.accV, mine)
	})
	s.Settle(5 * ms)
	s.crash(0)
	s.crash(1)
	s.drop = nil
	s.procs[0].fd.leader, s.procs[2].fd.leader = 2, 2
	s.procs[0].hold = nil
	s.recover(0)
	s.propose(2, k, theirs)
	s.awaitDecided(t, k, theirs, 0, 2)
	s.heal()
	s.awaitDecided(t, k, theirs, 0, 1, 2)
}
