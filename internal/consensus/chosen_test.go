package consensus

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

// These schedules cover decide by ballot: the coordinator's decision is
// mChosen{k, b}, and an acceptor decides the value it accepted at exactly
// b; every other learner fetches the value with one mDecideReq.

// unicasts returns pid's sends of one kind for instance k from trace index
// `since` on, with each one's destination (Nobody for a multisend).
func (s *sim) unicasts(pid ids.ProcessID, kind uint8, k uint64, since int) []ids.ProcessID {
	var to []ids.ProcessID
	for _, st := range s.trace[since:] {
		if st.pid == pid && st.op == opSend && st.msg.kind == kind && st.msg.k == k {
			to = append(to, st.from)
		}
	}
	return to
}

// TestChosenNeverDecidesAnotherBallotsValue: p2 accepts (b1, v1), then a
// later ballot b2 chooses v2 without p2, whose b2 accept is lost. The
// mChosen{k, b2} that reaches p2 must not make it decide the v1 it holds:
// it fetches v2 from the coordinator and decides that.
func TestChosenNeverDecidesAnotherBallotsValue(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	v1, v2 := []byte("v1-at-b1"), []byte("v2-at-b2")

	// Ballot b1: p0's accept reaches p2 only, and p0's own acceptor cell
	// never becomes durable, so nothing is chosen at b1.
	s.procs[0].hold = isCell(cellAcceptor, 0)
	s.drop = func(from, to ids.ProcessID, m message) bool {
		return from == 0 && m.kind == mAccept && to != 2
	}
	s.propose(0, 0, v1)
	s.Await(t, "p2 accepted v1", func() bool {
		in, ok := s.procs[2].m.insts[0]
		return ok && in.hasAcc && bytes.Equal(in.accV, v1)
	})
	b1 := s.procs[2].m.insts[0].accB
	s.crash(0)
	s.procs[0].hold, s.procs[0].fd.leader = nil, 1
	s.recover(0)

	// Ballot b2: p0 stops coordinating (it follows p1, and its ballots
	// reach no one) and p1 runs b2 over {p0, p1}; p2 sees neither its
	// prepare nor its accept.
	s.drop = func(from, to ids.ProcessID, m message) bool {
		ballot := m.kind == mPrepare || m.kind == mAccept
		return ballot && (from == 0 || from == 1 && to == 2)
	}
	s.procs[1].fd.leader = 1
	since := len(s.trace)
	s.propose(1, 0, v2)
	s.awaitDecided(t, 0, v2, 0, 1, 2)

	chosen := s.sent(1, mChosen, 0, since)
	if len(chosen) == 0 || chosen[0].b <= b1 || len(chosen[0].val) != 0 {
		t.Fatalf("p1's decisions %+v: want one mChosen above b1=%d without a value", chosen, b1)
	}
	if in := s.procs[2].m.insts[0]; in.accB != b1 {
		t.Fatalf("p2 accepted at ballot %d, the schedule meant it to hold b1=%d only", in.accB, b1)
	}
	if to := s.unicasts(2, mDecideReq, 0, since); len(to) != 1 || to[0] != 1 {
		t.Fatalf("p2 sent decide requests to %v, want one to the coordinator p1", to)
	}
}

// TestChosenLearnerThatMissedTheAccept: the accept to p2 is lost, in a
// classic round and in a lease round. p2 still decides each instance,
// after exactly one mDecideReq to the coordinator and one mDecide back.
func TestChosenLearnerThatMissedTheAccept(t *testing.T) {
	s := newLeaseSim(t, 0)
	s.drop = func(from, to ids.ProcessID, m message) bool { return m.kind == mAccept && to == 2 }
	check := func(k uint64, fast bool) {
		t.Helper()
		since := len(s.trace)
		s.propose(0, k, val(0, k))
		s.awaitDecided(t, k, val(0, k), 0, 1, 2)
		if got := len(s.sent(0, mAccept, k, since)) > 0 && s.sent(0, mPrepare, k, since) == nil; got != fast {
			t.Fatalf("instance %d: lease round %v, want %v", k, got, fast)
		}
		if to := s.unicasts(2, mDecideReq, k, since); len(to) != 1 || to[0] != 0 {
			t.Fatalf("instance %d: p2 sent decide requests to %v, want one to p0", k, to)
		}
		if to := s.unicasts(0, mDecide, k, since); len(to) != 1 || to[0] != 2 {
			t.Fatalf("instance %d: p0 sent value-carrying decisions to %v, want one to p2", k, to)
		}
		if n := len(s.sent(0, mChosen, k, since)); n != 1 {
			t.Fatalf("instance %d: p0 sent %d mChosen, want 1", k, n)
		}
	}
	check(0, false)
	s.drop = nil
	k := s.decideUntilHeld(t, 1)
	s.drop = func(from, to ids.ProcessID, m message) bool { return m.kind == mAccept && to == 2 }
	check(k, true)
}
