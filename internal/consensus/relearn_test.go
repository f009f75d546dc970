package consensus

import (
	"testing"

	"repro/internal/ids"
)

// TestRelearnAsksOncePerWindow: p1 accepted R instances that p0 and p2
// decided, then crashes and recovers with their acceptor cells and no
// decision. Its recovery learns all R again from the peers' mDecideMulti
// replies, and asks each peer at most ⌈R/16⌉ times: one decide request per
// window of instances, not one per instance, and no prepare at all.
func TestRelearnAsksOncePerWindow(t *testing.T) {
	const r = 40
	s := newScriptedSim(t, simOptions{})
	for k := range uint64(r) {
		s.propose(0, k, val(0, k))
		s.awaitDecided(t, k, val(0, k), 0, 1, 2)
	}
	s.Settle(10 * ms)
	for k := range uint64(r) {
		if _, ok := s.onDisk(1, cellAcceptor, k); !ok {
			t.Fatalf("p1 logged no acceptor cell for instance %d", k)
		}
	}

	s.crash(1)
	since := len(s.trace)
	s.recover(1)
	s.Await(t, "p1 learned every instance again", func() bool {
		for k := range uint64(r) {
			if _, ok := s.decided(1, k); !ok {
				return false
			}
		}
		return true
	})
	for k := range uint64(r) {
		if got, _ := s.decided(1, k); string(got) != string(val(0, k)) {
			t.Fatalf("p1 learned %q for instance %d, want %q", got, k, val(0, k))
		}
	}
	if n := len(s.sent(1, mPrepare, 0, since)); n > 0 {
		t.Fatalf("p1 sent %d prepares to learn what its peers decided", n)
	}
	for _, q := range []ids.ProcessID{0, 2} {
		asked := 0
		for _, st := range s.trace[since:] {
			if st.pid == 1 && st.op == opSend && st.msg.kind == mDecideReq && (st.from == ids.Nobody || st.from == q) {
				asked++
			}
		}
		if limit := (r + 15) / 16; asked > limit {
			t.Fatalf("p1 asked p%d %d times for %d instances, want at most %d", q, asked, r, limit)
		}
	}
	if n := s.received(1, mDecideMulti, 0, since); n == 0 {
		t.Fatal("p1 received no mDecideMulti reply")
	}
}

// TestRecoveredAcceptorsDecideWithoutAProposal: p1 and p2 accept p0's
// value, sent beside a proposal write that never landed (as at a lease
// ballot), and all three crash; p0 stays down. No process knows a
// decision, and neither p1 nor p2 has a proposal: after their grace waits
// they coordinate classic ballots, whose phase 1 finds the accepted value,
// and decide it.
func TestRecoveredAcceptorsDecideWithoutAProposal(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	v := []byte("accepted, never logged as a proposal")
	b := s.procs[0].m.ballotFor(0)
	s.oracle.Proposed(0, v)
	if err := s.oracle.Accept(0, b, v, true); err != nil {
		t.Fatal(err)
	}
	frame := message{kind: mAccept, k: 0, b: b, val: v}.encode()
	for _, to := range []ids.ProcessID{1, 2} {
		s.Frame(s.Now+ms, 0, to, frame)
	}
	s.Await(t, "p1 and p2 accepted the value durably", func() bool {
		return hasAccepted(s, 1, v) && hasAccepted(s, 2, v)
	})
	for p := range ids.ProcessID(3) {
		s.crash(p)
	}
	s.recover(1)
	s.recover(2)
	for _, p := range []ids.ProcessID{1, 2} {
		if in := s.procs[p].m.insts[0]; in.hasProp || !in.hasAcc {
			t.Fatalf("p%d recovered a proposal, or no accepted value", p)
		}
	}
	s.awaitDecided(t, 0, v, 1, 2)
	if n := len(s.sent(1, mPrepare, 0, 0)) + len(s.sent(2, mPrepare, 0, 0)); n == 0 {
		t.Fatal("the instance decided without a ballot")
	}
}
