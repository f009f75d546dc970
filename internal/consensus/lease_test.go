package consensus

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ids"
)

// newLeaseSim is a scripted simulator under PolicyLeader (whose machines
// run the stable-sequencer lease) with the given lease TTL.
func newLeaseSim(t *testing.T, ttl time.Duration) *sim {
	return newScriptedSim(t, simOptions{retryMin: 3 * time.Millisecond, retryMax: 40 * time.Millisecond, leaseTTL: ttl})
}

// decideFrom has proposer propose instances [from, to), one after the
// other, each decided by every live process as the sole proposal.
func (s *sim) decideFrom(t *testing.T, proposer ids.ProcessID, from, to uint64) {
	t.Helper()
	var up []ids.ProcessID
	for _, p := range s.procs {
		if p.m != nil {
			up = append(up, p.pid)
		}
	}
	for k := from; k < to; k++ {
		s.propose(proposer, k, val(int(proposer), k))
		s.awaitDecided(t, k, val(int(proposer), k), up...)
	}
}

// leaseStats is pid's Engine.LeaseStats.
func (s *sim) leaseStats(pid ids.ProcessID) LeaseStats {
	m := s.procs[pid].m
	ls := m.leaseStats
	ls.Held = m.leaseHeld
	return ls
}

// TestLeaseFastRoundsSkipPrepare: with a stable proposer, the lease turns
// the steady state into accept-phase-only rounds. The first instances run
// full consensus and piggyback the lease acquisition; once it is held,
// instances from the same proposer must decide without a prepare phase,
// which the FastRounds counter certifies.
func TestLeaseFastRoundsSkipPrepare(t *testing.T) {
	s := newLeaseSim(t, time.Second)
	const rounds = 30
	k := s.decideUntilHeld(t, 0)
	before := s.leaseStats(0)
	since := len(s.trace)
	s.decideFrom(t, 0, k, k+rounds)

	ls := s.leaseStats(0)
	if fast := ls.FastRounds - before.FastRounds; fast < rounds/2 {
		t.Fatalf("lease held but fast path barely used: %d fast of %d rounds (%+v)", fast, rounds, ls)
	}
	if !ls.Held {
		t.Fatalf("lease dropped on a calm network: %+v", ls)
	}
	for kk := k; kk < k+rounds; kk++ {
		if len(s.sent(0, mPrepare, kk, since)) != 0 {
			t.Fatalf("instance %d ran a prepare under the lease", kk)
		}
	}
}

// TestLeaseRevokeFallsBackToFullConsensus: a revocation must force the
// next round through full consensus — and the proposer then re-acquires
// and returns to the fast path. Correctness is unaffected throughout.
func TestLeaseRevokeFallsBackToFullConsensus(t *testing.T) {
	s := newLeaseSim(t, time.Second)
	const rounds = 10
	k := s.decideUntilHeld(t, 0)
	s.decideFrom(t, 0, k, k+rounds)
	before := s.leaseStats(0)
	if before.FastRounds == 0 {
		t.Fatalf("precondition: fast path never engaged: %+v", before)
	}

	s.revokeLease(0)
	if ls := s.leaseStats(0); ls.Held {
		t.Fatalf("lease still held after revoke: %+v", ls)
	}

	since := len(s.trace)
	k = s.decideUntilHeld(t, k+rounds)
	if len(s.sent(0, mPrepare, k-1, since)) == 0 {
		t.Fatalf("instance %d after the revoke ran no prepare", k-1)
	}
	reacquired := s.leaseStats(0)
	s.decideFrom(t, 0, k, k+rounds)
	after := s.leaseStats(0)
	if after.Fallbacks <= before.Fallbacks {
		t.Fatalf("revocation not recorded as a fallback: before=%+v after=%+v", before, after)
	}
	if after.Acquired <= before.Acquired {
		t.Fatalf("proposer never re-acquired after revoke: before=%+v after=%+v", before, after)
	}
	if after.FastRounds <= reacquired.FastRounds {
		t.Fatalf("fast path never resumed after re-acquisition: reacquired=%+v after=%+v", reacquired, after)
	}
}

// TestLeaseSafeUnderContention: the lease is an optimization, never a
// correctness lever. With every process proposing every instance over a
// lossy, reordering network, agreement and validity must hold exactly as
// without the lease — acceptor-side grant bounds make a stale leaseholder
// lose to any higher classic ballot. The oracle checks both.
func TestLeaseSafeUnderContention(t *testing.T) {
	s := newLeaseSim(t, 200*time.Millisecond)
	s.Loss, s.Dup, s.Delay = 0.10, 0.05, [2]int64{0, 2 * ms}
	const rounds = 25
	for k := uint64(0); k < rounds; k++ {
		for p := range s.procs {
			s.propose(ids.ProcessID(p), k, val(p, k))
		}
		s.awaitAll(t, k+1)
	}
}

// TestLeaseSurvivesHolderCrash: the lease itself is volatile holder
// state, but acceptor grants are durable. After the leaseholder crashes
// and recovers with a new incarnation, liveness must resume: the
// recovered process (or another) decides further instances, and earlier
// decisions are intact.
func TestLeaseSurvivesHolderCrash(t *testing.T) {
	s := newLeaseSim(t, time.Second)
	s.decideFrom(t, 0, 0, 8)

	s.crash(0)
	s.suspect(0, true)
	s.Settle(40 * ms)
	s.recover(0)
	s.suspect(0, false)

	// A fresh incarnation holds no lease — it must re-run full consensus
	// (or re-acquire) yet still decide, and old decisions must replay.
	s.decideFrom(t, 0, 8, 16)
	s.learn(0, 3)
	s.awaitDecided(t, 3, val(0, 3), 0)
}

// leaseTarget is the instance the crash-window schedules hold the holder's
// proposal write of: far past any instance decideUntilHeld reaches, and
// covered by any lease it acquires.
const leaseTarget = 1000

// TestLeaseAcceptBesideProposalLog: under a held lease the holder's round
// is its proposal write beside one accept round trip. With the write held,
// mAccept at the lease ballot is on the wire and all three processes
// decide the holder's value; the proposal becomes durable only afterwards.
func TestLeaseAcceptBesideProposalLog(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.procs[0].hold = isCell(cellProposal, leaseTarget)
	s.decideUntilHeld(t, 0)
	m := s.procs[0].m
	b, before := m.leaseB, m.leaseStats
	since := len(s.trace)
	v := []byte("beside-the-proposal-log")
	s.propose(0, leaseTarget, v)
	s.awaitDecided(t, leaseTarget, v, 0, 1, 2)

	sent := s.sent(0, mAccept, leaseTarget, since)
	if len(sent) == 0 || s.heldWrites(0, isCell(cellProposal, leaseTarget)) != 1 {
		t.Fatalf("%d mAccept sent, want them beside the held proposal write", len(sent))
	}
	for _, msg := range sent {
		if msg.b != b {
			t.Fatalf("mAccept at ballot %d, want the lease ballot %d", msg.b, b)
		}
	}
	if len(s.sent(0, mPrepare, leaseTarget, since)) != 0 {
		t.Fatal("the holder ran phase 1")
	}
	if after := m.leaseStats; after.FastRounds != before.FastRounds+1 {
		t.Fatalf("fast rounds %d -> %d, want one more", before.FastRounds, after.FastRounds)
	}
	if m.insts[leaseTarget].hasProp {
		t.Fatal("the holder reports a proposal whose write is not durable")
	}
	s.release(0, isCell(cellProposal, leaseTarget))
	s.Await(t, "the proposal durable", func() bool { return m.insts[leaseTarget].hasProp })
}

// TestLeaseBallotNeverReusedAfterCrash: the holder's accept at its lease
// ballot b reaches p1 alone, and the holder crashes before its proposal
// write lands, so it comes back with no memory of the value it sent. The
// lease ballot is then closed to it: a lease request at b is refused and a
// prepare at b is nacked, each by a majority — so the different value it
// proposes next can never appear at b (the oracle checks that no two values
// are sent at one ballot), and exactly one value is decided.
func TestLeaseBallotNeverReusedAfterCrash(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	s.procs[0].hold = isCell(cellProposal, leaseTarget)
	s.drop = func(from, to ids.ProcessID, m message) bool {
		return from == 0 && to != 1 && m.kind == mAccept && m.k == leaseTarget
	}
	s.decideUntilHeld(t, 0)
	b, from := s.procs[0].m.leaseB, s.procs[0].m.leaseFrom
	first := []byte("sent-at-the-lease-ballot")
	s.propose(0, leaseTarget, first)
	s.Await(t, "p1's mAccepted", func() bool { return s.received(0, mAccepted, leaseTarget, 0) >= 1 })
	if sent := s.sent(0, mAccept, leaseTarget, 0); len(sent) == 0 || sent[0].b != b {
		t.Fatalf("mAccept frames %+v, want one at the lease ballot %d", sent, b)
	}

	s.crash(0)
	s.drop = nil
	if _, ok := s.onDisk(0, cellProposal, leaseTarget); ok {
		t.Fatal("the proposal write survived the crash")
	}
	s.recover(0)
	since := len(s.trace)
	if in, ok := s.procs[0].m.insts[leaseTarget]; ok && in.hasProp {
		t.Fatal("the recovered holder found a proposal")
	}

	// Whatever the recovered holder might try at b is refused by a majority.
	s.inject(0, message{kind: mLeaseReq, k: from, b: b})
	s.Await(t, "a majority refusing the lease at b", func() bool {
		return s.received(0, mLeaseNack, from, since) >= Quorum(3)
	})
	s.inject(0, message{kind: mPrepare, k: leaseTarget, b: b})
	s.Await(t, "a majority refusing a prepare at b", func() bool {
		return s.received(0, mNack, leaseTarget, since) >= Quorum(3)
	})

	second := []byte("proposed-after-recovery")
	s.propose(0, leaseTarget, second)
	s.Await(t, "p0 decides", func() bool { _, ok := s.decided(0, leaseTarget); return ok })
	got, _ := s.decided(0, leaseTarget)
	if !bytes.Equal(got, first) && !bytes.Equal(got, second) {
		t.Fatalf("decided %q, never proposed", got)
	}
	s.learn(1, leaseTarget)
	s.learn(2, leaseTarget)
	s.awaitDecided(t, leaseTarget, got, 0, 1, 2)
	for _, msg := range s.sent(0, mAccept, leaseTarget, since) {
		if msg.b <= b {
			t.Fatalf("the recovered holder sent mAccept at ballot %d <= the old lease ballot %d", msg.b, b)
		}
	}
}

// grantToP0 has p0 decide instances from `from` on until it holds a lease
// p1 granted; it returns the next instance. (A request can lose the race
// with the next round's prepare; revoking makes p0 ask again.)
func (s *sim) grantToP0(t *testing.T, from uint64) uint64 {
	t.Helper()
	k := from
	for {
		k = s.decideUntilHeld(t, k)
		if m1 := s.procs[1].m; m1.grantHeld && m1.grantB == s.procs[0].m.leaseB {
			return k
		}
		s.revokeLease(0)
	}
}

// wideVal is val(p, k) repeated past 1 KiB, a value the size of a batch.
func wideVal(p int, k uint64) []byte {
	v := val(p, k)
	return bytes.Repeat(v, 1<<10/len(v)+1)
}

// TestNonHolderDefersProposalLog: while p0 holds a lease p1 granted, p1's
// proposals cost it no log write — p0's value is the only one choosable,
// and p1 never coordinates — yet once p0 is down, p1 logs its deferred
// proposal as it takes over and decides it. The deferred value sits in a
// pooled buffer until then; what p1 logs, sends and decides is that value,
// byte for byte.
func TestNonHolderDefersProposalLog(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	k := s.grantToP0(t, 0)
	since := len(s.trace)
	for end := k + 5; k < end; k++ {
		// p1 first: its proposal exists before p0's round decides.
		s.propose(1, k, wideVal(1, k))
		s.propose(0, k, wideVal(0, k))
		s.awaitDecided(t, k, wideVal(0, k), 0, 1, 2)
	}
	if n := s.effects(1, opPut, cellProposal, since); n != 0 {
		t.Fatalf("p1 logged %d proposals under p0's lease", n)
	}
	if d1, d2 := s.effects(1, opPut, 0, since), s.effects(2, opPut, 0, since); d1 != d2 {
		t.Fatalf("p1 (proposing) wrote %d consensus cells, p2 (not proposing) %d", d1, d2)
	}

	since = len(s.trace)
	want := wideVal(1, k)
	s.propose(1, k, want)
	if in := s.procs[1].m.insts[k]; !in.propDeferred || in.pooled == nil {
		t.Fatalf("p1's proposal for %d is not deferred in a pooled buffer", k)
	}
	s.crash(0)
	s.suspect(0, true)
	s.awaitDecided(t, k, want, 1, 2)
	if n := s.effects(1, opPut, cellProposal, since); n != 1 {
		t.Fatalf("p1 logged %d proposals taking over, want 1", n)
	}
	if got, ok := s.onDisk(1, cellProposal, k); !ok || !bytes.Equal(got, want) {
		t.Fatalf("p1's durable proposal for %d (%d B, found %v) is not the value it proposed", k, len(got), ok)
	}
	accepts := s.sent(1, mAccept, k, since)
	if len(accepts) == 0 {
		t.Fatalf("p1 sent no accept for %d", k)
	}
	for _, msg := range accepts {
		if !bytes.Equal(msg.val, want) {
			t.Fatalf("p1 sent an accept for %d at ballot %d whose value is not the one it proposed", k, msg.b)
		}
	}
	if in := s.procs[1].m.insts[k]; in.pooled != nil {
		t.Fatalf("p1 still holds a pooled buffer for %d after logging it", k)
	}
}

// TestLeaseRefuserIsAskedAgain: an acceptor that got the holder's next
// classic round before its lease request refuses a lease the others grant;
// the holder asks it again after a fast round, past the instances it
// touched, so every acceptor comes to name the holder its sequencer.
func TestLeaseRefuserIsAskedAgain(t *testing.T) {
	s := newLeaseSim(t, time.Second)
	refuser := func() (ids.ProcessID, bool) {
		for _, p := range s.procs {
			if !p.m.grantHeld || p.m.grantB != s.procs[0].m.leaseB {
				return p.pid, true
			}
		}
		return 0, false
	}
	k := uint64(0)
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("no acceptor refused p0's lease in 50 acquisitions")
		}
		k = s.decideUntilHeld(t, k)
		s.Settle(5 * ms)
		if _, ok := refuser(); ok {
			break
		}
		s.revokeLease(0)
	}
	s.decideFrom(t, 0, k, k+3)
	s.Settle(5 * ms)
	if pid, ok := refuser(); ok {
		t.Fatalf("p%d still grants no lease to p0 (lease ballot %d), 3 fast rounds on", pid, s.procs[0].m.leaseB)
	}
}
