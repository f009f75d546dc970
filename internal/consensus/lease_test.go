package consensus

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/storage"
	"repro/internal/transport"
)

// newLeaseCluster is newTestCluster under PolicyLeader (whose engines run
// the stable-sequencer lease) with the given lease TTL.
func newLeaseCluster(t *testing.T, n int, netOpts transport.MemOptions, ttl time.Duration) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:   t,
		net: transport.NewMem(n, netOpts),
		cfg: Config{
			N:        n,
			Policy:   PolicyLeader,
			RetryMin: 3 * time.Millisecond,
			RetryMax: 40 * time.Millisecond,
			LeaseTTL: ttl,
		},
	}
	t.Cleanup(tc.net.Close)
	for p := 0; p < n; p++ {
		tc.procs = append(tc.procs, &testProc{
			pid:   ids.ProcessID(p),
			store: storage.NewMem(),
		})
	}
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	return tc
}

// decideFrom drives instances [from, to) from a single proposer and
// checks all live processes decide the same value for each.
func decideFrom(tc *testCluster, proposer int, from, to uint64) {
	tc.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := from; k < to; k++ {
		if err := tc.procs[proposer].eng.Propose(k, val(proposer, k)); err != nil {
			tc.t.Fatalf("propose %d: %v", k, err)
		}
		var first []byte
		for p, pr := range tc.procs {
			if pr.eng == nil {
				continue
			}
			got, err := pr.eng.WaitDecided(ctx, k)
			if err != nil {
				tc.t.Fatalf("p%d wait %d: %v", p, k, err)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				tc.t.Fatalf("agreement violated at %d: %q vs %q", k, first, got)
			}
		}
		if !bytes.Equal(first, val(proposer, k)) {
			tc.t.Fatalf("instance %d decided %q, want the sole proposal %q", k, first, val(proposer, k))
		}
	}
}

// decideUntilHeld drives instances from `from` on one proposer until it
// holds a lease, and returns the next undriven instance. A decided round
// sends one lease request, which can lose the race with the next instance's
// prepare and then waits out a retry cooldown longer than a handful of
// in-memory rounds; so the tests wait for the acquisition, round by round,
// instead of assuming it lands within a fixed count.
func decideUntilHeld(tc *testCluster, proposer int, from uint64) uint64 {
	tc.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	k := from
	for !tc.procs[proposer].eng.LeaseStats().Held {
		if ctx.Err() != nil {
			tc.t.Fatalf("stable proposer never acquired a lease in %d rounds: %+v",
				k-from, tc.procs[proposer].eng.LeaseStats())
		}
		decideFrom(tc, proposer, k, k+1)
		k++
	}
	return k
}

// TestLeaseFastRoundsSkipPrepare: with a stable proposer, the lease turns
// the steady state into accept-phase-only rounds. The first instances run
// full consensus and piggyback the lease acquisition; once it is held,
// instances from the same proposer must decide without a prepare phase,
// which the FastRounds counter certifies.
func TestLeaseFastRoundsSkipPrepare(t *testing.T) {
	tc := newLeaseCluster(t, 3, transport.MemOptions{Seed: 3}, time.Second)
	defer tc.stopAll()

	const rounds = 30
	k := decideUntilHeld(tc, 0, 0)
	before := tc.procs[0].eng.LeaseStats()
	decideFrom(tc, 0, k, k+rounds)

	ls := tc.procs[0].eng.LeaseStats()
	if fast := ls.FastRounds - before.FastRounds; fast < rounds/2 {
		t.Fatalf("lease held but fast path barely used: %d fast of %d rounds (%+v)", fast, rounds, ls)
	}
	if !ls.Held {
		t.Fatalf("lease dropped on a calm network: %+v", ls)
	}
}

// TestLeaseRevokeFallsBackToFullConsensus: an explicit revocation (the
// suspicion-burst hook the soaks use) must force the next round through
// full consensus — and the proposer then re-acquires and returns to the
// fast path. Correctness is unaffected throughout.
func TestLeaseRevokeFallsBackToFullConsensus(t *testing.T) {
	tc := newLeaseCluster(t, 3, transport.MemOptions{Seed: 5}, time.Second)
	defer tc.stopAll()

	const rounds = 10
	k := decideUntilHeld(tc, 0, 0)
	decideFrom(tc, 0, k, k+rounds)
	before := tc.procs[0].eng.LeaseStats()
	if before.FastRounds == 0 {
		t.Fatalf("precondition: fast path never engaged: %+v", before)
	}

	tc.procs[0].eng.RevokeLease()
	if ls := tc.procs[0].eng.LeaseStats(); ls.Held {
		t.Fatalf("lease still held after revoke: %+v", ls)
	}

	k = decideUntilHeld(tc, 0, k+rounds)
	reacquired := tc.procs[0].eng.LeaseStats()
	decideFrom(tc, 0, k, k+rounds)
	after := tc.procs[0].eng.LeaseStats()
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
// lose to any higher classic ballot.
func TestLeaseSafeUnderContention(t *testing.T) {
	tc := newLeaseCluster(t, 3, transport.MemOptions{
		Seed:     17,
		Loss:     0.10,
		Dup:      0.05,
		MaxDelay: 2 * time.Millisecond,
	}, 200*time.Millisecond)
	defer tc.stopAll()

	const rounds = 25
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for k := uint64(0); k < rounds; k++ {
		for p, pr := range tc.procs {
			if err := pr.eng.Propose(k, val(p, k)); err != nil {
				t.Fatalf("p%d propose %d: %v", p, k, err)
			}
		}
		var first []byte
		for p, pr := range tc.procs {
			got, err := pr.eng.WaitDecided(ctx, k)
			if err != nil {
				t.Fatalf("p%d wait %d: %v", p, k, err)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Fatalf("agreement violated at %d: %q vs %q", k, first, got)
			}
		}
		valid := false
		for p := range tc.procs {
			if bytes.Equal(first, val(p, k)) {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("instance %d decided %q, never proposed", k, first)
		}
	}
}

// TestLeaseSurvivesHolderCrash: the lease itself is volatile holder
// state, but acceptor grants are durable. After the leaseholder crashes
// and recovers with a new incarnation, liveness must resume: the
// recovered process (or another) decides further instances, and earlier
// decisions are intact.
func TestLeaseSurvivesHolderCrash(t *testing.T) {
	tc := newLeaseCluster(t, 3, transport.MemOptions{Seed: 23}, time.Second)
	defer tc.stopAll()

	decideFrom(tc, 0, 0, 8)

	tc.crash(0)
	time.Sleep(40 * time.Millisecond) // let suspicion fire
	tc.start(0, 2)

	// A fresh incarnation holds no lease — it must re-run full consensus
	// (or re-acquire) yet still decide, and old decisions must replay.
	decideFrom(tc, 0, 8, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := tc.procs[0].eng.WaitDecided(ctx, 3)
	if err != nil {
		t.Fatalf("recovered process lost instance 3: %v", err)
	}
	if !bytes.Equal(got, val(0, 3)) {
		t.Fatalf("instance 3 changed across crash: %q", got)
	}
}

// leaseOf reads the holder side of e's lease.
func leaseOf(e *Engine) (b, from uint64, held bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leaseB, e.leaseFrom, e.leaseHeld
}

// grantOf reads the acceptor side of e's lease.
func grantOf(e *Engine) (b uint64, held bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.grantB, e.grantHeld
}

// leaseTarget is the instance the crash-window tests hold the holder's
// proposal write of: far past any instance decideUntilHeld reaches, and
// covered by any lease it acquires.
const leaseTarget = 1000

func isTargetProposal(key string) bool { return key == propKey(leaseTarget) }

// TestLeaseAcceptBesideProposalLog: under a held lease the holder's round
// is its proposal write beside one accept round trip. With the write held,
// mAccept at the lease ballot is on the wire and all three processes
// decide the holder's value; the proposal becomes durable only afterwards.
func TestLeaseAcceptBesideProposalLog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	held := storage.NewHeld(isTargetProposal)
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 41},
		[]storage.Stable{held, storage.NewMem(), storage.NewMem()})
	var besideWrite atomic.Bool
	tap := newWireTap()
	tap.onSend = func(m message) {
		if m.kind == mAccept && m.k == leaseTarget && held.Pending(isTargetProposal) == 1 {
			besideWrite.Store(true)
		}
	}
	tc.procs[0].tap = tap
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	defer tc.stopAll()

	if k := decideUntilHeld(tc, 0, 0); k >= leaseTarget {
		t.Fatalf("lease acquired only at instance %d", k)
	}
	b, _, _ := leaseOf(tc.procs[0].eng)
	before := tc.procs[0].eng.LeaseStats()
	v := []byte("beside-the-proposal-log")
	if err := tc.procs[0].eng.Propose(leaseTarget, v); err != nil {
		t.Fatal(err)
	}
	waitAll(t, ctx, tc, leaseTarget, v, 0, 1, 2)
	if !besideWrite.Load() {
		t.Fatal("no mAccept left while the proposal write was held")
	}
	for _, m := range tap.sentKind(mAccept, leaseTarget) {
		if m.b != b {
			t.Fatalf("mAccept at ballot %d, want the lease ballot %d", m.b, b)
		}
	}
	if len(tap.sentKind(mPrepare, leaseTarget)) != 0 {
		t.Fatal("the holder ran phase 1")
	}
	if after := tc.procs[0].eng.LeaseStats(); after.FastRounds != before.FastRounds+1 {
		t.Fatalf("fast rounds %d -> %d, want one more", before.FastRounds, after.FastRounds)
	}
	if n := held.Pending(isTargetProposal); n != 1 {
		t.Fatalf("%d proposal writes held after the decision, want 1", n)
	}
	if _, ok := tc.procs[0].eng.Proposal(leaseTarget); ok {
		t.Fatal("Proposal reports a value whose write is not durable")
	}
	held.Release(isTargetProposal)
	if got, ok := tc.procs[0].eng.Proposal(leaseTarget); !ok || !bytes.Equal(got, v) {
		t.Fatalf("Proposal after release = %q, %v", got, ok)
	}
}

// TestLeaseBallotNeverReusedAfterCrash: the holder's accept at its lease
// ballot b reaches p1 alone, and the holder crashes before its proposal
// write lands, so it comes back with no memory of the value it sent. The
// lease ballot is then closed to it: a lease request at b is refused and a
// prepare at b is nacked, each by a majority — so the different value it
// proposes next can never appear at b, and exactly one value is decided.
func TestLeaseBallotNeverReusedAfterCrash(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	held := storage.NewHeld(isTargetProposal)
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 43},
		[]storage.Stable{held, storage.NewMem(), storage.NewMem()})
	tap := newWireTap()
	tap.n = len(tc.procs)
	tap.drop = func(to ids.ProcessID, m message) bool {
		return m.kind == mAccept && m.k == leaseTarget && to != 1
	}
	tc.procs[0].tap = tap
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	defer tc.stopAll()

	if k := decideUntilHeld(tc, 0, 0); k >= leaseTarget {
		t.Fatalf("lease acquired only at instance %d", k)
	}
	b, from, _ := leaseOf(tc.procs[0].eng)
	first := []byte("sent-at-the-lease-ballot")
	if err := tc.procs[0].eng.Propose(leaseTarget, first); err != nil {
		t.Fatal(err)
	}
	tap.awaitHandled(t, ctx, mAccepted, leaseTarget, 1) // p1's cell holds (b, first)
	if sent := tap.sentKind(mAccept, leaseTarget); len(sent) == 0 || sent[0].b != b {
		t.Fatalf("mAccept frames %+v, want one at the lease ballot %d", sent, b)
	}

	tc.crash(0)
	held.Crash()
	if _, ok, _ := held.Get(propKey(leaseTarget)); ok {
		t.Fatal("the proposal write survived the crash")
	}
	tap = newWireTap()
	tc.procs[0].tap = tap
	tc.start(0, 2)
	if _, ok := tc.procs[0].eng.Proposal(leaseTarget); ok {
		t.Fatal("the recovered holder found a proposal")
	}

	// Whatever the recovered holder might try at b is refused by a majority.
	tap.Net.Multisend(message{kind: mLeaseReq, k: from, b: b}.encode())
	tap.awaitHandled(t, ctx, mLeaseNack, from, Quorum(len(tc.procs)))
	tap.Net.Multisend(message{kind: mPrepare, k: leaseTarget, b: b}.encode())
	tap.awaitHandled(t, ctx, mNack, leaseTarget, Quorum(len(tc.procs)))

	second := []byte("proposed-after-recovery")
	if err := tc.procs[0].eng.Propose(leaseTarget, second); err != nil {
		t.Fatal(err)
	}
	got, err := tc.procs[0].eng.WaitDecided(ctx, leaseTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) && !bytes.Equal(got, second) {
		t.Fatalf("decided %q, never proposed", got)
	}
	waitAll(t, ctx, tc, leaseTarget, got, 0, 1, 2)
	for _, m := range tap.sentKind(mAccept, leaseTarget) {
		if m.b <= b {
			t.Fatalf("the recovered holder sent mAccept at ballot %d <= the old lease ballot %d", m.b, b)
		}
	}
}

// TestNonHolderDefersProposalLog: while p0 holds a lease p1 granted, p1's
// proposals cost it no log write — p0's value is the only one choosable,
// and p1 never coordinates — yet once p0 is down, p1 logs its deferred
// proposal as it takes over and decides it.
func TestNonHolderDefersProposalLog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	accts := []*storage.Accounted{
		storage.NewAccounted(storage.NewMem()),
		storage.NewAccounted(storage.NewMem()),
		storage.NewAccounted(storage.NewMem()),
	}
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 47},
		[]storage.Stable{accts[0], accts[1], accts[2]})
	// A learner coordinates anyway after graceWaits idle waits of about
	// RetryMin each; keep that far beyond a fast round.
	tc.cfg.RetryMin = tc.cfg.RetryMax
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	defer tc.stopAll()

	// Until p1 has granted the lease p0 holds (a request can lose the race
	// with the next round's prepare; revoking makes p0 ask again).
	k := uint64(0)
	for {
		k = decideUntilHeld(tc, 0, k)
		b, _, held := leaseOf(tc.procs[0].eng)
		if g, ok := grantOf(tc.procs[1].eng); held && ok && g == b {
			break
		}
		tc.procs[0].eng.RevokeLease()
	}

	propCells := func(p int) []string {
		keys, err := accts[p].List("cons/p/")
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	logged := len(propCells(1))
	puts1, puts2 := accts[1].Layer("cons").PutOps, accts[2].Layer("cons").PutOps
	for end := k + 5; k < end; k++ {
		// p1 first: its proposal exists before p0's round decides.
		if err := tc.procs[1].eng.Propose(k, val(1, k)); err != nil {
			t.Fatal(err)
		}
		if err := tc.procs[0].eng.Propose(k, val(0, k)); err != nil {
			t.Fatal(err)
		}
		waitAll(t, ctx, tc, k, val(0, k), 0, 1, 2)
	}
	if got := propCells(1); len(got) != logged {
		t.Fatalf("p1 logged proposals under p0's lease: %v", got)
	}
	d1 := accts[1].Layer("cons").PutOps - puts1
	d2 := accts[2].Layer("cons").PutOps - puts2
	if d1 != d2 {
		t.Fatalf("p1 (proposing) wrote %d consensus cells, p2 (not proposing) %d", d1, d2)
	}

	tc.crash(0)
	if err := tc.procs[1].eng.Propose(k, val(1, k)); err != nil {
		t.Fatal(err)
	}
	waitAll(t, ctx, tc, k, val(1, k), 1, 2)
	if got := propCells(1); len(got) != logged+1 || got[len(got)-1] != propKey(k) {
		t.Fatalf("p1's proposal cells after taking over: %v, want %d then %s", got, logged, propKey(k))
	}
}
