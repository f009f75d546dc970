package consensus

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/storage"
	"repro/internal/transport"
)

// newLeaseCluster is newTestCluster with the stable-sequencer lease on
// (PolicyLeader, as the lease requires a stable proposer to pay off).
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
			Lease:    true,
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
