package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/ids"
)

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestBroadcastDeliversEverywhere(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 20*time.Second)

	id, err := c.Broadcast(ctx, 0, []byte("hello"))
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := c.AwaitDelivered(ctx, id, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyAll(0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTotalOrderManySendersParallel(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 101})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 60*time.Second)

	m, err := c.Run(ctx, harness.Workload{
		Senders:           []ids.ProcessID{0, 1, 2},
		MessagesPerSender: 30,
		Pipeline:          2,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if m.Errors > 0 {
		t.Fatalf("%d broadcast errors", m.Errors)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestBasicRecoveryReplaysFullHistory(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 7})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 30*time.Second)

	for i := 0; i < 10; i++ {
		if _, err := c.Broadcast(ctx, 0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	// Make sure p1 has participated in (hence logged proposals for) a few
	// rounds before crashing it.
	if err := c.AwaitRound(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}
	// Crash p1 and recover it: the basic protocol must rebuild Agreed by
	// replaying the logged Consensus instances.
	c.Crash(1)
	if _, err := c.Recover(1); err != nil {
		t.Fatalf("recover: %v", err)
	}
	st := c.Nodes[1].Proto().Stats()
	if st.ReplayedRounds == 0 {
		t.Fatalf("expected a non-trivial replay, got %d rounds", st.ReplayedRounds)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveringProcessCatchesUpViaGossip(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 21})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 60*time.Second)

	// p2 goes down; the others keep ordering messages (p2 never proposed
	// in those rounds). When p2 recovers, gossip tells it it lagged and
	// it proposes empty sets for the missed rounds.
	c.Crash(2)
	for i := 0; i < 8; i++ {
		if _, err := c.Broadcast(ctx, 0, []byte(fmt.Sprintf("while-down-%d", i))); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	if _, err := c.Recover(2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedSenderMessageStillDelivered(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 33})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 30*time.Second)

	// The sender's broadcast returns (it is in Agreed), then the sender
	// crashes for good. Termination clause 2: everyone else must still
	// deliver it (they already ordered it).
	id, err := c.Broadcast(ctx, 2, []byte("last words"))
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	if err := c.AwaitDelivered(ctx, id, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySafety(); err != nil {
		t.Fatal(err)
	}
}

// TestDecidedPayloadSurvivesWithoutItsSender pins Termination for the good
// processes when the only process that ever broadcast is down for good: p0
// broadcasts, every process crashes, and only p1 and p2 recover. A decided
// value carries its payloads, so the accept quorum's logs hold every
// ordered payload and the two survivors replay p0's messages and order new
// ones without it.
func TestDecidedPayloadSurvivesWithoutItsSender(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 2601})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 30*time.Second)

	for i := 0; i < 4; i++ {
		id, err := c.Broadcast(ctx, 0, []byte(fmt.Sprintf("from-p0-%d", i)))
		if err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
		if err := c.AwaitDelivered(ctx, id, 0, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	for p := ids.ProcessID(0); p < 3; p++ {
		c.Crash(p)
	}

	// p1 and p2 recover together (either replay may need the other's
	// vote); p0 stays down.
	errs := make(chan error, 2)
	for _, p := range []ids.ProcessID{1, 2} {
		go func() {
			_, err := c.Recover(p)
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("recover: %v", err)
		}
	}

	id, err := c.Broadcast(ctx, 1, []byte("from-p1"))
	if err != nil {
		t.Fatalf("broadcast at p1: %v", err)
	}
	if err := c.AwaitDelivered(ctx, id, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyAll(1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverySequencesArePrefixRelated(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 55})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 60*time.Second)

	if _, err := c.Run(ctx, harness.Workload{
		Senders:           []ids.ProcessID{0, 1, 2},
		MessagesPerSender: 15,
	}); err != nil {
		t.Fatal(err)
	}
	// Direct pairwise prefix check on the raw sequences. This is valid at
	// any instant (prefix-relatedness is an invariant, not a liveness
	// property), so no draining is needed before the snapshot.
	histories := make(map[ids.ProcessID][]ids.MsgID)
	for p := 0; p < 3; p++ {
		_, suffix := c.Nodes[p].Proto().Sequence()
		seq := make([]ids.MsgID, len(suffix))
		for i, d := range suffix {
			seq[i] = d.Msg.ID
		}
		histories[ids.ProcessID(p)] = seq
	}
	if err := check.VerifyPrefix(histories); err != nil {
		t.Fatal(err)
	}
	// Termination is a liveness property: drain before checking it.
	if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastWaitChannelsAreNotShared: Broadcast recycles its wait
// channel once it has received the one value the channel carries, while a
// cancelled call leaves its channel to the release still to come. With
// cancelled calls interleaved among many completed ones, every call that
// returns nil finds its own message delivered: none took another's release.
func TestBroadcastWaitChannelsAreNotShared(t *testing.T) {
	c := harness.NewCluster(harness.Options{N: 3, Seed: 7})
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 60*time.Second)
	p := c.Nodes[0].Proto()
	errs := make(chan error, 8*40)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				cctx, cancel := context.WithCancel(ctx)
				cancelled := (g+i)%4 == 0
				if cancelled && i%8 == 0 {
					cancel() // gone before the call waits
				} else if cancelled {
					time.AfterFunc(time.Duration(i)*20*time.Microsecond, cancel)
				}
				id, err := p.Broadcast(cctx, []byte{byte(g), byte(i)})
				cancel()
				switch {
				case err == nil && !p.Delivered(id):
					errs <- fmt.Errorf("Broadcast of %v returned before its delivery", id)
				case err != nil && !cancelled:
					errs <- fmt.Errorf("Broadcast of %v: %w", id, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
