package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/wire"
)

// startTestProtocol builds and starts a protocol over the fakes, cleaning
// up with the test.
func startTestProtocol(t *testing.T, cfg Config) (*Protocol, *fakeCons) {
	t.Helper()
	p, _, cons := newTestProtocol(cfg)
	if err := p.Start(context.Background()); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(p.Stop)
	return p, cons
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func proposalBatch(t *testing.T, cons *fakeCons, k uint64) []msg.Message {
	t.Helper()
	raw, ok := cons.Proposal(k)
	if !ok {
		t.Fatalf("no proposal for round %d", k)
	}
	r := wire.NewReader(raw)
	batch := msg.DecodeBatch(r)
	if r.Err() != nil {
		t.Fatalf("corrupt proposal %d", k)
	}
	return batch
}

// TestPipelineProposesAheadOfCommit is the core pipelining property: with
// depth > 1 the sequencer proposes round 1 while round 0's decision is
// still outstanding, and round 1's proposal excludes the messages already
// in flight in round 0.
func TestPipelineProposesAheadOfCommit(t *testing.T) {
	p, cons := startTestProtocol(t, Config{PipelineDepth: 3})

	id0, err := p.BroadcastAsync([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "round 0 proposal", func() bool {
		_, ok := cons.Proposal(0)
		return ok
	})

	// Round 0 is undecided; a new message must still be proposed (round 1).
	id1, err := p.BroadcastAsync([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "round 1 proposal", func() bool {
		_, ok := cons.Proposal(1)
		return ok
	})

	b0 := proposalBatch(t, cons, 0)
	if len(b0) != 1 || b0[0].ID != id0 {
		t.Fatalf("round 0 batch = %v, want [%v]", b0, id0)
	}
	b1 := proposalBatch(t, cons, 1)
	if len(b1) != 1 || b1[0].ID != id1 {
		t.Fatalf("round 1 batch = %v, want only %v (in-flight excluded)", b1, id1)
	}

	cons.decide(0, b0)
	cons.decide(1, b1)
	waitFor(t, 2*time.Second, "both rounds committed", func() bool {
		return p.Round() >= 2
	})
	_, seq := p.Sequence()
	if len(seq) != 2 || seq[0].Msg.ID != id0 || seq[1].Msg.ID != id1 {
		t.Fatalf("delivery sequence = %v", seq)
	}
	if st := p.Stats(); st.PipelinedProposals == 0 {
		t.Fatal("expected at least one pipelined proposal")
	}
}

// TestPipelineCommitsInOrder: a decision for round 1 arriving before round
// 0's must not be delivered early — commits are strictly in round order.
func TestPipelineCommitsInOrder(t *testing.T) {
	p, cons := startTestProtocol(t, Config{PipelineDepth: 2})

	id0, _ := p.BroadcastAsync([]byte("first"))
	waitFor(t, 2*time.Second, "round 0 proposal", func() bool {
		_, ok := cons.Proposal(0)
		return ok
	})
	id1, _ := p.BroadcastAsync([]byte("second"))
	waitFor(t, 2*time.Second, "round 1 proposal", func() bool {
		_, ok := cons.Proposal(1)
		return ok
	})

	// Decide round 1 first: nothing may be delivered yet.
	cons.decide(1, proposalBatch(t, cons, 1))
	time.Sleep(30 * time.Millisecond)
	if k := p.Round(); k != 0 {
		t.Fatalf("round advanced to %d without round 0's decision", k)
	}
	if p.Delivered(id1) {
		t.Fatal("round 1 delivered before round 0")
	}

	cons.decide(0, proposalBatch(t, cons, 0))
	waitFor(t, 2*time.Second, "in-order commit of both rounds", func() bool {
		return p.Round() >= 2
	})
	_, seq := p.Sequence()
	if len(seq) != 2 || seq[0].Msg.ID != id0 || seq[1].Msg.ID != id1 {
		t.Fatalf("delivery sequence = %v, want [%v %v]", seq, id0, id1)
	}
}

// TestAdaptiveBatchTimeTrigger: with MaxBatchDelay set, a lone message is
// held back (aggregating load) and proposed only once the delay expires.
func TestAdaptiveBatchTimeTrigger(t *testing.T) {
	p, cons := startTestProtocol(t, Config{
		MaxBatchDelay: 120 * time.Millisecond,
		MaxBatchBytes: 1 << 20,
	})

	if _, err := p.BroadcastAsync([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if _, ok := cons.Proposal(0); ok {
		t.Fatal("batch proposed before the time trigger")
	}
	// A second message rides in the same held-back batch.
	if _, err := p.BroadcastAsync([]byte("rider")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "time-triggered proposal", func() bool {
		_, ok := cons.Proposal(0)
		return ok
	})
	if got := len(proposalBatch(t, cons, 0)); got != 2 {
		t.Fatalf("aggregated batch size = %d, want 2", got)
	}
}

// TestAdaptiveBatchSizeTrigger: a batch reaching MaxBatchBytes is full and
// proposed immediately, overriding a long MaxBatchDelay.
func TestAdaptiveBatchSizeTrigger(t *testing.T) {
	p, cons := startTestProtocol(t, Config{
		MaxBatchDelay: 10 * time.Second,
		MaxBatchBytes: 64,
	})

	payload := make([]byte, 40)
	if _, err := p.BroadcastAsync(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BroadcastAsync(payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "size-triggered proposal", func() bool {
		_, ok := cons.Proposal(0)
		return ok
	})
}

// TestBatchScratchKeepsNoStaleMessage: assembleBatch reuses one slice for
// the pending set; a pass that finds fewer pending messages than the last
// must not leave the last pass's messages (and their payloads) reachable
// behind its own.
func TestBatchScratchKeepsNoStaleMessage(t *testing.T) {
	p, _, _ := newTestProtocol(Config{PipelineDepth: 2})
	for i := 0; i < 5; i++ {
		if _, err := p.BroadcastAsync(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if batch, _, ok := p.m.assembleBatch(0); !ok || len(batch) != 5 {
		t.Fatalf("round 0: batch of %d, ok=%v, want all 5 messages", len(batch), ok)
	}
	// All five are in flight in round 0: round 1 has nothing pending.
	if batch, _, ok := p.m.assembleBatch(1); ok || len(batch) != 0 {
		t.Fatalf("round 1: batch of %d, ok=%v, want nothing to propose", len(batch), ok)
	}
	for i, m := range p.m.batchScratch[:cap(p.m.batchScratch)] {
		if m.Payload != nil {
			t.Fatalf("scratch[%d] still holds %v after a pass that used none of it", i, m.ID)
		}
	}
}

// TestPipelineReproposesLostMessages: when a round decides a competing
// batch, our in-flight messages return to the pending pool and are
// re-proposed in a later round — the liveness half of in-flight exclusion.
func TestPipelineReproposesLostMessages(t *testing.T) {
	p, cons := startTestProtocol(t, Config{PipelineDepth: 2})

	mine, _ := p.BroadcastAsync([]byte("mine"))
	waitFor(t, 2*time.Second, "round 0 proposal", func() bool {
		_, ok := cons.Proposal(0)
		return ok
	})
	// Round 0 decides another process's batch, not containing our message.
	theirs := m(2, 1, 1)
	cons.decide(0, []msg.Message{theirs})
	waitFor(t, 2*time.Second, "round 0 commit", func() bool {
		return p.Round() >= 1
	})
	// Our message must be proposed again in a later round and delivered.
	waitFor(t, 2*time.Second, "re-proposal of the lost message", func() bool {
		for k := uint64(1); k < 8; k++ {
			raw, ok := cons.Proposal(k)
			if !ok {
				continue
			}
			batch := msg.DecodeBatch(wire.NewReader(raw))
			for _, mm := range batch {
				if mm.ID == mine {
					cons.decide(k, batch)
					return true
				}
			}
		}
		return false
	})
	waitFor(t, 2*time.Second, "delivery of the re-proposed message", func() bool {
		return p.Delivered(mine)
	})
}
