package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/wire"
)

// TestFoldBelowRetainsRoundsAtOrAboveFloor: the merge-floor fold moves
// only the sub-floor prefix into the base; rounds at or above the floor
// keep their explicit per-round form (what a cross-group merge needs).
func TestFoldBelowRetainsRoundsAtOrAboveFloor(t *testing.T) {
	d := newDeliveryState()
	d.appendBatch(0, []msg.Message{m(0, 1, 1), m(1, 1, 1)})
	d.appendBatch(1, []msg.Message{m(0, 1, 2)})
	d.appendBatch(3, []msg.Message{m(1, 1, 2)}) // round 2 was empty

	d.foldPrefix([]byte("app"), d.cutBelow(2), 2)
	if d.base.Rounds != 2 || d.base.Pos != 3 || string(d.base.App) != "app" {
		t.Fatalf("base after partial fold: %+v", d.base)
	}
	if len(d.msgs) != 1 || len(d.rounds) != 1 || d.rounds[0] != 3 {
		t.Fatalf("suffix after partial fold: %+v, rounds %v", d.msgs, d.rounds)
	}
	// The buffers are kept, and the vacated tail holds no folded message.
	if cap(d.msgs) < 4 || cap(d.rounds) < 4 {
		t.Fatalf("the fold reallocated the suffix: cap %d and %d", cap(d.msgs), cap(d.rounds))
	}
	for _, mm := range d.msgs[1:cap(d.msgs)] {
		if mm.Payload != nil {
			t.Fatalf("folded message %v still referenced past the suffix", mm.ID)
		}
	}
	// Folded and retained messages are all still contained.
	for _, mm := range []msg.Message{m(0, 1, 1), m(1, 1, 1), m(0, 1, 2), m(1, 1, 2)} {
		if !d.contains(mm.ID) {
			t.Fatalf("%v no longer contained", mm.ID)
		}
	}
	// The retained delivery keeps its global position.
	ds := d.deliveries()
	if len(ds) != 1 || ds[0].Pos != 3 || ds[0].Round != 3 {
		t.Fatalf("retained delivery: %+v", ds)
	}
	// Folding again at a higher floor absorbs the rest.
	d.foldPrefix([]byte("app2"), d.cutBelow(4), 4)
	if len(d.msgs) != 0 || d.base.Rounds != 4 || d.base.Pos != 4 {
		t.Fatalf("full fold after partial: %+v", d.base)
	}
	// A floor below the current base never regresses it.
	d.foldPrefix([]byte("app3"), d.cutBelow(1), 1)
	if d.base.Rounds != 4 {
		t.Fatalf("fold regressed base rounds: %+v", d.base)
	}
}

// TestFoldBelowZeroFloorIsNoopOnSuffix: an idle merge frontier (floor 0)
// folds nothing — the documented liveness caveat of merged-mode
// checkpointing.
func TestFoldBelowZeroFloorIsNoopOnSuffix(t *testing.T) {
	d := newDeliveryState()
	d.appendBatch(0, []msg.Message{m(0, 1, 1)})
	if got := d.cutBelow(0); got != 0 {
		t.Fatalf("cutBelow(0) = %d; want 0", got)
	}
}

// TestFoldedCoverageIsExact is the regression test for the fold/ordering
// divergence: a sender's later message (m4) can be ordered rounds before
// an earlier one (m3, gossip lost). A process that folds the prefix
// containing only m4 must NOT claim to contain m3 — otherwise it skips m3
// when a later round delivers it while an unfolded process appends it,
// and the two delivery sequences diverge position by position (the soak
// caught exactly this as a Total Order violation).
func TestFoldedCoverageIsExact(t *testing.T) {
	m3, m4 := m(1, 1, 3), m(1, 1, 4)

	folded := newDeliveryState()
	unfolded := newDeliveryState()
	// Round 0 delivers m4 only; m3 is still in flight.
	folded.appendBatch(0, []msg.Message{m4})
	unfolded.appendBatch(0, []msg.Message{m4})
	// One process checkpoints, the other does not.
	folded.foldPrefix([]byte("app"), folded.cutBelow(1), 1)
	if folded.contains(m3.ID) {
		t.Fatal("folded state claims to contain the undelivered m3")
	}
	// Round 1 delivers m3: both processes must append it at the same
	// position.
	a := folded.appendBatch(1, []msg.Message{m3})
	b := unfolded.appendBatch(1, []msg.Message{m3})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("m3 skipped: folded=%v unfolded=%v", a, b)
	}
	if a[0].Pos != b[0].Pos || a[0].Msg.ID != b[0].Msg.ID {
		t.Fatalf("sequences diverged: folded delivers %v@%d, unfolded %v@%d",
			a[0].Msg.ID, a[0].Pos, b[0].Msg.ID, b[0].Pos)
	}
}

// TestRecoveryWithoutFloorCellForcesNoState: a crash between the two writes
// of a process's first checkpoint leaves the checkpoint cell without a
// GC-floor cell. Discards wait for both, so the recovered process dropped
// nothing and must not force a state transfer on a peer one round behind
// it. (Assuming everything below the cell's round gone made the sharded
// soak's merge cursors lag behind such transfers.)
func TestRecoveryWithoutFloorCellForcesNoState(t *testing.T) {
	d := newDeliveryState()
	d.appendBatch(0, []msg.Message{m(1, 1, 1)})
	cell := wire.NewWriter(64)
	cell.U64(1)
	d.encode(cell)
	cfg := Config{PID: 0, N: 3}
	cfg.fill()
	mc := newMachine(cfg, &fakeCons{}, newMetrics(nil, 0), nil, nil)
	if _, err := mc.recover(cell.Bytes(), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	mc.start(0)
	mc.flushed()

	digest := wire.NewWriter(16)
	digest.U8(subDigest)
	digest.U64(0) // the peer's round: it still needs round 0
	msg.EncodeIDs(digest, nil)
	mc.receive(0, 1, digest.Bytes())
	for _, ef := range mc.out {
		if ef.op == opSend && ef.w.Bytes()[0] == subState {
			t.Fatalf("recovered at round 1 with nothing discarded, yet sent state to %v at round 0", ef.to)
		}
	}
}
