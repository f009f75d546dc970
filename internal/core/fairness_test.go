package core

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

func fm(sender ids.ProcessID, seq uint64) msg.Message {
	return msg.Message{ID: ids.MsgID{Sender: sender, Incarnation: 1, Seq: seq}}
}

// TestFairInterleaveRoundRobins checks the overflow reorder: message i of
// every sender must precede message i+1 of any sender, with each sender's
// own sequence order intact.
func TestFairInterleaveRoundRobins(t *testing.T) {
	// Canonical order: sender-major, so per-sender runs are contiguous.
	pending := []msg.Message{
		fm(0, 1), fm(0, 2), fm(0, 3), fm(0, 4),
		fm(1, 1), fm(1, 2),
		fm(2, 1), fm(2, 2), fm(2, 3),
	}
	out := fairInterleave(pending)
	if len(out) != len(pending) {
		t.Fatalf("interleave changed length: %d != %d", len(out), len(pending))
	}
	want := []ids.MsgID{
		{Sender: 0, Incarnation: 1, Seq: 1}, {Sender: 1, Incarnation: 1, Seq: 1}, {Sender: 2, Incarnation: 1, Seq: 1},
		{Sender: 0, Incarnation: 1, Seq: 2}, {Sender: 1, Incarnation: 1, Seq: 2}, {Sender: 2, Incarnation: 1, Seq: 2},
		{Sender: 0, Incarnation: 1, Seq: 3}, {Sender: 2, Incarnation: 1, Seq: 3},
		{Sender: 0, Incarnation: 1, Seq: 4},
	}
	for i, m := range out {
		if m.ID != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, m.ID, want[i])
		}
	}
}

func TestFairInterleaveSingleSenderUntouched(t *testing.T) {
	pending := []msg.Message{fm(1, 1), fm(1, 2), fm(1, 3)}
	out := fairInterleave(pending)
	for i, m := range out {
		if m.ID != pending[i].ID {
			t.Fatalf("single-sender slice reordered at %d: %v", i, m.ID)
		}
	}
}

// TestFairInterleaveBoundsTruncation drives the real overflow path: with a
// batch cap smaller than one hot sender's backlog, the proposed batch must
// still include every sender's head instead of only the lowest pid's run.
func TestFairInterleaveBoundsTruncation(t *testing.T) {
	pending := []msg.Message{
		fm(0, 1), fm(0, 2), fm(0, 3), fm(0, 4), fm(0, 5), fm(0, 6),
		fm(1, 1), fm(1, 2),
		fm(2, 1),
	}
	out := fairInterleave(pending)
	const maxBatch = 4
	batch := out[:maxBatch]
	seen := map[ids.ProcessID]int{}
	for _, m := range batch {
		seen[m.ID.Sender]++
	}
	for s := ids.ProcessID(0); s < 3; s++ {
		if seen[s] == 0 {
			t.Fatalf("sender %v starved out of the truncated batch: %v", s, seen)
		}
	}
	if seen[0] >= maxBatch {
		t.Fatalf("hot sender monopolized the batch: %v", seen)
	}
}
