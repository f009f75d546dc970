package rsm

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/wire"
)

// A transaction payload whose read or write count far exceeds its bytes is
// malformed, and the count must size nothing: every replica delivers the
// payload and replays it on recovery, so a slice pre-sized from 2^40
// writes would be a fatal out-of-memory (which recover cannot catch) on
// all of them at once.
func TestHostileTxCountIsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name          string
		reads, writes uint64
	}{
		{name: "writes", writes: 1 << 40},
		{name: "reads", reads: 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := wire.NewWriter(16)
			w.U8(cmdTx)
			w.String("tx")
			w.U64(tc.reads)
			w.U64(tc.writes)
			s := NewStore()
			deliver(s, 0, w.Bytes())
			if s.Applied() != 0 {
				t.Fatalf("malformed transaction applied: %d", s.Applied())
			}
			if _, known := s.Outcome("tx"); known {
				t.Fatal("malformed transaction has a verdict")
			}
		})
	}
}

// FuzzApply delivers a sequence of three arbitrary payloads to two
// replicas and folds the same sequence into a checkpoint. No payload may
// panic the state machine, the two replicas must reach the same state, and
// the checkpoint fold must restore to it (Fig. 5: the fold logically
// contains every update it folded). testdata/fuzz holds put, del and tx
// encodings as the seed corpus.
func FuzzApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		seq := [][]byte{a, b, c}
		x, y := NewStore(), NewStore()
		var folded []msg.Message
		for i, p := range seq {
			deliver(x, uint64(i), p)
			deliver(y, uint64(i), p)
			folded = append(folded, msg.Message{Payload: p})
		}
		if x.Fingerprint() != y.Fingerprint() {
			t.Fatal("two replicas fed the same sequence diverged")
		}
		z := NewStore()
		z.Restore(x.Checkpoint(nil, folded))
		if z.Fingerprint() != x.Fingerprint() {
			t.Fatal("checkpoint fold diverged from the live replica")
		}
	})
}

// FuzzRestore installs arbitrary bytes as a checkpointed application state,
// the blob a state transfer carries from the network (Restore) and the
// fold starts from (Checkpoint's prev). No blob may panic either, and
// restore∘encode∘restore is stable: what a restored replica encodes
// restores to a replica that encodes the same bytes. testdata/fuzz holds
// the encodings of an empty, a written and a transactional state.
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		s := NewStore()
		s.Restore(blob)
		enc := s.Fingerprint()
		again := NewStore()
		again.Restore([]byte(enc))
		if got := again.Fingerprint(); got != enc {
			t.Fatalf("restore of the re-encoded state encodes %x, want %x", got, enc)
		}
		if folded := s.Checkpoint(blob, nil); string(folded) != enc {
			t.Fatalf("folding nothing onto the blob gives %x, the restored state %x", folded, enc)
		}
	})
}
