package group

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
)

// benchStream builds a stream + subscribed cursor over G groups with one
// pre-built delivery batch per group (reused every round — NoteRound
// retains but never mutates it).
func benchStream(b testing.TB, groups, perRound int) (*Stream, *Cursor, [][]core.Delivery) {
	b.Helper()
	st := NewStream(groups)
	seqs := make([]Sequence, groups)
	for g := range seqs {
		seqs[g] = Sequence{Group: ids.GroupID(g)}
	}
	cur, err := st.Subscribe(func() ([]Sequence, error) { return seqs, nil })
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]core.Delivery, groups)
	for g := range batches {
		for i := 0; i < perRound; i++ {
			batches[g] = append(batches[g], core.Delivery{
				Msg:   msg.Message{ID: ids.MsgID{Sender: ids.ProcessID(g), Incarnation: 1, Seq: uint64(i + 1)}},
				Group: ids.GroupID(g),
			})
		}
	}
	return st, cur, batches
}

// BenchmarkCursorAdvanceRound measures the streaming hot path: every
// group commits one round and the cursor drains the completed round —
// O(groups log groups) per advance, compared against the batch recompute
// below.
func BenchmarkCursorAdvanceRound(b *testing.B) {
	for _, groups := range []int{4, 16} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			st, cur, batches := benchStream(b, groups, 4)
			var buf []core.Delivery
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round := uint64(i)
				for g := 0; g < groups; g++ {
					st.NoteRound(ids.GroupID(g), round, batches[g])
				}
				var err error
				buf, err = cur.Next(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCursorPollEmpty measures the no-new-round poll: a consumer
// checking for output when nothing completed must not allocate.
func BenchmarkCursorPollEmpty(b *testing.B) {
	_, cur, _ := benchStream(b, 8, 4)
	var buf []core.Delivery
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = cur.Next(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchMergeRecompute is the cost the cursor replaces: one full
// batch Merge over the same history the cursor advances through
// incrementally. At R rounds of history each call is O(R x groups), so
// per-round consumption via repeated recomputes is quadratic where the
// cursor is linear (BenchmarkCursorAdvanceRound, and group.cursor_round_ns in
// the benchmark, are the cursor's side).
func BenchmarkBatchMergeRecompute(b *testing.B) {
	for _, rounds := range []int{64, 512} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			const groups = 4
			seqs := make([]Sequence, groups)
			for g := range seqs {
				s := Sequence{Group: ids.GroupID(g), Rounds: uint64(rounds)}
				var pos uint64
				for r := 0; r < rounds; r++ {
					for i := 0; i < 4; i++ {
						s.Deliveries = append(s.Deliveries, core.Delivery{
							Msg:   msg.Message{ID: ids.MsgID{Sender: ids.ProcessID(g), Incarnation: 1, Seq: uint64(r*4 + i + 1)}},
							Group: ids.GroupID(g),
							Round: uint64(r),
							Pos:   pos,
						})
						pos++
					}
				}
				seqs[g] = s
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m, _, _ := Merge(seqs); len(m) == 0 {
					b.Fatal("empty merge")
				}
			}
		})
	}
}

// TestCursorEmptyPollZeroAllocs enforces the zero-allocation contract of
// the no-new-round poll and, in steady state, of a round every group
// commits and the cursor drains: the cursor's copy of a round reuses one
// that Next has emptied (the benchmarks report both; this fails CI if
// either regresses).
func TestCursorEmptyPollZeroAllocs(t *testing.T) {
	const groups = 8
	st, cur, batches := benchStream(t, groups, 4)
	buf := make([]core.Delivery, 0, 16)
	next := func() {
		var err error
		buf, err = cur.Next(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Fatalf("empty poll allocates %.1f objects/op; want 0", allocs)
	}
	var round uint64
	advance := func() {
		for g := range groups {
			st.NoteRound(ids.GroupID(g), round, batches[g])
		}
		round++
		next()
	}
	buf = make([]core.Delivery, 0, groups*4)
	advance() // fills the free list
	if allocs := testing.AllocsPerRun(1000, advance); allocs != 0 {
		t.Fatalf("a committed round allocates %.1f objects/op in the cursor; want 0", allocs)
	}
}
