package group

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
)

// histDel builds one delivery of a synthetic per-group history.
func histDel(g ids.GroupID, seq uint64, round, pos uint64, payload byte) core.Delivery {
	return core.Delivery{
		Msg: msg.Message{
			ID:      ids.MsgID{Sender: ids.ProcessID(g), Incarnation: 1, Seq: seq},
			Payload: []byte{payload, byte(seq)},
		},
		Group: g,
		Round: round,
		Pos:   pos,
	}
}

// deliveryIdentical is the byte-identical comparison of the differential
// oracle.
func deliveryIdentical(a, b core.Delivery) bool {
	if a.Group != b.Group || a.Round != b.Round || a.Pos != b.Pos || a.Msg.ID != b.Msg.ID {
		return false
	}
	if len(a.Msg.Payload) != len(b.Msg.Payload) {
		return false
	}
	for i := range a.Msg.Payload {
		if a.Msg.Payload[i] != b.Msg.Payload[i] {
			return false
		}
	}
	return true
}

// TestStreamCursorMatchesBatchMerge is the randomized differential over
// seeded multi-group histories: a cursor fed round events (with replay
// duplicates, empty rounds, cursors subscribed mid-stream, and merge-
// floor-respecting folds) must emit exactly what batch Merge reconstructs
// — byte-identical, including under checkpointing.
func TestStreamCursorMatchesBatchMerge(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			groups := 2 + rng.Intn(3)
			rounds := 5 + rng.Intn(40)

			// The ground-truth history: hist[g][r] is round r's batch at
			// group g (possibly empty), with per-group contiguous Pos.
			hist := make([][][]core.Delivery, groups)
			var seq uint64
			for g := range hist {
				hist[g] = make([][]core.Delivery, rounds)
				var pos uint64
				for r := range hist[g] {
					n := rng.Intn(4) // 0 = empty round
					for i := 0; i < n; i++ {
						seq++
						hist[g][r] = append(hist[g][r],
							histDel(ids.GroupID(g), seq, uint64(r), pos, byte(g)))
						pos++
					}
				}
			}
			// seqsAt builds the per-group Sequences as a process at the
			// given decided/folded state would report them.
			seqsAt := func(decided, folded []uint64) []Sequence {
				out := make([]Sequence, groups)
				for g := 0; g < groups; g++ {
					s := Sequence{Group: ids.GroupID(g), Rounds: decided[g]}
					s.Base.Rounds = folded[g]
					var foldedPos uint64
					for r := uint64(0); r < decided[g]; r++ {
						if r < folded[g] {
							foldedPos += uint64(len(hist[g][r]))
							continue
						}
						s.Deliveries = append(s.Deliveries, hist[g][r]...)
					}
					s.Base.Pos = foldedPos
					out[g] = s
				}
				return out
			}

			st := NewStream(groups)
			decided := make([]uint64, groups)
			folded := make([]uint64, groups)
			type sub struct {
				cur *Cursor
				out []core.Delivery
			}
			subscribe := func() *sub {
				c, err := st.Subscribe(func() ([]Sequence, error) {
					return seqsAt(decided, folded), nil
				})
				if err != nil {
					t.Fatalf("subscribe: %v", err)
				}
				return &sub{cur: c}
			}
			drainAndCheck := func(s *sub) {
				var err error
				s.out, err = s.cur.Next(s.out)
				if err != nil {
					t.Fatalf("next: %v", err)
				}
				oracle, from, frontier := Merge(seqsAt(decided, folded))
				if got := s.cur.Emitted(); got != frontier && frontier > s.cur.StartRound() {
					t.Fatalf("cursor emitted %d; batch frontier %d", got, frontier)
				}
				// The cursor may retain rounds a later fold removed from
				// the batch view; compare over the rounds both cover.
				lo := s.cur.StartRound()
				if from > lo {
					lo = from
				}
				want := TrimBelowRound(oracle, lo)
				got := TrimBelowRound(s.out, lo)
				if len(got) != len(want) {
					t.Fatalf("cursor streamed %d deliveries past round %d; batch merge has %d (start %d, from %d)",
						len(got), lo, len(want), s.cur.StartRound(), from)
				}
				for i := range want {
					if !deliveryIdentical(got[i], want[i]) {
						t.Fatalf("cursor and batch merge differ at %d: %+v vs %+v", i, got[i], want[i])
					}
				}
			}

			subs := []*sub{subscribe()}
			for {
				// Pick a group that still has rounds to commit.
				var candidates []int
				for g := 0; g < groups; g++ {
					if decided[g] < uint64(rounds) {
						candidates = append(candidates, g)
					}
				}
				if len(candidates) == 0 {
					break
				}
				g := candidates[rng.Intn(len(candidates))]
				r := decided[g]
				st.NoteRound(ids.GroupID(g), r, hist[g][r])
				decided[g]++

				switch rng.Intn(10) {
				case 0:
					// Recovery replay: re-offer a prefix of past rounds
					// (duplicates must be ignored).
					if decided[g] > 1 {
						from := uint64(rng.Intn(int(decided[g])))
						for rr := from; rr < decided[g]; rr++ {
							st.NoteRound(ids.GroupID(g), rr, hist[g][rr])
						}
					}
				case 1:
					// Checkpoint fold under the merge floor: any group may
					// fold up to the frontier.
					fg := rng.Intn(groups)
					if f := st.Frontier(); f > folded[fg] {
						folded[fg] = f
					}
				case 2:
					// A new consumer subscribes mid-history.
					subs = append(subs, subscribe())
				case 3:
					drainAndCheck(subs[rng.Intn(len(subs))])
				}
			}
			if got, want := st.Frontier(), uint64(rounds); got != want {
				t.Fatalf("final frontier %d; want %d", got, want)
			}
			for _, s := range subs {
				drainAndCheck(s)
			}
		})
	}
}

func TestStreamEmptyRoundsAdvanceFrontier(t *testing.T) {
	st := NewStream(2)
	cur, err := st.Subscribe(func() ([]Sequence, error) {
		return []Sequence{{Group: 0}, {Group: 1}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := histDel(0, 1, 1, 0, 0)
	st.NoteRound(0, 0, nil) // empty round
	st.NoteRound(0, 1, []core.Delivery{d})
	st.NoteRound(1, 0, nil)
	if got := st.Frontier(); got != 1 {
		t.Fatalf("frontier %d; want 1 (g1 decided one empty round)", got)
	}
	out, err := cur.Next(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("round 1 not complete yet: out=%v err=%v", out, err)
	}
	st.NoteRound(1, 1, nil)
	out, err = cur.Next(out)
	if err != nil || len(out) != 1 || !deliveryIdentical(out[0], d) {
		t.Fatalf("expected g0's round-1 delivery: out=%v err=%v", out, err)
	}
	if cur.Emitted() != 2 {
		t.Fatalf("emitted %d; want 2", cur.Emitted())
	}
}

func TestStreamCursorLagsOnSkippedRounds(t *testing.T) {
	st := NewStream(1)
	cur, err := st.Subscribe(func() ([]Sequence, error) {
		return []Sequence{{Group: 0}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.NoteRound(0, 0, nil)
	st.NoteRound(0, 5, nil) // a state transfer skipped rounds 1-4
	if !cur.Lagged() {
		t.Fatal("cursor did not notice the gap")
	}
	if _, err := cur.Next(nil); !errors.Is(err, ErrCursorLagged) {
		t.Fatalf("Next = %v; want ErrCursorLagged", err)
	}
}

func TestStreamCursorClose(t *testing.T) {
	st := NewStream(1)
	cur, err := st.Subscribe(func() ([]Sequence, error) {
		return []Sequence{{Group: 0}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if _, err := cur.Next(nil); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next = %v; want ErrCursorClosed", err)
	}
	st.mu.Lock()
	n := len(st.cursors)
	st.mu.Unlock()
	if n != 0 {
		t.Fatalf("closed cursor still subscribed (%d)", n)
	}
}

func TestStreamSubscribeSeedsFromFoldedBase(t *testing.T) {
	st := NewStream(2)
	// Group 0 folded rounds [0,2) away; both groups decided 3 rounds.
	d0 := histDel(0, 9, 2, 5, 0)
	d1a := histDel(1, 1, 1, 0, 1)
	d1b := histDel(1, 2, 2, 1, 1)
	for g := 0; g < 2; g++ {
		for r := uint64(0); r < 3; r++ {
			// Events happened before this consumer existed.
		}
	}
	cur, err := st.Subscribe(func() ([]Sequence, error) {
		return []Sequence{
			{Group: 0, Base: core.Snapshot{Rounds: 2, Pos: 5}, Deliveries: []core.Delivery{d0}, Rounds: 3},
			{Group: 1, Deliveries: []core.Delivery{d1a, d1b}, Rounds: 3},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cur.StartRound() != 2 {
		t.Fatalf("start %d; want 2 (the merge base)", cur.StartRound())
	}
	out, err := cur.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2 only: g0's then g1's delivery; g1's round-1 delivery is
	// below the base.
	if len(out) != 2 || !deliveryIdentical(out[0], d0) || !deliveryIdentical(out[1], d1b) {
		t.Fatalf("out = %+v; want [g0 r2, g1 r2]", out)
	}
}

// TestStreamNoteRoundOutOfRange: events for unknown groups must not
// panic or corrupt state.
func TestStreamNoteRoundOutOfRange(t *testing.T) {
	st := NewStream(1)
	st.NoteRound(7, 0, nil)
	if st.Frontier() != 0 {
		t.Fatal("out-of-range group advanced the frontier")
	}
	if st.Decided(7) != 0 {
		t.Fatal("out-of-range group has decided rounds")
	}
}

// TestStreamKeepsItsOwnCopyOfARound: NoteRound borrows its deliveries for
// the call (core.Shard.Round reuses the buffer), so every slice the
// stream keeps must be its own: a pre-JOIN group's pending rounds, an
// unseeded cursor's backlog, and a cursor's buffered round at offset 0 as
// at any other. The same script runs twice, once handing NoteRound a
// buffer that is overwritten after every call and once a fresh slice per
// call, and every cursor must merge the same sequence both times.
func TestStreamKeepsItsOwnCopyOfARound(t *testing.T) {
	a := histDel(0, 1, 0, 0, 'a')
	b := histDel(0, 2, 1, 1, 'b')
	join := histDel(0, 3, 1, 2, 0)
	join.Msg.Payload = EncodeJoinMarker(1)
	c := histDel(1, 1, 0, 0, 'c')

	run := func(overwrite bool) [][]core.Delivery {
		st := NewStream(1)
		var buf []core.Delivery
		feed := func(g ids.GroupID, round uint64, ds ...core.Delivery) {
			if !overwrite {
				st.NoteRound(g, round, slices.Clone(ds))
				return
			}
			buf = append(buf[:0], ds...)
			st.NoteRound(g, round, buf)
			for i := range buf {
				buf[i] = histDel(9, 99, 99, 99, 'x')
			}
		}
		cursors := make([]*Cursor, 2)
		var err error
		cursors[0], err = st.Subscribe(func() ([]Sequence, error) { return []Sequence{{Group: 0}}, nil })
		if err != nil {
			t.Fatal(err)
		}
		feed(1, 0, c) // group 1 is not in the topology yet: pending
		feed(0, 0, a)
		cursors[1], err = st.Subscribe(func() ([]Sequence, error) {
			// Committed while the cursor seeds: its backlog, and the
			// JOIN splices group 1's pending round in at offset 2.
			feed(0, 1, b, join)
			return []Sequence{{Group: 0, Deliveries: []core.Delivery{a}, Rounds: 1}, {Group: 1}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(0, 2)
		var out [][]core.Delivery
		for _, cur := range cursors {
			got, err := cur.Next(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got)
		}
		return out
	}
	want, got := run(false), run(true)
	for i := range want {
		if len(want[i]) != 4 {
			t.Fatalf("cursor %d merged %d deliveries with owned slices; want 4: %+v", i, len(want[i]), want[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("cursor %d merged %d deliveries from a reused buffer; want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !deliveryIdentical(got[i][j], want[i][j]) {
				t.Fatalf("cursor %d, delivery %d: %+v from a reused buffer; want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
