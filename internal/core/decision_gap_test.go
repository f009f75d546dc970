package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/sim/stack"
)

// TestCrashBetweenDeliveryAndDecisionCell: a process delivers rounds, whose
// decisions consensus logs nowhere, crashes, and recovers with none of
// them. It must re-learn every round from the others and deliver the same
// messages at the same positions and rounds again — as the lease holder,
// which logged its proposals, and as a process that granted the holder the
// lease, which logs none of its own and holds only acceptor cells.
func TestCrashBetweenDeliveryAndDecisionCell(t *testing.T) {
	for _, victim := range []ids.ProcessID{0, 1} {
		t.Run(fmt.Sprintf("p%d", victim), func(t *testing.T) {
			s := stack.Scripted(t)
			v := s.Procs[victim]
			s.Boot()

			// p0 orders rounds until it holds the lease, granted by p1.
			var warm []core.Delivery
			for s.Procs[0].Lease() == 0 {
				if len(warm) > 20 {
					t.Fatal("p0 holds no lease after 20 rounds")
				}
				s.BroadcastAndWait(t, 0)
				_, warm = s.Procs[0].Core.Sequence()
			}
			from := s.Procs[0].Core.Round()

			const before = 6
			for range before {
				s.BroadcastAndWait(t, victim)
			}
			s.Await(t, "every process delivered", s.Terminated)
			if _, seq := v.Core.Sequence(); len(seq) != len(warm)+before {
				t.Fatalf("the victim delivered %d messages, want %d", len(seq), len(warm)+before)
			}
			if keys := proposalsFrom(v, from); (len(keys) > 0) != (victim == 0) {
				t.Fatalf("the victim logged proposals %v from round %d on", keys, from)
			}

			s.Crash(victim)
			survivor := (victim + 1) % 3
			for range 2 {
				s.BroadcastAndWait(t, survivor)
			}
			s.Recover(victim)
			s.Await(t, "every process delivered after the recovery", s.Terminated)
			if err := s.Rec.Verify(); err != nil {
				t.Fatal(err)
			}

			_, want := s.Procs[survivor].Core.Sequence()
			_, got := v.Core.Sequence()
			if n := len(warm) + before + 2; len(want) != n {
				t.Fatalf("survivor's sequence has %d messages, want %d", len(want), n)
			}
			same := func(what string, got, want []core.Delivery) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d deliveries, want %d", what, len(got), len(want))
				}
				for i := range want {
					if got[i].Msg.ID != want[i].Msg.ID || got[i].Pos != want[i].Pos || got[i].Round != want[i].Round {
						t.Fatalf("%s: position %d is %v (pos %d, round %d), want %v (pos %d, round %d)", what, i,
							got[i].Msg.ID, got[i].Pos, got[i].Round, want[i].Msg.ID, want[i].Pos, want[i].Round)
					}
				}
			}
			same("recovered Sequence()", got, want)
			if len(v.Lives) != 2 {
				t.Fatalf("%d incarnations, want 2", len(v.Lives))
			}
			same("first life's OnDeliver stream", v.Lives[0], want[:len(warm)+before])
			same("second life's OnDeliver stream", v.Lives[1], want)
		})
	}
}

// TestTotalCrashRelearnsAnAcceptedRound: the lease holder p0 decides a
// round whose proposal and acceptor cell never reach its log, so the
// round's value survives only in the acceptor cells of p1 and p2; every
// process delivers it, and all three crash and recover. No process logged
// the decision, and none has the round's proposal: each must learn the
// round again before its replay ends, and deliver it again.
func TestTotalCrashRelearnsAnAcceptedRound(t *testing.T) {
	s := stack.Scripted(t)
	s.Boot()
	for s.Procs[0].Lease() == 0 {
		if s.Procs[0].Core.Round() > 20 {
			t.Fatal("p0 holds no lease after 20 rounds")
		}
		s.BroadcastAndWait(t, 0)
	}
	k := s.Procs[0].Core.Round()
	cell := func(kind byte) string { return fmt.Sprintf("cons/%c/%016x", kind, k) }
	s.Disks[0].Lose = func(w *sim.Write) bool { return w.Key == cell('p') || w.Key == cell('a') }
	id := s.BroadcastAndWait(t, 0)
	s.Await(t, "every process delivered "+id.String(), s.Terminated)
	for _, p := range s.Procs {
		if _, ok, _ := p.Disk.Get(cell('a')); ok != (p.PID != 0) {
			t.Fatalf("p%d: acceptor cell of round %d logged: %v", p.PID, k, ok)
		}
		if _, ok, _ := p.Disk.Get(cell('p')); ok {
			t.Fatalf("p%d: proposal of round %d logged", p.PID, k)
		}
	}

	for _, p := range s.Procs {
		s.Crash(p.PID)
	}
	s.Disks[0].Lose = nil
	for _, p := range s.Procs {
		s.Recover(p.PID)
	}
	s.Await(t, "every process delivered again after the recovery", s.Terminated)
	for _, p := range s.Procs {
		if _, seq := p.Core.Sequence(); len(seq) != int(k)+1 || seq[k].Msg.ID != id {
			t.Fatalf("p%d delivered %d messages after the recovery, want %d ending in %v", p.PID, len(seq), k+1, id)
		}
	}
	if err := s.Rec.Verify(); err != nil {
		t.Fatal(err)
	}
}

// proposalsFrom lists p's logged proposal cells of rounds from k on (keys
// carry the round in fixed-width hex, so they sort by round).
func proposalsFrom(p *stack.Proc, k uint64) []string {
	keys, _ := p.Disk.List("cons/p/")
	return slices.DeleteFunc(keys, func(key string) bool { return key < fmt.Sprintf("cons/p/%016x", k) })
}
