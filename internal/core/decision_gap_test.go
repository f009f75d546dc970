package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/sim/stack"
)

// TestCrashBetweenDeliveryAndDecisionCell: a process delivers rounds whose
// decision cells never reach its log (consensus installs a decision ahead of
// its cell), crashes, and recovers with none of them. It must re-learn every
// round from the others and deliver the same messages at the same positions
// and rounds again — as the lease holder, which logged its proposals and
// replays them, and as a process that granted the holder the lease, which
// logs none of its own and learns the rounds through gossip.
func TestCrashBetweenDeliveryAndDecisionCell(t *testing.T) {
	for _, victim := range []ids.ProcessID{0, 1} {
		t.Run(fmt.Sprintf("p%d", victim), func(t *testing.T) {
			s := stack.Scripted(t)
			v := s.Procs[victim]
			s.Disks[victim].Lose = func(w *sim.Write) bool { return strings.HasPrefix(w.Key, "cons/d/") }
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
			if keys, _ := v.Disk.List("cons/d/"); len(keys) != 0 {
				t.Fatalf("decision cells reached the victim's log: %v", keys)
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

// proposalsFrom lists p's logged proposal cells of rounds from k on (keys
// carry the round in fixed-width hex, so they sort by round).
func proposalsFrom(p *stack.Proc, k uint64) []string {
	keys, _ := p.Disk.List("cons/p/")
	return slices.DeleteFunc(keys, func(key string) bool { return key < fmt.Sprintf("cons/p/%016x", k) })
}
