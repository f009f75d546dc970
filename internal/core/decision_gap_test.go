package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
)

// TestCrashBetweenDeliveryAndDecisionCell: a process delivers rounds whose
// decision cells never reach its log (consensus installs a decision ahead of
// its cell), crashes, and recovers with none of them. It must re-learn every
// round from the others and deliver the same messages at the same positions
// and rounds again — as a process that logged its proposals, which replays
// them, and as one that logged none (it granted the lease elsewhere), which
// learns the rounds through gossip.
func TestCrashBetweenDeliveryAndDecisionCell(t *testing.T) {
	for _, victim := range []ids.ProcessID{0, 1} {
		t.Run(fmt.Sprintf("p%d", victim), func(t *testing.T) {
			s := newScriptedSim(t, 3, core.Config{})
			v := s.procs[victim]
			v.noDecisionCells = true
			v.deferProposals = victim == 1
			s.boot()

			const before = 6
			for range before {
				s.broadcastAndWait(t, victim)
			}
			s.await(t, "every process delivered", s.terminated)
			if len(v.known) == 0 {
				t.Fatal("the victim delivered, yet holds no decision")
			}
			if keys, _ := v.disk.List("cons/d/"); len(keys) != 0 {
				t.Fatalf("decision cells reached the victim's log: %v", keys)
			}
			if keys, _ := v.disk.List("cons/p/"); (len(keys) > 0) != (victim == 0) {
				t.Fatalf("the victim logged proposals %v", keys)
			}

			s.crash(victim)
			survivor := (victim + 1) % 3
			for range 2 {
				s.broadcastAndWait(t, survivor)
			}
			s.recover(victim)
			s.await(t, "every process delivered after the recovery", s.terminated)
			if err := s.rec.Verify(); err != nil {
				t.Fatal(err)
			}

			_, want := s.procs[survivor].m.Sequence()
			_, got := v.m.Sequence()
			if len(want) != before+2 {
				t.Fatalf("survivor's sequence has %d messages, want %d", len(want), before+2)
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
			if len(v.lives) != 2 {
				t.Fatalf("%d incarnations, want 2", len(v.lives))
			}
			same("first life's OnDeliver stream", v.lives[0], want[:before])
			same("second life's OnDeliver stream", v.lives[1], want)
		})
	}
}
