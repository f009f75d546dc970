package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/storage"
)

// TestCrashBetweenDeliveryAndDecisionCell: a process delivers rounds whose
// decision cells never reach its log (consensus installs a decision ahead of
// its cell), crashes, and recovers with none of them. It must re-learn every
// round from the others and deliver the same messages at the same positions
// again — as the sequencer, which finds its logged proposals and re-runs
// their ballots, and as a process that replays whatever it happened to log.
func TestCrashBetweenDeliveryAndDecisionCell(t *testing.T) {
	for _, victim := range []ids.ProcessID{0, 1} {
		t.Run(fmt.Sprintf("p%d", victim), func(t *testing.T) {
			held := storage.NewHeld(func(key string) bool { return strings.HasPrefix(key, "cons/d/") })
			var mu sync.Mutex
			var lives [][]core.Delivery // the victim's OnDeliver stream, one slice per incarnation
			c := harness.NewCluster(harness.Options{
				N: 3, Seed: 53,
				NewStore: func(pid ids.ProcessID) storage.Stable {
					if pid == victim {
						return held
					}
					return storage.NewMem()
				},
				OnRestore: func(pid ids.ProcessID, _ core.Snapshot) {
					if pid == victim {
						mu.Lock()
						lives = append(lives, nil)
						mu.Unlock()
					}
				},
				OnDeliver: func(pid ids.ProcessID, d core.Delivery) {
					if pid == victim {
						mu.Lock()
						lives[len(lives)-1] = append(lives[len(lives)-1], d)
						mu.Unlock()
					}
				},
			})
			defer c.Stop()
			if err := c.StartAll(); err != nil {
				t.Fatal(err)
			}
			ctx := ctxT(t, 30*time.Second)

			// Blocking broadcasts: each returns once the victim delivered it.
			const before = 6
			for i := 0; i < before; i++ {
				if _, err := c.Broadcast(ctx, victim, []byte(fmt.Sprintf("before-%d", i))); err != nil {
					t.Fatalf("broadcast %d: %v", i, err)
				}
			}
			if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
				t.Fatal(err)
			}
			all := func(string) bool { return true }
			if held.Pending(all) == 0 {
				t.Fatal("the victim delivered, yet no decision write is held")
			}
			if keys, _ := held.List("cons/d/"); len(keys) != 0 {
				t.Fatalf("decision cells reached the victim's log: %v", keys)
			}

			c.Crash(victim)
			held.Crash()
			survivor := (victim + 1) % 3
			for i := 0; i < 2; i++ {
				if _, err := c.Broadcast(ctx, survivor, []byte(fmt.Sprintf("while-down-%d", i))); err != nil {
					t.Fatalf("broadcast while down: %v", err)
				}
			}
			if _, err := c.Recover(victim); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := c.AwaitAllDelivered(ctx, 0, 1, 2); err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyAll(0, 1, 2); err != nil {
				t.Fatal(err)
			}

			_, want := c.Nodes[survivor].Proto().Sequence()
			_, got := c.Nodes[victim].Proto().Sequence()
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
			mu.Lock()
			defer mu.Unlock()
			if len(lives) != 2 {
				t.Fatalf("%d incarnations delivered, want 2", len(lives))
			}
			same("first life's OnDeliver stream", lives[0], want[:before])
			same("second life's OnDeliver stream", lives[1], want)
		})
	}
}
