package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sim/stack"
	"repro/internal/wire"
)

// TestDiscardFloorKeepsARecovererOnConsensus scripts the seam's discard
// floor (core.Shard.DiscardFloor). While it is pinned at 0, p0 and p1
// checkpoint past a crashed p2 but keep their consensus state, so p2
// recovers below their checkpoints and catches up by consensus: no
// GC-forced state transfer. Once the floor is released, their checkpoints
// discard up to their round counters, and p2, crashed again, can only
// catch up by a GC-forced transfer.
func TestDiscardFloorKeepsARecovererOnConsensus(t *testing.T) {
	s := stack.Scripted(t)
	s.Opts.Core.CheckpointEvery = 2
	s.DiscardFloor = 0
	s.Boot()
	const victim = ids.ProcessID(2)
	cell := func(p *stack.Proc, key string) uint64 {
		v, ok, _ := p.Disk.Get(key)
		if !ok {
			return 0
		}
		return wire.NewReader(v).U64()
	}
	// outage crashes p2, has p0 order rounds past its checkpoint, and
	// recovers it; it returns the round p2's checkpoint restored.
	outage := func() uint64 {
		s.Await(t, "every process delivered", s.Terminated)
		s.Crash(victim)
		restored := cell(s.Procs[victim], core.KeyCkpt)
		for range 8 {
			s.BroadcastAndWait(t, 0)
		}
		for _, p := range s.Procs[:2] {
			if k := cell(p, core.KeyCkpt); k <= restored+4 {
				t.Fatalf("p%d's checkpoint records round %d; p2 restores %d", p.PID, k, restored)
			}
		}
		s.Recover(victim)
		s.Await(t, "p2 caught up", s.Terminated)
		return restored
	}
	gcForced := func() (n uint64) {
		for _, p := range s.Procs[:2] {
			n += p.Core.Stats().StateSentGCForced
		}
		return n
	}

	for range 2 {
		s.BroadcastAndWait(t, 0)
	}
	outage()
	for _, p := range s.Procs[:2] {
		if f := cell(p, core.KeyGCFloor); f != 0 {
			t.Fatalf("p%d discarded below %d under a discard floor pinned at 0", p.PID, f)
		}
	}
	if n, adopted := gcForced(), s.Procs[victim].Core.Stats().StateAdopted; n != 0 || adopted != 0 {
		t.Fatalf("pinned floor: %d GC-forced state transfers sent, %d adopted; want none", n, adopted)
	}

	s.DiscardFloor = math.MaxUint64
	restored := outage()
	for _, p := range s.Procs[:2] {
		if f := cell(p, core.KeyGCFloor); f <= restored {
			t.Fatalf("p%d discarded below %d only; p2 restored %d", p.PID, f, restored)
		}
	}
	if n, adopted := gcForced(), s.Procs[victim].Core.Stats().StateAdopted; n == 0 || adopted == 0 {
		t.Fatalf("released floor: %d GC-forced state transfers sent, %d adopted; want some", n, adopted)
	}
	if err := s.Rec.Verify(); err != nil {
		t.Fatal(err)
	}
}
