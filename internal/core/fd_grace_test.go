package core_test

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/sim/stack"
)

// TestRecoveredProcessSuspectsAPeerItNeverHeard: p1 recovers while p0,
// the old leader, stays down. p1's new detector never hears p0, so p0 gets
// the grace of one FD timeout from the incarnation's start and no more: the
// leader hint moves to p1 within one timeout (plus the heartbeat interval
// the simulator's events are spaced by), and p1 orders with p2.
func TestRecoveredProcessSuspectsAPeerItNeverHeard(t *testing.T) {
	s := stack.Scripted(t)
	s.Boot()
	s.BroadcastAndWait(t, 0)
	s.Crash(0)
	s.Crash(1)
	s.Settle(10 * int64(stack.FDTimeout))

	s.Recover(1)
	p1, start := s.Procs[1], s.Now
	if l := p1.FD.Leader(); l != 0 {
		t.Fatalf("p1's leader hint at its start is p%d, want p0 (the grace of the timeout)", l)
	}
	const tick = 5 * sim.Ms
	if !s.RunUntil(start+int64(stack.FDTimeout)+tick, func() bool { return p1.FD.Leader() == 1 }) {
		t.Fatalf("p1's leader hint is still p%d %.1fms after its start, with p0 down",
			p1.FD.Leader(), float64(s.Now-start)/float64(sim.Ms))
	}
	if s.Now-start <= int64(stack.FDTimeout) {
		t.Fatalf("p1 suspected p0 %.1fms after its start, within the grace", float64(s.Now-start)/float64(sim.Ms))
	}
	var id ids.MsgID
	s.Await(t, "p1 takes a broadcast after its replay", func() bool {
		id = s.Broadcast(1, false)
		return id != ids.MsgID{}
	})
	s.Await(t, "p1's broadcast returns", func() bool { return s.Back[id] })
}
