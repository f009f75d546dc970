package core_test

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/sim/stack"
)

// leaseAtP0 boots a scripted run and has p0 order rounds until every
// process's acceptor names it the sequencer.
func leaseAtP0(t *testing.T) *stack.Sim {
	t.Helper()
	s := stack.Scripted(t)
	s.Boot()
	for rounds := 0; ; rounds++ {
		named := 0
		for _, p := range s.Procs {
			if q, ok := p.Sequencer(); ok && q == 0 {
				named++
			}
		}
		if named == len(s.Procs) {
			return s
		}
		if rounds > 20 {
			t.Fatal("p0's lease grant is not everywhere after 20 rounds")
		}
		s.BroadcastAndWait(t, 0)
	}
}

// TestPayloadCrossesToTheSequencerOnce pins the eager push's traffic: with
// p0 holding every process's lease grant and nothing lost, one 4 KiB
// broadcast at each process puts exactly two full-payload core frames on
// the network, p1's and p2's pushes to p0. p0's own message and the others'
// reach the rest inside p0's accepts, and no process pulls anything.
func TestPayloadCrossesToTheSequencerOnce(t *testing.T) {
	s := leaseAtP0(t)
	var payloads [][]byte
	for pid := range byte(3) {
		payloads = append(payloads, bytes.Repeat([]byte{'a' + pid}, 4096))
	}
	type link struct{ from, to ids.ProcessID }
	var frames []link
	s.CoreLink = func(from, to ids.ProcessID, frame []byte) bool {
		for _, pl := range payloads {
			if bytes.Contains(frame, pl) {
				frames = append(frames, link{from, to})
			}
		}
		return true
	}
	var sent []ids.MsgID
	for pid, pl := range payloads {
		sent = append(sent, s.BroadcastPayload(ids.ProcessID(pid), pl, false))
	}
	s.Await(t, "every process delivered the three messages", func() bool {
		for _, p := range s.Procs {
			for _, id := range sent {
				if !p.Core.Delivered(id) {
					return false
				}
			}
		}
		return true
	})
	s.Settle(5 * int64(s.Opts.Core.GossipInterval)) // digests keep flowing
	if len(frames) != 2 || frames[0].to != 0 || frames[1].to != 0 || frames[0].from == frames[1].from {
		t.Fatalf("full-payload core frames %v, want one from p1 and one from p2, both to p0", frames)
	}
	for _, p := range s.Procs {
		if n := p.Core.Stats().PullsSent; n != 0 {
			t.Fatalf("p%d sent %d pulls", p.PID, n)
		}
	}
}

// TestLostPushRepairedByPullUnderLoad: p1's core frames are cut while it
// broadcasts m, so its push to the sequencer p0 is lost and no digest
// shows m to anyone. p0 keeps broadcasting, so every round p1 proposes m
// in is decided with p0's batch before p1's deferred proposal would take
// the round over: only a pull can bring m to p0. Once the cut heals, the
// first digest of p1 that shows m starts the clock and the next one, an
// interval later, draws the pull: m is decided everywhere within two
// gossip intervals.
func TestLostPushRepairedByPullUnderLoad(t *testing.T) {
	s := leaseAtP0(t)
	interval := int64(s.Opts.Core.GossipInterval)
	s.CoreLink = func(from, _ ids.ProcessID, _ []byte) bool { return from != 1 }
	accepts := len(s.Accepts)
	load := true
	var tick func()
	tick = func() {
		if load {
			s.Broadcast(0, false)
			s.At(s.Now+sim.Ms, tick)
		}
	}
	tick()
	id := s.Broadcast(1, false)
	s.Settle(5 * interval)
	for _, p := range s.Procs {
		if p.Core.Delivered(id) {
			t.Fatalf("p%d delivered %v while p1's core frames were cut", p.PID, id)
		}
	}
	healed := s.Now
	s.CoreLink = nil
	s.Await(t, "every process delivered m", func() bool {
		for _, p := range s.Procs {
			if !p.Core.Delivered(id) {
				return false
			}
		}
		return true
	})
	if s.Now-healed > 2*interval {
		t.Fatalf("m delivered everywhere %.2fms after the heal, over 2 gossip intervals", float64(s.Now-healed)/float64(sim.Ms))
	}
	if s.Procs[0].Core.Stats().PullsSent == 0 {
		t.Fatal("p0 never pulled m")
	}
	for _, a := range s.Accepts[accepts:] {
		if a.PID != 0 {
			t.Fatalf("p%d coordinated round %d: a deferred proposal was taken over", a.PID, a.K)
		}
	}
	load = false
	s.Await(t, "Termination", s.Terminated)
}
