package stack

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sim"
)

// HealAt is when a random schedule's faults end.
const HealAt = 300 * ms

// IsolationFDTimeouts is how long a soak schedule isolates a process, in
// FD timeouts: long enough for the peers to suspect it and a new leader to
// run a higher ballot.
const IsolationFDTimeouts = 3

// isolation is that span in the simulator.
const isolation = IsolationFDTimeouts * int64(FDTimeout)

// Variants are the protocol configurations the simulator's batches run:
// the paper's basic protocol, and the pipelined + adaptively batched +
// checkpointing + state-transfer stack.
func Variants() map[string]core.Config {
	return map[string]core.Config{
		"basic": {},
		"pipelined": {
			PipelineDepth:    4,
			BatchedBroadcast: true,
			IncrementalLog:   true,
			MaxBatchBytes:    4 << 10,
			MaxBatchDelay:    300 * time.Microsecond,
			CheckpointEvery:  8,
			Delta:            12,
		},
	}
}

// Schedule shapes a batch of random schedules. Seed s's schedule has
// broadcasts from random processes, crashes and recoveries (up to N-1
// down at once, and in one schedule of four a total crash), armed write
// faults that kill the incarnation, and one-way cuts over a lossy,
// duplicating, reordering network, each process with a disk of its own
// speed, half of them reporting some writes late, then a heal at HealAt.
type Schedule struct {
	N         int
	Core      core.Config
	Consensus consensus.Config
	// Soak adds the wall-clock soak's disturbance: processes are isolated
	// for at least IsolationFDTimeouts FD timeouts — random ones, and from
	// HealAt/2 on the lease holder, until one isolation has cost a holder
	// its lease — and the run fails unless one did.
	Soak bool
}

// Build returns seed's schedule, booted and ready to run.
func (sc Schedule) Build(seed uint64, verbose bool) *Sim {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	s := New(seed, Options{
		N:         sc.N,
		Core:      sc.Core,
		Consensus: sc.Consensus,
		Loss:      []float64{0, 0.05, 0.2}[r.IntN(3)],
		Dup:       []float64{0, 0.05}[r.IntN(2)],
		Delay:     [2]int64{0, (1 + r.Int64N(3)) * ms},
	})
	s.Verbose = verbose
	for _, d := range s.Disks {
		d.Persist = [2]int64{0, []int64{1, 4, 20}[r.IntN(3)] * ms} // some disks are slow
		if r.IntN(2) == 0 {                                        // and some report writes late, out of issue order
			d.Late, d.LateBy = 0.3, [2]int64{ms / 2, 4 * ms}
		}
	}
	s.Boot()
	n := s.Opts.N
	pid := func() ids.ProcessID { return ids.ProcessID(r.IntN(n)) }
	msgs := 5 + r.IntN(25)
	if sc.Soak {
		msgs = 30 + r.IntN(60)
	}
	for range msgs {
		p, at, async := pid(), r.Int64N(HealAt), r.IntN(4) == 0
		s.At(at, func() { s.Broadcast(p, async) })
	}
	for range r.IntN(2 * (n - 1)) {
		p, at := pid(), r.Int64N(HealAt)
		s.At(at, func() { s.Crash(p) })
		s.At(at+r.Int64N(100*ms), func() { s.Recover(p) })
	}
	for range r.IntN(3) {
		p, at, after := pid(), r.Int64N(HealAt), 1+r.IntN(12)
		s.At(at, func() { s.FailIn(p, after) })
	}
	for range r.IntN(3) {
		from, to, at := pid(), pid(), r.Int64N(HealAt)
		s.At(at, func() { s.Cut[from][to] = true })
		s.At(at+r.Int64N(100*ms), func() { s.Cut[from][to] = false })
	}
	if sc.Soak {
		for range 1 + r.IntN(3) {
			p, at := pid(), r.Int64N(HealAt)
			s.At(at, func() { s.soakIsolate(p) })
		}
		s.At(HealAt/2, s.huntHolder)
	}
	// Now and then a total crash: every process at once, each recovering
	// on its own, so that what was decided survives in the logs alone.
	if r.IntN(4) == 0 {
		at := r.Int64N(HealAt)
		for _, p := range s.Procs {
			s.At(at, func() { s.Crash(p.PID) })
			s.At(at+r.Int64N(100*ms), func() { s.Recover(p.PID) })
		}
	}
	s.At(HealAt, s.Heal)
	return s
}

// soakIsolate cuts pid off for the soak's isolation, one process at a
// time: a broadcast there makes it run a round, so a lease it holds finds
// no quorum, while the peers suspect it and take over at a higher ballot.
// A holder stays cut off until it lost the lease, for at most a second.
func (s *Sim) soakIsolate(pid ids.ProcessID) {
	p := s.Procs[pid]
	if s.isolating || !p.Up() {
		return
	}
	s.isolating = true
	s.Note(pid, "isolated", uint64(isolation), nil)
	s.Kernel.Isolate(pid, true)
	s.Isolations++
	held, lost, until := p.Lease() != 0, p.LeasesLost(), s.Now+1000*ms
	s.Broadcast(pid, true)
	var rejoin func()
	rejoin = func() {
		if p.Lease() != 0 && s.Now < until {
			s.At(s.Now+ms, rejoin)
			return
		}
		s.Note(pid, "rejoined", 0, nil)
		s.Kernel.Isolate(pid, false)
		s.isolating = false
		s.costLease = s.costLease || held && p.LeasesLost() > lost
	}
	s.At(s.Now+isolation, rejoin)
}

// huntHolder isolates a lease holder every 10ms until one isolation has
// cost a holder its lease. After the heal, with no holder to isolate, it
// drives a round at the leader so that one acquires the lease.
func (s *Sim) huntHolder() {
	if s.costLease {
		return
	}
	if !s.isolating {
		var leader *Proc
		for _, p := range s.Procs {
			if p.Up() && p.Lease() != 0 {
				s.soakIsolate(p.PID)
				break
			}
			if leader == nil && p.Up() {
				leader = s.Procs[p.FD.Leader()]
			}
		}
		if !s.isolating && s.Healed && leader != nil {
			s.Broadcast(leader.PID, true)
		}
	}
	s.At(s.Now+10*ms, s.huntHolder)
}

// Run plays seed's schedule to its end: the heal, with Soak until an
// isolation cost a lease holder its lease, then until Termination holds,
// within 20s of virtual time; then the recorder's Validity, Integrity and
// Total Order. Failure holds the first violation.
func (sc Schedule) Run(seed uint64, verbose bool) *Sim {
	s := sc.Build(seed, verbose)
	if !s.RunUntil(HealAt, func() bool { return s.Healed }) && s.Failure == "" {
		s.Fail("the schedule never healed")
	}
	if sc.Soak && s.Failure == "" && !s.RunUntil(s.Now+10_000*ms, func() bool { return s.costLease }) && s.Failure == "" {
		s.Fail("no isolation cost a lease holder its lease")
	}
	if s.Failure == "" {
		s.AwaitTermination(20_000 * ms)
	}
	return s
}

// Tally sums what a batch of schedules exercised.
type Tally struct{ Crashes, Isolations, LeasesLost int }

// Check runs the schedules of seeds first .. first+n-1, or of seed only,
// through the oracle (sim.CheckSeeds) and sums what they exercised.
func (sc Schedule) Check(t testing.TB, first uint64, n int, only uint64, replay string) Tally {
	t.Helper()
	var tally Tally
	sim.CheckSeeds(t, first, n, only, replay, func(seed uint64, verbose bool) *sim.Kernel {
		s := sc.Run(seed, verbose)
		if !verbose {
			tally.Crashes += s.Crashes
			tally.Isolations += s.Isolations
			for _, p := range s.Procs {
				tally.LeasesLost += p.LeasesLost()
			}
		}
		return s.Kernel
	})
	return tally
}

// Scripted returns a calm, booted-later run for a hand-written schedule
// (Boot starts it): no loss, short delays and fast disks (sim.Script).
func Scripted(t testing.TB) *Sim {
	t.Helper()
	s := New(1, Options{})
	s.Script(t)
	return s
}

// BroadcastAndWait has pid broadcast and waits until the call returns.
func (s *Sim) BroadcastAndWait(t testing.TB, pid ids.ProcessID) ids.MsgID {
	t.Helper()
	id := s.Broadcast(pid, false)
	if id == (ids.MsgID{}) {
		t.Fatalf("p%d refused the broadcast", pid)
	}
	s.Await(t, "the broadcast of "+id.String()+" returns", func() bool { return s.Back[id] })
	return id
}
