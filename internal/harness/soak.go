package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/sim/stack"
)

// soakState tracks per-process lifecycle so the schedule never starts two
// recoveries of the same process concurrently. Recoveries run async
// because replay legitimately blocks while a majority is down.
type soakState struct {
	mu         sync.Mutex
	up         []bool
	recovering []bool
	// armed marks a live process with a storage fault ticking. Once the
	// first disarm attempt consumes the flag, later observations cannot
	// tell "never fired" from "fired, crash still in flight", so only a
	// first-disarm-without-trip puts a process back in rotation.
	armed []bool
}

func (s *soakState) pick(rng *rand.Rand, want func(i int) bool) (ids.ProcessID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []int
	for i := range s.up {
		if want(i) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return ids.ProcessID(cands[rng.IntN(len(cands))]), true
}

func (s *soakState) downCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.up {
		if !s.up[i] || s.recovering[i] {
			n++
		}
	}
	return n
}

// holdsLease reports whether plane's flight recorder shows its process
// holding group 0's lease: its last lease acquisition there came after its
// last lease loss and incarnation start.
func holdsLease(plane *obs.Plane) bool {
	held := false
	for _, e := range plane.Flight().Dump() {
		if e.Group != 0 {
			continue
		}
		switch e.Kind {
		case obs.EvLeaseAcquire:
			held = true
		case obs.EvLeaseLost, obs.EvNodeStart:
			held = false
		}
	}
	return held
}

// leaseHolder returns an up process that holds group 0's lease.
func leaseHolder(c *ShardedCluster) (ids.ProcessID, bool) {
	for p, plane := range c.Obs {
		if pid := ids.ProcessID(p); holdsLease(plane) && c.Procs[pid].Up() {
			return pid, true
		}
	}
	return 0, false
}

// runSoakSchedule is RunShardedSoak's engine: it drives the closed-loop
// broadcast workload and the seeded random walk of crashes, async
// recoveries, armed storage faults, process isolations and fsync latency
// against c, counting them into res, then winds down — stopping the
// workload, waiting out in-flight recoveries and fault trips, and
// recovering every process (retrying within soakDrain). The caller
// drains and verifies afterwards; the drain context is returned so it
// covers both phases. The workload walks the groups round-robin (offset
// per sender), so every group keeps deciding rounds, as merge liveness
// needs; crash and recovery act on whole processes.
func runSoakSchedule(opts ShardedSoakOptions, c *ShardedCluster, res *ShardedSoakResult) (context.Context, context.CancelFunc, error) {
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x50a4_50a4_50a4_50a4))
	isolation := stack.IsolationFDTimeouts * shardedFD.Timeout

	st := &soakState{
		up:         make([]bool, soakN),
		recovering: make([]bool, soakN),
		armed:      make([]bool, soakN),
	}
	for i := range st.up {
		st.up[i] = true
	}

	// Workload: closed-loop senders that keep broadcasting (with per-call
	// timeouts) through the fault storm. A Broadcast that returns marks
	// its message must-deliver; one interrupted by a crash may or may not
	// be delivered — exactly the paper's §4.2 contract.
	wctx, wcancel := context.WithCancel(context.Background())
	var (
		wg    sync.WaitGroup
		resMu sync.Mutex
		sent  int
	)
	// broadcast submits one message and counts it once it has an id.
	broadcast := func(ctx context.Context, pid ids.ProcessID, lane int, payload []byte) error {
		id, err := c.Broadcast(ctx, pid, ids.GroupID(lane%soakGroups), payload)
		if id != (ids.MsgID{}) {
			resMu.Lock()
			sent++
			resMu.Unlock()
		}
		return err
	}
	perSender := soakMsgs / soakN
	for p := 0; p < soakN; p++ {
		wg.Add(1)
		go func(pid ids.ProcessID, seed uint64) {
			defer wg.Done()
			wrng := rand.New(rand.NewPCG(seed, uint64(pid)+1))
			payload := make([]byte, soakPayload)
			for i := 0; i < perSender; i++ {
				if wctx.Err() != nil {
					return
				}
				for b := range payload {
					payload[b] = byte(wrng.Uint64())
				}
				callCtx, cancel := context.WithTimeout(wctx, 250*time.Millisecond)
				err := broadcast(callCtx, pid, i+int(pid), payload)
				cancel()
				if err != nil {
					// Down, stopped, or timed out: pause briefly so a
					// dead process doesn't spin.
					select {
					case <-wctx.Done():
						return
					case <-time.After(time.Duration(1+wrng.IntN(5)) * time.Millisecond):
					}
				}
			}
		}(ids.ProcessID(p), opts.Seed)
	}

	// isolate cuts pid off from every peer for isolation, then heals
	// the network. Meanwhile a broadcast at pid makes it run a round: a
	// group 0 lease it holds finds no quorum and is dropped, while the
	// peers suspect pid and take over at a higher ballot, as in
	// production. A holder stays cut off until its round has timed out and
	// the lease is gone (the phase timeout may exceed isolation), for
	// at most a second. One isolation at a time, healed before the
	// schedule moves on.
	probe := make([]byte, soakPayload)
	isolate := func(pid ids.ProcessID) {
		var peers []ids.ProcessID
		for p := 0; p < soakN; p++ {
			if ids.ProcessID(p) != pid {
				peers = append(peers, ids.ProcessID(p))
			}
		}
		c.Net.Partition([]ids.ProcessID{pid}, peers)
		ctx, cancel := context.WithTimeout(context.Background(), isolation)
		_ = broadcast(ctx, pid, 0, probe)
		<-ctx.Done()
		cancel()
		for end := time.Now().Add(time.Second); holdsLease(c.Obs[pid]) && c.Procs[pid].Up() && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		c.Net.Heal()
		res.Isolations++
	}
	// From mid-run on, steps isolate group 0's lease holder until one
	// isolation has cost a holder its lease, so on every seed a lease
	// changes hands (the random isolations below may meet no holder, and
	// an isolated holder may crash first).
	holderIsolated := false
	isolateHolder := func() bool {
		pid, ok := leaseHolder(c)
		if ok {
			isolate(pid)
		}
		return ok && !holdsLease(c.Obs[pid])
	}

	// Fault schedule: the seeded random walk. tripWG tracks the async
	// crash launched by every tripped storage fault, so the wind-down can
	// wait for them deterministically instead of racing the scheduler.
	var recWG, tripWG sync.WaitGroup
	for step := 0; step < soakSteps; step++ {
		time.Sleep(time.Duration(1+rng.IntN(12)) * time.Millisecond)
		if step >= soakSteps/2 && !holderIsolated {
			holderIsolated = isolateHolder()
		}
		switch rng.IntN(10) {
		case 0, 1, 2: // crash a fully-up process (at most N-1 down)
			if st.downCount() >= soakN-1 {
				continue
			}
			pid, ok := st.pick(rng, func(i int) bool {
				return st.up[i] && !st.recovering[i]
			})
			if !ok {
				continue
			}
			st.mu.Lock()
			st.up[pid] = false
			st.mu.Unlock()
			c.Procs[pid].Crash()
			res.Crashes++
		case 3, 4, 5: // recover a down process (async: replay may block)
			pid, ok := st.pick(rng, func(i int) bool {
				return !st.up[i] && !st.recovering[i]
			})
			if !ok {
				continue
			}
			if c.Procs[pid].Up() {
				// Still alive: either the armed fault never tripped, or
				// it just fired and its async crash has not landed yet.
				// Disarm reports which atomically; only the first
				// disarm of a still-armed fault can prove "unscathed",
				// so later visits conservatively leave it down-marked
				// (the landing crash or the wind-down settles it).
				st.mu.Lock()
				wasArmed := st.armed[pid]
				st.armed[pid] = false
				st.mu.Unlock()
				if !c.Faults[pid].Disarm() && wasArmed {
					st.mu.Lock()
					st.up[pid] = true
					st.mu.Unlock()
				}
				continue
			}
			// A tripped fault's async crash may have landed only
			// partially (a sharded process crashes per group); finish it
			// so Recover starts from a fully-down process.
			c.Procs[pid].Crash()
			st.mu.Lock()
			st.recovering[pid] = true
			st.mu.Unlock()
			recWG.Add(1)
			go func(pid ids.ProcessID) {
				defer recWG.Done()
				err := c.Start(pid)
				st.mu.Lock()
				st.recovering[pid] = false
				st.up[pid] = err == nil
				st.mu.Unlock()
			}(pid)
			res.Recoveries++
		case 6, 7: // arm a storage fault: the Nth next log write kills it
			if st.downCount() >= soakN-1 {
				continue
			}
			pid, ok := st.pick(rng, func(i int) bool {
				return st.up[i] && !st.recovering[i]
			})
			if !ok {
				continue
			}
			st.mu.Lock()
			st.up[pid] = false // it will die at the fault point
			st.armed[pid] = true
			st.mu.Unlock()
			c.Faults[pid].FailAfter(int64(1+rng.IntN(20)), func() {
				// Async: a synchronous Crash from inside the failing
				// log write would deadlock on the protocol's WaitGroup.
				tripWG.Add(1)
				go func() {
					defer tripWG.Done()
					c.Procs[pid].Crash()
				}()
			})
			res.StorageFaults++
		default: // disturb the lease holder's fast path
			pid, ok := st.pick(rng, func(i int) bool {
				return st.up[i] && !st.recovering[i]
			})
			if !ok {
				continue
			}
			switch rng.IntN(3) {
			case 0:
				isolate(pid)
			case 1:
				// Slow disk: widen the propose→fsync window, keeping
				// rounds in flight across the crashes and isolations.
				c.Faults[pid].SetLatency(time.Duration(1+rng.IntN(2)) * time.Millisecond)
			default:
				c.Faults[pid].SetLatency(0)
			}
		}
	}

	// Wind down: stop the workload, finish pending recoveries, bring every
	// process back up (good processes eventually remain permanently up).
	wcancel()
	wg.Wait()
	recWG.Wait()
	// Disarm every storage fault before the final recoveries, then wait
	// for any tripped fault's async crash so it cannot kill a process
	// after its "final" recovery. Faulty runs onTrip under its trigger
	// lock, so after Disarm returns every fired trip has registered with
	// tripWG — the Wait is race-free.
	for p := 0; p < soakN; p++ {
		c.Faults[p].Disarm()
		c.Faults[p].SetLatency(0)
	}
	tripWG.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), soakDrain)
	// Recover every down process concurrently: a lone recovery can block
	// in replay until a majority exists, and that majority may only form
	// once the other pending recoveries come up.
	var finalWG sync.WaitGroup
	for p := 0; p < soakN; p++ {
		pid := ids.ProcessID(p)
		if c.Procs[pid].Up() {
			continue
		}
		finalWG.Add(1)
		go func(pid ids.ProcessID) {
			defer finalWG.Done()
			for !c.Procs[pid].Up() && drainCtx.Err() == nil {
				c.Procs[pid].Crash() // tear down a half-started incarnation, retry
				if err := c.Start(pid); err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				resMu.Lock()
				res.Recoveries++
				resMu.Unlock()
			}
		}(pid)
	}
	finalWG.Wait()
	for p := 0; p < soakN; p++ {
		if !c.Procs[p].Up() {
			cancel()
			return nil, nil, fmt.Errorf("final recovery of p%d did not complete within %v", p, soakDrain)
		}
	}
	// No holder met the schedule (each had just crashed): with everyone
	// up, drive rounds through the Ω leader until it acquires a lease, then
	// isolate it.
	for !holderIsolated && drainCtx.Err() == nil {
		if d := c.Procs[0].FD(); d != nil {
			ctx, cancel := context.WithTimeout(drainCtx, isolation)
			_ = broadcast(ctx, d.Leader(), 0, probe)
			cancel()
		}
		for wait := time.Now().Add(isolation); !holderIsolated && time.Now().Before(wait); time.Sleep(time.Millisecond) {
			holderIsolated = isolateHolder()
		}
	}
	resMu.Lock()
	res.Broadcasts = sent
	resMu.Unlock()
	return drainCtx, cancel, nil
}

// leasesLost counts the lease-lost events in the planes' flight recorders:
// the evidence that an isolation cost a holder its lease.
func leasesLost(planes []*obs.Plane) int {
	n := 0
	for _, p := range planes {
		for _, e := range p.Flight().Dump() {
			if e.Kind == obs.EvLeaseLost {
				n++
			}
		}
	}
	return n
}
