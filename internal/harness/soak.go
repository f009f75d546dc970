package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// SoakOptions configures one randomized crash-recovery soak run. A soak
// interleaves a broadcast workload with a seeded random schedule of
// crashes, recoveries, injected storage faults, process isolations and
// fsync latency over a lossy network, then recovers everyone, drains, and
// verifies the full Atomic Broadcast specification (total order, no loss
// of returned broadcasts, no duplication) via the recorder.
//
// Every run is a pure function of Seed (plus the scheduler's goroutine
// interleavings): re-running a failing seed reproduces the same fault
// schedule. Isolations and fsync latency joined every schedule after some
// seeds were recorded, so a seed noted before then walks a different
// schedule now. See RunSoak.
type SoakOptions struct {
	// Seed drives the whole schedule (also the network's loss/dup/delay
	// pattern). Required; 0 picks the harness default.
	Seed uint64
	// N is the group size (default 3).
	N int
	// Steps is the number of fault-schedule steps (default 40).
	Steps int
	// Msgs is the number of broadcast attempts the workload makes across
	// the run (default 120).
	Msgs int
	// Payload is the broadcast payload size in bytes (default 32).
	Payload int
	// MaxDown caps how many processes may be down simultaneously
	// (default N-1, the crash-recovery model's worst survivable case for
	// eventual progress).
	MaxDown int
	// Core selects the protocol variant under test (basic, pipelined,
	// batched, checkpointing, ...).
	Core core.Config
	// Consensus extends each process's consensus engine configuration —
	// notably the lease's TTL (PID/N/Seed are filled per process, as
	// always).
	Consensus consensus.Config
	// NewStore, when set, supplies each process's stable-storage engine
	// (default in-memory). The soak's storage-fault injection sits on
	// top of it either way, so a WAL-backed soak exercises injected
	// crashes over the group-commit pipeline.
	NewStore func(ids.ProcessID) storage.Stable
	// DrainTimeout bounds the final catch-up-and-verify phase (default
	// 60s).
	DrainTimeout time.Duration
}

func (o *SoakOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.N <= 0 {
		o.N = 3
	}
	if o.Steps <= 0 {
		o.Steps = 40
	}
	if o.Msgs <= 0 {
		o.Msgs = 120
	}
	if o.Payload <= 0 {
		o.Payload = 32
	}
	if o.MaxDown <= 0 || o.MaxDown >= o.N {
		o.MaxDown = o.N - 1
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 60 * time.Second
	}
}

// SoakResult summarizes what one soak run exercised.
type SoakResult struct {
	Crashes       int
	Recoveries    int
	StorageFaults int
	Broadcasts    int // broadcast attempts that produced a message id
	Returned      int // broadcasts whose A-broadcast returned (must deliver)
	Delivered     int // distinct messages in the final total order
	Isolations    int // processes the schedule cut off from their peers
	LeasesLost    int // lease-lost events in the flight recorders
}

func (r SoakResult) String() string {
	return fmt.Sprintf("crashes=%d recoveries=%d storage-faults=%d broadcasts=%d returned=%d delivered=%d isolations=%d leases-lost=%d",
		r.Crashes, r.Recoveries, r.StorageFaults, r.Broadcasts, r.Returned, r.Delivered, r.Isolations, r.LeasesLost)
}

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

// soakTarget abstracts the cluster under soak — a single-group Cluster or
// a ShardedCluster — behind the whole-process operations the schedule
// acts on. Crash must be idempotent (crashing a down or half-down process
// finishes the job); Broadcast receives a lane, which a sharded target maps
// onto one of its groups (lane 0 is group 0, the only group of a Cluster).
type soakTarget interface {
	Crash(pid ids.ProcessID)
	Start(pid ids.ProcessID) error
	ProcessUp(pid ids.ProcessID) bool
	Fault(pid ids.ProcessID) *storage.Faulty
	Broadcast(ctx context.Context, pid ids.ProcessID, lane int, payload []byte) (ids.MsgID, error)
	// Net is the simulated network the schedule isolates processes on.
	Net() *transport.Mem
	// Leader returns the Ω leader as the first up process's failure
	// detector sees it; false when no process is up.
	Leader() (ids.ProcessID, bool)
}

// isolationFDTimeouts is how long an isolation lasts, in FD timeouts: long
// enough for the peers to suspect the isolated process and a new leader to
// run a higher ballot.
const isolationFDTimeouts = 3

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
func leaseHolder(t soakTarget, planes []*obs.Plane) (ids.ProcessID, bool) {
	for p, plane := range planes {
		if pid := ids.ProcessID(p); holdsLease(plane) && t.ProcessUp(pid) {
			return pid, true
		}
	}
	return 0, false
}

// soakSchedule holds the shape parameters shared by every soak flavor.
type soakSchedule struct {
	seed         uint64
	n            int
	steps        int
	msgs         int
	payload      int
	maxDown      int
	isolation    time.Duration // how long an isolated process stays cut off
	drainTimeout time.Duration
	planes       []*obs.Plane // the processes' planes, read for lease holders
}

// soakCounts is what the schedule engine observed.
type soakCounts struct {
	crashes       int
	recoveries    int
	storageFaults int
	broadcasts    int // attempts that produced a message id
	isolations    int
}

// runSoakSchedule is the soak engine shared by RunSoak and
// RunShardedSoak: it drives the closed-loop broadcast workload and the
// seeded random walk of crashes, async recoveries, armed storage faults,
// process isolations and fsync latency against the target, then winds
// down — stopping the workload, waiting out in-flight recoveries and fault
// trips, and recovering every process (retrying within drainTimeout). The
// caller drains and verifies afterwards; the drain context is returned so
// it covers both phases.
func runSoakSchedule(sch soakSchedule, t soakTarget) (soakCounts, context.Context, context.CancelFunc, error) {
	var res soakCounts
	rng := rand.New(rand.NewPCG(sch.seed, sch.seed^0x50a4_50a4_50a4_50a4))

	st := &soakState{
		up:         make([]bool, sch.n),
		recovering: make([]bool, sch.n),
		armed:      make([]bool, sch.n),
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
		id, err := t.Broadcast(ctx, pid, lane, payload)
		if id != (ids.MsgID{}) {
			resMu.Lock()
			sent++
			resMu.Unlock()
		}
		return err
	}
	perSender := sch.msgs / sch.n
	for p := 0; p < sch.n; p++ {
		wg.Add(1)
		go func(pid ids.ProcessID, seed uint64) {
			defer wg.Done()
			wrng := rand.New(rand.NewPCG(seed, uint64(pid)+1))
			payload := make([]byte, sch.payload)
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
		}(ids.ProcessID(p), sch.seed)
	}

	// isolate cuts pid off from every peer for sch.isolation, then heals
	// the network. Meanwhile a broadcast at pid makes it run a round: a
	// group 0 lease it holds finds no quorum and is dropped, while the
	// peers suspect pid and take over at a higher ballot, as in
	// production. A holder stays cut off until its round has timed out and
	// the lease is gone (the phase timeout may exceed sch.isolation), for
	// at most a second. One isolation at a time, healed before the
	// schedule moves on.
	probe := make([]byte, sch.payload)
	isolate := func(pid ids.ProcessID) {
		var peers []ids.ProcessID
		for p := 0; p < sch.n; p++ {
			if ids.ProcessID(p) != pid {
				peers = append(peers, ids.ProcessID(p))
			}
		}
		t.Net().Partition([]ids.ProcessID{pid}, peers)
		ctx, cancel := context.WithTimeout(context.Background(), sch.isolation)
		_ = broadcast(ctx, pid, 0, probe)
		<-ctx.Done()
		cancel()
		for end := time.Now().Add(time.Second); holdsLease(sch.planes[pid]) && t.ProcessUp(pid) && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		t.Net().Heal()
		res.isolations++
	}
	// From mid-run on, steps isolate group 0's lease holder until one
	// isolation has cost a holder its lease, so on every seed a lease
	// changes hands (the random isolations below may meet no holder, and
	// an isolated holder may crash first).
	holderIsolated := false
	isolateHolder := func() bool {
		pid, ok := leaseHolder(t, sch.planes)
		if ok {
			isolate(pid)
		}
		return ok && !holdsLease(sch.planes[pid])
	}

	// Fault schedule: the seeded random walk. tripWG tracks the async
	// crash launched by every tripped storage fault, so the wind-down can
	// wait for them deterministically instead of racing the scheduler.
	var recWG, tripWG sync.WaitGroup
	for step := 0; step < sch.steps; step++ {
		time.Sleep(time.Duration(1+rng.IntN(12)) * time.Millisecond)
		if step >= sch.steps/2 && !holderIsolated {
			holderIsolated = isolateHolder()
		}
		switch rng.IntN(10) {
		case 0, 1, 2: // crash a fully-up process (respecting maxDown)
			if st.downCount() >= sch.maxDown {
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
			t.Crash(pid)
			res.crashes++
		case 3, 4, 5: // recover a down process (async: replay may block)
			pid, ok := st.pick(rng, func(i int) bool {
				return !st.up[i] && !st.recovering[i]
			})
			if !ok {
				continue
			}
			if t.ProcessUp(pid) {
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
				if !t.Fault(pid).Disarm() && wasArmed {
					st.mu.Lock()
					st.up[pid] = true
					st.mu.Unlock()
				}
				continue
			}
			// A tripped fault's async crash may have landed only
			// partially (a sharded process crashes per group); finish it
			// so Recover starts from a fully-down process.
			t.Crash(pid)
			st.mu.Lock()
			st.recovering[pid] = true
			st.mu.Unlock()
			recWG.Add(1)
			go func(pid ids.ProcessID) {
				defer recWG.Done()
				err := t.Start(pid)
				st.mu.Lock()
				st.recovering[pid] = false
				st.up[pid] = err == nil
				st.mu.Unlock()
			}(pid)
			res.recoveries++
		case 6, 7: // arm a storage fault: the Nth next log write kills it
			if st.downCount() >= sch.maxDown {
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
			t.Fault(pid).FailAfter(int64(1+rng.IntN(20)), func() {
				// Async: a synchronous Crash from inside the failing
				// log write would deadlock on the protocol's WaitGroup.
				tripWG.Add(1)
				go func() {
					defer tripWG.Done()
					t.Crash(pid)
				}()
			})
			res.storageFaults++
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
				t.Fault(pid).SetLatency(time.Duration(1+rng.IntN(2)) * time.Millisecond)
			default:
				t.Fault(pid).SetLatency(0)
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
	for p := 0; p < sch.n; p++ {
		t.Fault(ids.ProcessID(p)).Disarm()
		t.Fault(ids.ProcessID(p)).SetLatency(0)
	}
	tripWG.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), sch.drainTimeout)
	// Recover every down process concurrently: a lone recovery can block
	// in replay until a majority exists, and that majority may only form
	// once the other pending recoveries come up.
	var finalWG sync.WaitGroup
	for p := 0; p < sch.n; p++ {
		pid := ids.ProcessID(p)
		if t.ProcessUp(pid) {
			continue
		}
		finalWG.Add(1)
		go func(pid ids.ProcessID) {
			defer finalWG.Done()
			for !t.ProcessUp(pid) && drainCtx.Err() == nil {
				t.Crash(pid) // tear down a half-started incarnation, retry
				if err := t.Start(pid); err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				resMu.Lock()
				res.recoveries++
				resMu.Unlock()
			}
		}(pid)
	}
	finalWG.Wait()
	for p := 0; p < sch.n; p++ {
		if !t.ProcessUp(ids.ProcessID(p)) {
			cancel()
			return res, nil, nil, fmt.Errorf("final recovery of p%d did not complete within DrainTimeout", p)
		}
	}
	// No holder met the schedule (each had just crashed): with everyone
	// up, drive rounds through the Ω leader until it acquires a lease, then
	// isolate it.
	for !holderIsolated && drainCtx.Err() == nil {
		if leader, ok := t.Leader(); ok {
			ctx, cancel := context.WithTimeout(drainCtx, sch.isolation)
			_ = broadcast(ctx, leader, 0, probe)
			cancel()
		}
		for wait := time.Now().Add(sch.isolation); !holderIsolated && time.Now().Before(wait); time.Sleep(time.Millisecond) {
			holderIsolated = isolateHolder()
		}
	}
	resMu.Lock()
	res.broadcasts = sent
	resMu.Unlock()
	return res, drainCtx, cancel, nil
}

// clusterTarget adapts the single-group Cluster to the soak engine.
type clusterTarget struct{ c *Cluster }

func (t clusterTarget) Crash(pid ids.ProcessID)                 { t.c.Crash(pid) }
func (t clusterTarget) Start(pid ids.ProcessID) error           { return t.c.Start(pid) }
func (t clusterTarget) ProcessUp(pid ids.ProcessID) bool        { return t.c.Nodes[pid].Up() }
func (t clusterTarget) Fault(pid ids.ProcessID) *storage.Faulty { return t.c.Faults[pid] }
func (t clusterTarget) Net() *transport.Mem                     { return t.c.Net }
func (t clusterTarget) Leader() (ids.ProcessID, bool) {
	for _, n := range t.c.Nodes {
		if d := n.Detector(); d != nil {
			return d.Leader(), true
		}
	}
	return 0, false
}
func (t clusterTarget) Broadcast(ctx context.Context, pid ids.ProcessID, _ int, payload []byte) (ids.MsgID, error) {
	return t.c.Broadcast(ctx, pid, payload)
}

// RunSoak executes one randomized crash-recovery soak and returns the
// verification error, if any. The returned SoakResult is valid either way.
func RunSoak(opts SoakOptions) (SoakResult, error) {
	opts.fill()
	var res SoakResult

	clOpts := Options{
		N:                   opts.N,
		Seed:                opts.Seed,
		Net:                 DefaultLossyNet(opts.Seed),
		Consensus:           opts.Consensus,
		Core:                opts.Core,
		InjectFaultyStorage: true,
		NewStore:            opts.NewStore,
	}
	c := NewCluster(clOpts)
	defer c.Stop()
	if err := c.StartAll(); err != nil {
		return res, fmt.Errorf("soak seed=%d: start: %w", opts.Seed, err)
	}

	counts, drainCtx, cancel, err := runSoakSchedule(soakSchedule{
		seed:         opts.Seed,
		n:            opts.N,
		steps:        opts.Steps,
		msgs:         opts.Msgs,
		payload:      opts.Payload,
		maxDown:      opts.MaxDown,
		isolation:    isolationFDTimeouts * c.Opts.FD.Timeout,
		drainTimeout: opts.DrainTimeout,
		planes:       c.Obs,
	}, clusterTarget{c})
	res = SoakResult{
		Crashes:       counts.crashes,
		Recoveries:    counts.recoveries,
		StorageFaults: counts.storageFaults,
		Broadcasts:    counts.broadcasts,
		Isolations:    counts.isolations,
	}
	if err != nil {
		return res, fmt.Errorf("soak seed=%d: %w", opts.Seed, err)
	}
	defer cancel()
	res.Returned = len(c.Rec.ReturnedBroadcasts())

	var all []ids.ProcessID
	for p := 0; p < opts.N; p++ {
		all = append(all, ids.ProcessID(p))
	}
	if err := c.AwaitAllDelivered(drainCtx, all...); err != nil {
		return res, fmt.Errorf("soak seed=%d: drain: %w", opts.Seed, err)
	}
	res.Delivered = len(c.Rec.DeliveredAnywhere())
	res.LeasesLost = leasesLost(c.Obs)
	if err := verifyObsInvariants(c.Obs); err != nil {
		return res, fmt.Errorf("soak seed=%d: %w", opts.Seed, err)
	}
	return res, nil
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
