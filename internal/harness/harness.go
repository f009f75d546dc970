// Package harness orchestrates clusters of processes for tests,
// experiments and benchmarks: it owns the simulated network, the per-
// process stable stores (which survive crashes), fault injection, the
// history recorders, and workload/metric helpers.
//
// Cluster runs unsharded node.Node processes. ShardedCluster runs the
// shipped front end, abcast.Sharded, over one multiplexed network, with
// one recorder per ordering group. RunShardedSoak is the wall-clock soak:
// a seeded fault schedule that also injects suspicion as a real fault — a
// process is isolated on the simulated network, so a lease holder loses
// its lease to the failure detector and a higher ballot, as in
// production. RunReshardSoak drives a ShardedCluster through joins and
// retirements. The unsharded soaks (TestSoakSeeds, TestSoakSeedsWAL) are
// batches of the full-stack simulator, internal/sim/stack, where a seed
// replays step for step.
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Options configures a Cluster. Zero values give a 3-process, fault-free,
// basic-protocol cluster with fast timers.
type Options struct {
	N    int
	Seed uint64
	Net  transport.MemOptions
	// Consensus policy/timing (PID/N/Seed filled per process).
	Consensus consensus.Config
	// Core protocol options (PID/N/Incarnation and the recorder
	// callbacks are filled per process).
	Core core.Config
	FD   fd.Options
	// InjectFaultyStorage wraps each store in a storage.Faulty trigger
	// reachable via Cluster.Faulty.
	InjectFaultyStorage bool
	// OnDeliver/OnRestore, when set, are chained after the recorder's
	// callbacks for each process (application hooks).
	OnDeliver func(ids.ProcessID, core.Delivery)
	OnRestore func(ids.ProcessID, core.Snapshot)
	// Obs is the per-process observability template (PID is filled per
	// process). The zero value gives every process a working plane with
	// default sampling; set SampleRate to 1 in tests that must trace every
	// message.
	Obs obs.Options
}

func (o *Options) fill() {
	if o.N <= 0 {
		o.N = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Net.Seed == 0 {
		o.Net.Seed = o.Seed
	}
	if o.Consensus.RetryMin <= 0 {
		o.Consensus.RetryMin = 3 * time.Millisecond
	}
	if o.Consensus.RetryMax <= 0 {
		o.Consensus.RetryMax = 50 * time.Millisecond
	}
	if o.Core.GossipInterval <= 0 {
		o.Core.GossipInterval = 10 * time.Millisecond
	}
	if o.FD.Heartbeat <= 0 {
		o.FD.Heartbeat = 5 * time.Millisecond
	}
	if o.FD.Timeout <= 0 {
		o.FD.Timeout = 30 * time.Millisecond
	}
}

// DefaultLossyNet returns network options with moderate loss, duplication
// and delay — the adversarial-but-fair channel of §3.1.
func DefaultLossyNet(seed uint64) transport.MemOptions {
	return transport.MemOptions{
		Seed:     seed,
		Loss:     0.05,
		Dup:      0.02,
		MaxDelay: 2 * time.Millisecond,
	}
}

// Cluster is a group of processes over one simulated network.
type Cluster struct {
	Opts   Options
	Net    *transport.Mem
	Nodes  []*node.Node
	Stores []*storage.Accounted
	Faults []*storage.Faulty // non-nil only with InjectFaultyStorage
	Rec    *check.Recorder
	// Obs holds each process's observability plane: metrics registry,
	// lifecycle tracer and anomaly flight recorder. Always populated.
	Obs []*obs.Plane

	ctx    context.Context
	cancel context.CancelFunc
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(opts Options) *Cluster {
	opts.fill()
	c := &Cluster{
		Opts: opts,
		Net:  transport.NewMem(opts.N, opts.Net),
		Rec:  check.NewRecorder(opts.N),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for p := 0; p < opts.N; p++ {
		pid := ids.ProcessID(p)
		acct := storage.NewAccounted(storage.NewMem())
		c.Stores = append(c.Stores, acct)
		var st storage.Stable = acct
		if opts.InjectFaultyStorage {
			f := storage.NewFaulty(acct)
			c.Faults = append(c.Faults, f)
			st = f
		}
		coreCfg := opts.Core
		deliver := c.Rec.OnDeliver(pid)
		restore := c.Rec.OnRestore(pid)
		userDeliver := opts.OnDeliver
		userRestore := opts.OnRestore
		coreCfg.OnDeliver = func(d core.Delivery) {
			deliver(d)
			if userDeliver != nil {
				userDeliver(pid, d)
			}
		}
		coreCfg.OnRestore = func(s core.Snapshot) {
			restore(s)
			if userRestore != nil {
				userRestore(pid, s)
			}
		}
		obsOpts := opts.Obs
		obsOpts.PID = pid
		plane := obs.New(obsOpts)
		c.Obs = append(c.Obs, plane)
		ncfg := node.Config{
			PID:       pid,
			N:         opts.N,
			Core:      coreCfg,
			Consensus: opts.Consensus,
			FD:        opts.FD,
			Obs:       plane,
		}
		c.Nodes = append(c.Nodes, node.New(ncfg, st, c.Net))
	}
	return c
}

// StartAll boots every process.
func (c *Cluster) StartAll() error {
	for p := range c.Nodes {
		if err := c.Start(ids.ProcessID(p)); err != nil {
			return err
		}
	}
	return nil
}

// Start boots process pid (initialization or recovery).
func (c *Cluster) Start(pid ids.ProcessID) error {
	c.Rec.StartSession(pid)
	if c.Faults != nil {
		c.Faults[pid].Disarm()
	}
	return c.Nodes[pid].Start(c.ctx)
}

// Crash kills process pid (volatile state lost).
func (c *Cluster) Crash(pid ids.ProcessID) {
	c.Nodes[pid].Crash()
}

// Recover restarts process pid and returns once its replay completes. It
// returns the recovery duration.
func (c *Cluster) Recover(pid ids.ProcessID) (time.Duration, error) {
	start := time.Now()
	err := c.Start(pid)
	return time.Since(start), err
}

// Stop tears the whole cluster down.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Crash()
	}
	c.cancel()
	c.Net.Close()
}

// Broadcast submits a payload at pid, records it, and (basic protocol)
// waits until it is ordered.
func (c *Cluster) Broadcast(ctx context.Context, pid ids.ProcessID, payload []byte) (ids.MsgID, error) {
	p := c.Nodes[pid].Proto()
	if p == nil {
		return ids.MsgID{}, node.ErrDown
	}
	id, err := p.Broadcast(ctx, payload)
	if id != (ids.MsgID{}) {
		c.Rec.RecordBroadcast(id, payload)
	}
	if err == nil {
		c.Rec.MarkReturned(id)
	}
	return id, err
}

// BroadcastAsync submits without waiting for ordering.
func (c *Cluster) BroadcastAsync(pid ids.ProcessID, payload []byte) (ids.MsgID, error) {
	p := c.Nodes[pid].Proto()
	if p == nil {
		return ids.MsgID{}, node.ErrDown
	}
	id, err := p.BroadcastAsync(payload)
	if err == nil {
		c.Rec.RecordBroadcast(id, payload)
	}
	return id, err
}

// AwaitDelivered blocks until every listed process has delivered id.
func (c *Cluster) AwaitDelivered(ctx context.Context, id ids.MsgID, pids ...ids.ProcessID) error {
	for {
		all := true
		for _, pid := range pids {
			p := c.Nodes[pid].Proto()
			if p == nil || !p.Delivered(id) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("await %v: %w", id, ctx.Err())
		// A fine poll: a millisecond tick would quantize every
		// commit-latency measurement built on this wait.
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// AwaitRound blocks until process pid's round counter reaches k.
func (c *Cluster) AwaitRound(ctx context.Context, pid ids.ProcessID, k uint64) error {
	for {
		if p := c.Nodes[pid].Proto(); p != nil && p.Round() >= k {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("await round %d at p%d: %w", k, pid, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// MemStore returns the raw in-memory engine behind pid's accounted store
// (for live log-size measurements).
func (c *Cluster) MemStore(pid ids.ProcessID) *storage.Mem {
	if m, ok := c.Stores[pid].Inner().(*storage.Mem); ok {
		return m
	}
	return nil
}

// UpPIDs returns the processes currently up.
func (c *Cluster) UpPIDs() []ids.ProcessID {
	var out []ids.ProcessID
	for p, n := range c.Nodes {
		if n.Up() {
			out = append(out, ids.ProcessID(p))
		}
	}
	return out
}

// FlightDump returns the merged, time-ordered anomaly event log of every
// process's flight recorder — the first artifact to read after a failed
// soak.
func (c *Cluster) FlightDump() string {
	return obs.FormatDump(obs.DumpAll(c.Obs))
}

// violation annotates a safety/liveness violation with the flight-recorder
// dump, so the causal event sequence (lease churn, state transfers,
// revokes, slow fsyncs) ships with the failure instead of being lost with
// the process.
func (c *Cluster) violation(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w\n--- flight recorder ---\n%s", err, c.FlightDump())
}

// VerifySafety runs the recorder's Validity/Integrity/Total Order checks.
func (c *Cluster) VerifySafety() error {
	return c.violation(c.Rec.Verify())
}

// VerifyAll runs the safety checks plus Termination for the given good
// processes (which must be up).
func (c *Cluster) VerifyAll(good ...ids.ProcessID) error {
	if err := c.Rec.Verify(); err != nil {
		return c.violation(err)
	}
	must := c.Rec.DeliveredAnywhere()
	must = append(must, c.Rec.ReturnedBroadcasts()...)
	finals := make([]check.Final, 0, len(good))
	for _, pid := range good {
		p := c.Nodes[pid].Proto()
		if p == nil {
			return fmt.Errorf("good process p%d is down", pid)
		}
		base, suffix := p.Sequence()
		finals = append(finals, check.NewFinal(pid, base, suffix))
	}
	return c.violation(check.VerifyTermination(must, finals))
}

// AwaitAllDelivered waits until every id in the recorder's must-deliver set
// is delivered by all listed processes, then runs VerifyAll. The must set
// can grow while the await is in progress (messages recovered from logs or
// straggling in peers' Unordered sets get ordered mid-drain and enter
// DeliveredAnywhere), so the await loops until a full pass adds nothing new
// — otherwise VerifyAll's own recomputation would see late arrivals the
// await never covered and report a spurious termination violation.
func (c *Cluster) AwaitAllDelivered(ctx context.Context, good ...ids.ProcessID) error {
	for {
		must := c.Rec.DeliveredAnywhere()
		must = append(must, c.Rec.ReturnedBroadcasts()...)
		for _, id := range must {
			if err := c.AwaitDelivered(ctx, id, good...); err != nil {
				return err
			}
		}
		// Quiescence: nothing new entered the must set during the pass,
		// and no good process holds a pending message that a round could
		// still deliver behind the verifier's back.
		quiesced := true
		for _, pid := range good {
			if p := c.Nodes[pid].Proto(); p == nil || p.UnorderedLen() > 0 {
				quiesced = false
				break
			}
		}
		again := len(c.Rec.DeliveredAnywhere()) + len(c.Rec.ReturnedBroadcasts())
		if quiesced && again == len(must) {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("await quiescence: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return c.VerifyAll(good...)
}
