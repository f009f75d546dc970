// Package abcast is the public API of the crash-recovery Atomic Broadcast
// library — a reproduction of Rodrigues & Raynal, "Atomic Broadcast in
// Asynchronous Crash-Recovery Distributed Systems" (ICDCS 2000).
//
// # Overview
//
// A Process is one member of a static group. Messages submitted with
// Broadcast are delivered by every good process in the same total order,
// even though processes may crash, lose their volatile memory and the
// messages that arrived while they were down, and later recover from
// stable storage.
//
// The zero configuration runs the paper's basic protocol (Fig. 2), whose
// only stable-storage writes are the Consensus proposals. The alternative
// protocol of §5 is enabled piecewise through Config (checkpointing, state
// transfer, batched broadcast, incremental logging, application
// checkpoints).
//
// # Pipelining and adaptive batching
//
// Beyond the paper, the ordering hot path can be pipelined and batched:
//
//   - ProtocolOptions.PipelineDepth > 1 keeps several consensus rounds in
//     flight at once — round k+1 is proposed while round k's decision is
//     still outstanding. Decided batches always commit in round order, so
//     the total order is exactly the sequential protocol's; recovery
//     replays (or skips, via state transfer) in-flight rounds from the
//     consensus log.
//   - MaxBatchBytes / MaxBatchDelay control adaptive batching: pending
//     messages aggregate into one proposal until the batch is full (size
//     trigger) or the oldest pending message has waited MaxBatchDelay
//     (time trigger), whichever comes first.
//
// Combining BatchedBroadcast with PipelineDepth 4 and a small MaxBatchDelay
// is the recommended high-throughput configuration; it is the one the
// benchmark pins (bench/README.md, workload small-closed).
//
// # Group-commit durable logging
//
// On durable deployments the storage layer has the same shape of knob:
// NewWALStorage, the one durable engine, returns a group-commit write-ahead
// log that coalesces the log writes of all in-flight rounds and concurrent
// Broadcast calls into one fsync. Its durability policy (SyncEvery /
// MaxSyncDelay) is set in WALOptions when the log is opened, and nowhere
// else. The protocol issues its persists asynchronously and acts on each
// only once the covering fsync completes, as the paper's crash-recovery
// model requires (§2.1, §5.5).
// The benchmark's storage.fsyncs_per_msg and storage.records_per_fsync
// report how far the coalescing goes.
//
// # Sharded multi-group ordering
//
// Past the single sequencer's ceiling (PipelineDepth batches per consensus
// round trip), Sharded runs G independent ordering groups —
// the paper's protocol instantiated G times — behind one API, one
// multiplexed connection set (NewShardedNetwork) and one shared store
// whose group-commit fsyncs all groups share. Keys are placed on groups
// by a deterministic consistent-hash Router (or explicitly); each group
// delivers its own total order, and Merged computes an optional
// deterministic global interleave. See the README's "Sharding" section
// for ordering guarantees and caveats; the benchmark's sharded-closed
// workload is the G=4 measurement.
//
// # Log lifecycle
//
// Long-lived deployments keep their state bounded end to end. In merged
// mode, ShardedConfig.MergedDelivery gates every group's checkpoint fold
// by the process-wide merge frontier, so application checkpointing
// (§5.2) now composes with the cross-group merge; Sharded.MergeCursor
// streams the global sequence online and incrementally where Merged
// recomputes it per call. On disk, WALOptions.CompactFactor enables
// background segment compaction: the WAL rewrites its live state into a
// fresh segment (group-committed before the old segments are unlinked,
// so every crash point replays to the same index) and reclaims the dead
// records that checkpointing leaves behind (the benchmark's
// storage.wal_mb_end on large-closed). An idle group does not stall any
// of this: in merged mode the quiescent group's sequencer proposes empty
// heartbeat rounds after a bounded idle interval
// (ProtocolOptions.IdleHeartbeat), so the merge frontier — and every
// group's checkpoint reclamation behind it — keeps advancing without
// traffic on every group.
//
// # Latency fast path
//
// Under PolicyLeader (the default) the stable sequencer always runs on a
// quorum lease (a ranged promise, multi-Paxos style) — there is no option
// for it: while the same process keeps proposing, each round skips the
// prepare phase and runs accept-only at the lease ballot, its accept sent
// beside its proposal write, so a commit waits for one durable write (the
// accept quorum's) instead of a chain of them. FD suspicion, a
// competitor's higher ballot, or lease expiry falls back to full
// consensus. Safety rests on ballots and quorum intersection, never on
// clocks: a lease ballot is used by one incarnation only, so no second
// value can appear at it even when the holder crashes before its proposal
// is durable (the README's "Latency" section states the rule). Every
// delivery is final: OnDeliver is the only delivery stream.
//
// # Elastic resharding
//
// The group count G is no longer fixed at construction: Sharded.AddGroup
// grows a running cluster and Sharded.RetireGroup drains and removes a
// group, both under load and without restarting any process. Transitions
// are coordinated through the ordering machinery itself — a JOIN or SEAL
// marker is broadcast as an ordinary agreed round, so every process
// observes the topology change at the same point in every group's total
// order. AddGroup is called on ONE process (the marker replicates the
// decision); RetireGroup is called on EVERY process (each must stand up
// nothing, only locally drain) and is idempotent — ErrSealed from a
// concurrent caller means the retirement is already underway. A sealed
// group stops accepting proposals, finishes a bounded drain window (the
// maximum pipeline depth, so every in-flight round lands), re-injects
// orphaned messages into surviving groups under remapped identities, and
// archives its namespace to stable storage (ReapRetired deletes the
// archives once they are no longer wanted). Each transition bumps a
// topology epoch; the consistent-hash router swaps atomically under the
// epoch, Broadcast transparently re-routes keys addressed to a sealed
// group, and the merged cursor splices the epochs deterministically — the
// global sequence is identical on every process across the transition.
//
// Resharding folds in a cluster-wide GC floor: every group's digest
// gossip carries the process's durable (checkpoint-covered) merge
// frontier, and checkpoint folds discard consensus state only below the
// cluster-wide minimum, capped by ShardedConfig.MergeFloorStaleness. A
// process that recovers within the cap therefore finds every round it
// still needs and never takes a GC-forced state transfer. A group's core
// meets this layer at one seam (core.Shard) and relays the floor report as
// bytes only this layer encodes (group.AppendFloor). The README's
// "Elastic resharding" section covers the API contract and failure
// semantics.
//
// # Shared process services
//
// A sharded process's background costs do not scale with G: one
// process-level failure detector serves every group (the paper's liveness oracle is per process, §3.5 — the groups
// of a process crash and recover together), the periodic gossip carries
// message-ID digests with pull-based repair (a payload crosses a link in
// the eager push, and again only when a peer pulls it), and
// NewShardedNetworkOpts coalesces small frames from all groups into single
// transport writes (the network twin of the WAL's group-commit). The
// benchmark's group.frames_per_msg and group.coalesce_ratio on
// sharded-closed report it; the README's "Performance tuning" section
// covers the knobs.
//
// # Quickstart
//
//	net := abcast.NewMemNetwork(3, abcast.MemNetOptions{})
//	for pid := 0; pid < 3; pid++ {
//		p, _ := abcast.NewProcess(abcast.Config{
//			PID: abcast.ProcessID(pid), N: 3,
//			OnDeliver: func(d abcast.Delivery) { fmt.Println(d.Msg) },
//		}, abcast.NewMemStorage(), net)
//		p.Start(ctx)
//	}
//
// See examples/ for runnable programs and the README for the architecture.
package abcast

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Re-exported identity types.
type (
	// ProcessID identifies a group member (0..N-1).
	ProcessID = ids.ProcessID
	// MsgID is a globally unique message identity.
	MsgID = ids.MsgID
	// Message is an application message with its identity.
	Message = msg.Message
	// Delivery is an A-delivered message with its agreed position.
	// Delivery.Msg.Payload is READ-ONLY: it is a slice of the network
	// frame or log record the message arrived in, shared with the
	// protocol's own state (the agreed sequence, the decided value it
	// re-sends to lagging peers). Keep it or slice it for as long as you
	// like — it is never reused — but copy it before changing a byte. The
	// payload passed to Broadcast, conversely, is only borrowed for the
	// call.
	Delivery = core.Delivery
	// Snapshot is an application-level checkpoint (§5.2).
	Snapshot = core.Snapshot
	// Checkpointer is the A-checkpoint upcall interface (Fig. 5). The
	// delivered slice Checkpoint folds is a view of the delivered
	// sequence, borrowed for the call: copy it to keep it.
	Checkpointer = core.Checkpointer
	// Stats exposes broadcast-layer counters.
	Stats = core.Stats
)

// Network abstracts the transport (in-memory simulation or TCP).
type Network = transport.Network

// MemNetOptions configures the simulated network.
type MemNetOptions = transport.MemOptions

// Storage is the stable-storage interface processes persist into.
type Storage = storage.Stable

// ConsensusPolicy selects the consensus engine's coordinator style.
type ConsensusPolicy = consensus.Policy

// FDOptions tunes the failure detector's heartbeat interval and suspicion
// timeout. Lower values suspect (and hand off coordination) faster at the
// cost of more background traffic and a higher false-suspicion risk on a
// jittery network.
type FDOptions = fd.Options

// Consensus coordinator policies: PolicyLeader follows an Ω leader hint
// (ACT-style [1]); PolicyRotating rotates coordinators (HMR-style [11]).
const (
	PolicyLeader   = consensus.PolicyLeader
	PolicyRotating = consensus.PolicyRotating
)

// Config assembles one process. Unset durations use library defaults tuned
// for LAN-like latencies.
type Config struct {
	// PID and N identify the process within its static group.
	PID ProcessID
	N   int

	// Protocol selects the broadcast options; its zero value is the
	// paper's basic protocol.
	Protocol ProtocolOptions

	// Policy selects the consensus coordinator policy (default
	// PolicyLeader).
	Policy ConsensusPolicy

	// FD tunes the failure detector (zero values use library defaults).
	FD FDOptions

	// OnDeliver receives every A-delivered message in order (including
	// re-deliveries during recovery replay).
	OnDeliver func(Delivery)
	// OnRestore is invoked when the process adopts a checkpoint or
	// state transfer instead of replaying.
	OnRestore func(Snapshot)
}

// ProtocolOptions mirrors the §5 alternative-protocol knobs plus the
// ordering hot-path options (round pipelining and adaptive batching). The
// stable-sequencer lease is not among them: it is how Config.Policy's
// default, PolicyLeader, orders (see "Latency fast path" above).
type ProtocolOptions struct {
	// CheckpointEvery logs (k, Agreed) every so many rounds (§5.1);
	// 0 disables checkpointing (basic protocol).
	CheckpointEvery int
	// Delta enables state transfer when a process lags more than Delta
	// rounds (§5.3); 0 disables it.
	Delta uint64
	// BatchedBroadcast returns from Broadcast after logging the
	// Unordered set, before ordering (§5.4).
	BatchedBroadcast bool
	// IncrementalLog logs only new Unordered entries (§5.5).
	IncrementalLog bool
	// Checkpointer enables application-level checkpoints (§5.2).
	Checkpointer Checkpointer

	// GossipInterval is the period of the background gossip task (zero
	// uses the library default, 20ms). Gossip repetition is what makes
	// dissemination fair-lossy-proof; shorter intervals spread messages
	// and round news faster at more background traffic.
	GossipInterval time.Duration

	// PipelineDepth is the number of consensus rounds that may be in
	// flight concurrently. 0 or 1 reproduces the paper's strictly
	// sequential sequencer; higher depths overlap round k+1's proposal
	// with round k's decision latency for higher throughput. Deliveries
	// always commit in round order, so the total order is unchanged.
	PipelineDepth int
	// MaxBatchBytes caps the cumulative payload bytes aggregated into
	// one proposal (0 = no cap); a batch at the cap is "full" and is
	// proposed immediately.
	MaxBatchBytes int
	// MaxBatchDelay, when positive, holds back a non-full proposal until
	// the oldest pending message has waited this long, trading a bounded
	// amount of latency for bigger batches under light load (adaptive
	// batching: the earlier of the size and time triggers wins).
	MaxBatchDelay time.Duration

	// IdleHeartbeat, when positive, makes the sequencer propose an empty
	// heartbeat round after the group has committed nothing for this long
	// (staggered by PID so normally one process fires), keeping an idle
	// group's round counter moving. Sharded merged-mode deployments need
	// it so a quiescent group does not pin the merge frontier and every
	// group's checkpoint reclamation behind it — NewSharded defaults it
	// on when MergedDelivery is set (set it negative to force it off).
	// Heartbeat rounds deliver nothing and are reclaimed by the normal
	// checkpoint/compaction lifecycle.
	IdleHeartbeat time.Duration
}

// Validate rejects nonsensical options — negative depths, counts or
// delays — with explicit errors instead of silent misbehavior. NewProcess and NewSharded call it;
// IdleHeartbeat may be negative (documented: forces heartbeats off).
func (o ProtocolOptions) Validate() error {
	var errs []error
	neg := func(name string, bad bool) {
		if bad {
			errs = append(errs, fmt.Errorf("abcast: negative %s", name))
		}
	}
	neg("CheckpointEvery", o.CheckpointEvery < 0)
	neg("GossipInterval", o.GossipInterval < 0)
	neg("PipelineDepth", o.PipelineDepth < 0)
	neg("MaxBatchBytes", o.MaxBatchBytes < 0)
	neg("MaxBatchDelay", o.MaxBatchDelay < 0)
	return errors.Join(errs...)
}

// Process is one group member with crash/recover lifecycle.
type Process struct {
	n *node.Node
}

// coreConfig maps the public protocol options onto the core layer's
// config. NewProcess and NewSharded both build their per-node configs
// from it, so a new ProtocolOptions knob wired here reaches sharded and
// unsharded deployments alike.
func (o ProtocolOptions) coreConfig() core.Config {
	return core.Config{
		CheckpointEvery:  o.CheckpointEvery,
		Delta:            o.Delta,
		BatchedBroadcast: o.BatchedBroadcast,
		IncrementalLog:   o.IncrementalLog,
		Checkpointer:     o.Checkpointer,
		GossipInterval:   o.GossipInterval,
		PipelineDepth:    o.PipelineDepth,
		MaxBatchBytes:    o.MaxBatchBytes,
		MaxBatchDelay:    o.MaxBatchDelay,
		IdleHeartbeat:    max(o.IdleHeartbeat, 0),
	}
}

// NewProcess builds a process over the given stable storage and network.
// The same Storage must be passed again after a crash for recovery to work;
// the same Network must be shared by the whole group. Invalid options
// (negative depths, counts or delays) are rejected with an explicit
// error.
func NewProcess(cfg Config, st Storage, net Network) (*Process, error) {
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, err
	}
	coreCfg := cfg.Protocol.coreConfig()
	coreCfg.OnDeliver = cfg.OnDeliver
	coreCfg.OnRestore = cfg.OnRestore
	nodeCfg := node.Config{
		PID:       cfg.PID,
		N:         cfg.N,
		Core:      coreCfg,
		Consensus: consensus.Config{Policy: cfg.Policy},
		FD:        cfg.FD,
	}
	return &Process{n: node.New(nodeCfg, st, net)}, nil
}

// Start boots the process (initialization or recovery). It blocks until
// the replay phase completes.
func (p *Process) Start(ctx context.Context) error {
	return p.n.Start(ctx)
}

// Crash kills the process, losing all volatile state. Stable storage is
// untouched; call Start to recover.
func (p *Process) Crash() {
	p.n.Crash()
}

// Up reports whether the process is currently running.
func (p *Process) Up() bool { return p.n.Up() }

// Broadcast implements A-broadcast(m): in the basic protocol it returns
// once m has a position in the total order.
func (p *Process) Broadcast(ctx context.Context, payload []byte) (MsgID, error) {
	return p.n.Broadcast(ctx, payload)
}

// Delivered reports whether id is in this process's delivery sequence.
func (p *Process) Delivered(id MsgID) bool {
	proto := p.n.Proto()
	return proto != nil && proto.Delivered(id)
}

// Sequence implements A-deliver-sequence(): the base snapshot that
// initiates the sequence plus the explicitly delivered suffix.
func (p *Process) Sequence() (Snapshot, []Delivery) {
	proto := p.n.Proto()
	if proto == nil {
		return Snapshot{}, nil
	}
	return proto.Sequence()
}

// Round returns the current protocol round (the next Consensus instance).
func (p *Process) Round() uint64 {
	proto := p.n.Proto()
	if proto == nil {
		return 0
	}
	return proto.Round()
}

// CheckpointNow forces a checkpoint (alternative protocol).
func (p *Process) CheckpointNow() error {
	proto := p.n.Proto()
	if proto == nil {
		return node.ErrDown
	}
	return proto.CheckpointNow()
}

// Stats returns broadcast-layer counters for the live incarnation.
func (p *Process) Stats() Stats {
	proto := p.n.Proto()
	if proto == nil {
		return Stats{}
	}
	return proto.Stats()
}

// NewMemNetwork creates the in-memory fair-lossy network for n processes.
func NewMemNetwork(n int, opts MemNetOptions) *transport.Mem {
	return transport.NewMem(n, opts)
}

// NewTCPNetwork creates a TCP network; addrs[i] is process i's listen
// address.
func NewTCPNetwork(addrs []string) *transport.TCP {
	return transport.NewTCP(addrs)
}

// NewMemStorage creates volatile-machine-resident stable storage (it
// survives process crashes because the caller owns it, mirroring how a
// real OS keeps files across process restarts).
func NewMemStorage() *storage.Mem { return storage.NewMem() }

// WALOptions tunes the group-commit write-ahead-log engine; its SyncEvery
// and MaxSyncDelay are the durability policy (how many records, or how
// long, one fsync may wait for company).
type WALOptions = storage.WALOptions

// NewWALStorage creates group-commit write-ahead-log storage rooted at
// dir: one segmented append-only log, CRC framing, torn-tail recovery, and
// a committer that coalesces all concurrent writes into one fsync. A
// Put/Append returns (and the protocol acts) only once the fsync covering
// its record completes, so durability is that of one fsync per write at a
// fraction of the fsyncs (the benchmark's storage.fsyncs_per_msg). Close it
// when the process is retired; crashes need no cleanup (reopen replays the
// durable prefix and truncates any torn tail).
func NewWALStorage(dir string, opts WALOptions) (*storage.WAL, error) {
	return storage.OpenWAL(dir, opts)
}
