// Package core implements the paper's contribution: the transformation of a
// crash-recovery Consensus protocol into a crash-recovery Atomic Broadcast
// protocol.
//
// The basic protocol (Fig. 2) is obtained with a Config whose alternative
// options are all zero: the only stable-storage write on the broadcast path
// is the initial value proposed to each Consensus instance — and that write
// is performed by the Consensus itself as its first operation (§4.3), so
// the broadcast layer adds no log operations at all.
//
// The alternative protocol (Figs. 3–4) is enabled piecewise:
//
//   - CheckpointEvery > 0 logs (k, Agreed) periodically, shortening the
//     replay phase (§5.1) and, together with a Checkpointer, replacing the
//     delivered prefix by an application-level checkpoint with a vector
//     clock, bounding log growth (§5.2);
//   - Delta > 0 enables Δ-triggered state transfer so a process that was
//     down for a long time skips the Consensus instances it missed (§5.3);
//   - BatchedBroadcast logs the Unordered set so A-broadcast returns before
//     the message is ordered (§5.4);
//   - IncrementalLog logs only the new part of the Unordered set (§5.5).
//
// The protocol is a step machine, and every rule lives in it (machine.go):
// the sequencer's pipeline and adaptive batching, the gossip task and the
// core-channel handlers, state adoption, the checkpoint task, recovery's
// retrieve half, and the ordering rules between them — rounds commit in
// round order, a BatchedBroadcast returns once its record is durable, the
// checkpoint and GC-floor cells are durable before a discard, an adopted
// state is logged as a checkpoint before its discard. Each input — a
// received frame, decided(k, v) or forgotten(k) from Consensus, a write's
// completion, a timer firing, a client call — runs to completion and
// leaves effects in one reused buffer: sends, writes, propose, learn and
// discardBelow to Consensus, timer arms, the release of a blocked
// Broadcast, and the ordered upcalls (deliver, round, restore, skip,
// checkpointed). The machine does no I/O, reads no clock and starts no
// goroutine. Protocol (protocol.go) is its one adapter: on the loop of the
// incarnation (internal/loop), which it shares with the consensus engine,
// its drain carries out both machines' effects in one step, so a decision
// is this machine's input under the lock that learned it; it replays the
// logged instances at Start (Replay), and the loop runs the upcalls, in
// order, on its one goroutine. Machine (step.go) is the same step surface
// exported: the full-stack simulator (internal/sim/stack) runs it beside
// the consensus and failure-detector machines on a virtual clock, with the
// same Replay.
package core

import (
	"errors"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// ErrStopped is returned when the process incarnation ends while an
// operation is in flight. A Broadcast interrupted this way "may have or may
// have not been A-broadcast" (§4.2) — exactly as if the caller crashed just
// before invoking it.
var ErrStopped = errors.New("core: protocol stopped")

// ErrSealed is returned by Broadcast/BroadcastAsync on a group that has been
// sealed for retirement: nothing was admitted, so the caller can safely
// re-route the payload to the group's successor (live resharding's
// bounce-with-retry). It is also the outcome of a Broadcast wait cut short by
// the drain — in that case the message "may have or may have not been
// A-broadcast" (same semantics as a crash mid-call): if it was ordered before
// the final round it is delivered in the retiring group, otherwise the orphan
// re-injection path carries the same MsgID into the successor.
var ErrSealed = errors.New("core: group sealed for retirement")

// Delivery is one A-delivered message with its agreed global position.
// Round is the Consensus instance that ordered the message; Pos is the
// message's index in the single total order (identical at every process —
// the checker verifies this). Group identifies the ordering group that
// delivered the message (always 0 unless the process runs sharded
// multi-group ordering), so one shared OnDeliver handler can serve every
// group of a sharded process.
//
// Msg.Payload is read-only: it aliases the received frame or log record
// and is shared with the delivery sequence and the decided value.
type Delivery struct {
	Msg   msg.Message
	Group ids.GroupID
	Round uint64
	Pos   uint64
}

// Snapshot is an application-level checkpoint (§5.2): the pair
// (A-checkpoint(σ), VC(σ)) plus bookkeeping that anchors it in the total
// order.
type Snapshot struct {
	// App is the opaque application state that logically contains every
	// message covered by VC. Nil when no Checkpointer is configured.
	App []byte
	// VC is the checkpoint vector clock.
	VC vclock.VC
	// Rounds is the number of Consensus instances folded into the
	// snapshot. Without a merge floor every delivered round is folded, so
	// the next round to replay is exactly Rounds; under a merge floor
	// (Config.MergeFloor) the fold may stop short of the round counter and
	// the suffix retains the explicitly delivered rounds in
	// [Rounds, k) — the checkpoint cell's own round counter, not
	// Snapshot.Rounds, is where replay resumes.
	Rounds uint64
	// Pos is the number of messages logically contained (the global
	// position of the first suffix message).
	Pos uint64
}

// Checkpointer is the upcall interface of Fig. 5. Implementations fold
// delivered messages into an opaque state and reinstall adopted states.
// Checkpoint is called under the lock of the incarnation's loop, which
// consensus shares, off the transport's goroutines, and must not call back
// into the Protocol.
type Checkpointer interface {
	// Checkpoint returns the application state obtained by applying
	// delivered to prev. Checkpoint(nil, nil) must return the initial
	// state (the paper's A-checkpoint(⊥)).
	Checkpoint(prev []byte, delivered []msg.Message) []byte
	// Restore installs an adopted application state (recovery or state
	// transfer).
	Restore(app []byte)
}

// Config parameterizes a Protocol.
type Config struct {
	PID ids.ProcessID
	N   int
	// Incarnation qualifies locally generated message identities so they
	// never repeat across crashes. The node layer logs it.
	Incarnation uint32
	// Group identifies the ordering group this protocol instance belongs
	// to when the process runs sharded multi-group ordering. It does not
	// change the protocol — each group is an independent instance of the
	// paper's algorithm — it only tags outgoing Deliveries so shared
	// handlers can tell groups apart. 0 (the default) is the sole group
	// of an unsharded deployment.
	Group ids.GroupID

	// GossipInterval is the period of the gossip task (default 20ms).
	GossipInterval time.Duration
	// MaxBatchBytes caps the cumulative payload bytes aggregated into one
	// proposal (0 = no cap). Reaching the cap makes a batch "full", which
	// overrides MaxBatchDelay's time trigger.
	MaxBatchBytes int
	// MaxBatchDelay, when positive, holds back a non-full proposal until
	// the oldest pending unordered message has waited this long, so light
	// load aggregates into bigger batches (adaptive batching: a proposal
	// is submitted on the earlier of the size trigger and the time
	// trigger). Zero proposes as soon as the round is open.
	MaxBatchDelay time.Duration
	// PipelineDepth is the number of consensus rounds the sequencer may
	// keep in flight concurrently (proposed, decision pending). 0 or 1
	// gives the paper's strictly sequential sequencer (Fig. 2); depth d
	// lets round k+d-1 be proposed while round k's decision is still
	// outstanding. Decided batches always commit in round order, so the
	// delivery sequence is identical to the sequential sequencer's, and
	// recovery replays (or truncates, via state transfer) in-flight
	// rounds from the consensus log.
	PipelineDepth int

	// CheckpointEvery triggers the checkpoint task every so many rounds
	// (0 disables it: basic protocol).
	CheckpointEvery int
	// Delta is the de-synchronization threshold that triggers a state
	// transfer (0 disables state transfer).
	Delta uint64
	// BatchedBroadcast makes Broadcast log the Unordered set and return
	// without waiting for the message to be ordered (§5.4).
	BatchedBroadcast bool
	// IncrementalLog logs only new Unordered entries (§5.5); it only
	// matters when BatchedBroadcast is set.
	IncrementalLog bool
	// Checkpointer, when set with CheckpointEvery, replaces the
	// delivered prefix with application checkpoints (§5.2).
	Checkpointer Checkpointer

	// IdleHeartbeat, when positive, makes the sequencer propose an empty
	// heartbeat round after the process has seen no committed round for
	// this long, so a quiescent group keeps advancing its round counter —
	// which is what lets a cross-group merge frontier (and the checkpoint
	// folds gated on it) move past an idle group. The deadline is
	// staggered by PID (process p waits (p+1) intervals) so normally only
	// the lowest live process proposes; any duplicate heartbeats are
	// harmless empty rounds. Heartbeat rounds deliver nothing, so they
	// grow neither the delivery suffix nor (past the next checkpoint's
	// DiscardBelow) the consensus log. 0 disables heartbeats.
	IdleHeartbeat time.Duration

	// MergeFloor, when set, bounds how far a checkpoint may fold the
	// delivered prefix: CheckpointNow folds only rounds strictly below
	// min(k, MergeFloor()). A sharded process that consumes the merged
	// cross-group sequence sets it to the process-wide merge frontier
	// (group.Stream.Frontier), so per-round delivery metadata survives
	// until every group of the process has passed the round — which is
	// what makes application checkpointing compose with merged-mode
	// sharding. Nil folds everything below k (the paper's §5.2 behavior).
	// The hook is called under the loop's lock and must not call back
	// into the Protocol.
	MergeFloor func() uint64

	// DiscardFloor, when set, caps how far a checkpoint may discard
	// Consensus state and raise the GC floor: CheckpointNow discards only
	// below min(k, DiscardFloor()). The checkpoint cell itself is still
	// logged at the full round counter — local durability never waits —
	// but rounds a slow peer may still need to re-learn stay in the
	// Consensus log, so a recovering process finds them live instead of
	// being forced into a state transfer. A sharded deployment sets this
	// to the cluster-wide minimum of the gossiped durable frontiers
	// (group.FloorTracker.ClusterFloor localized to the group's span).
	// Nil discards everything below k (the paper's Fig. 4 line (c)).
	// Called under the loop's lock, like MergeFloor; it may take its own
	// locks but must not call back into the Protocol.
	DiscardFloor func() uint64

	// OnCheckpoint, when set, is invoked after a checkpoint cell has been
	// durably logged, with the round counter the cell records — i.e. the
	// rounds this process can recover without any peer's help. Fired by
	// CheckpointNow, by a state-transfer adoption (which logs the adopted
	// state as a checkpoint), and once during recovery with the restored
	// counter. The sharded layer feeds it to the durable-frontier gossip.
	OnCheckpoint func(k uint64)

	// OnDeliver, when set, is invoked in delivery order for every
	// A-delivered message (including re-deliveries during the replay
	// phase, which reconstruct the application state in the basic
	// protocol). It and the other ordered upcalls (OnRestore, OnRound,
	// OnRoundSkip, OnCheckpoint) run outside every lock on the protocol's
	// own goroutine — never the transport's — and must not call Stop.
	// Delivered and Sequence may report a delivery before its OnDeliver
	// has run.
	OnDeliver func(Delivery)
	// OnRestore, when set, is invoked when the process adopts a
	// checkpoint or a state transfer instead of replaying: the
	// application must reset itself to the snapshot.
	OnRestore func(Snapshot)
	// OnRound, when set, is invoked after every committed Consensus
	// round, in round order, with the round's (possibly empty) batch of
	// new deliveries — the per-round structure a streaming cross-group
	// merge consumes (group.Stream.NoteRound). Unlike OnDeliver it also
	// fires for empty rounds, so a merge frontier can advance past them.
	// Re-commits during the recovery replay phase fire again (consumers
	// deduplicate by round number); rounds skipped by a state-transfer
	// adoption do not fire at all — OnRoundSkip reports the jump instead.
	// The slice is shared and must not be mutated.
	OnRound func(g ids.GroupID, round uint64, deliveries []Delivery)
	// Obs, when set, is the process-wide observability plane: protocol
	// counters register under "abcast.core.<name>{group}", sampled
	// per-message lifecycle spans feed the stage-latency histograms, and
	// anomalies (state transfers, lease churn, checkpoints) land in
	// the flight recorder. Nil disables all three at the cost of a few nil
	// checks; the plane must outlive incarnations (its counters are
	// process-lifetime monotonic — Stats() subtracts an incarnation
	// baseline).
	Obs *obs.Plane

	// FloorSelf, when set, makes every periodic gossip piggyback a merge-
	// floor frame: the process-wide merge frontier (how far this process has
	// consumed the merged cross-group sequence), the topology epoch it was
	// computed under, and the encoded topology itself. Peers feed the frames
	// to a group.FloorTracker; the cluster-wide minimum (bounded by a
	// staleness cap) then drives MergeFloor, so checkpoint folds and WAL
	// compaction wait for the slowest live consumer instead of forcing a
	// GC-triggered state transfer onto it. Called on the protocol's upcall
	// goroutine, outside every lock.
	FloorSelf func() (floor uint64, epoch uint64, topo []byte)
	// OnPeerFloor, when set with FloorSelf, receives the merge-floor frames
	// piggybacked by peers (same gossip lane as digests). Called on the
	// transport's delivery goroutine; it must not call back into the
	// Protocol.
	OnPeerFloor func(from ids.ProcessID, floor uint64, epoch uint64, topo []byte)

	// OnRoundSkip, when set, is invoked when a state-transfer adoption
	// (§5.3, including the GC-forced transfer a recovering process
	// receives when it fell below a peer's collection floor) moves the
	// round counter to nextRound without committing the rounds in
	// between: their per-round structure was folded away at the sender
	// and will never reach OnRound. Streaming merge consumers use it to
	// detect that a cursor can no longer be fed (group.Stream.NoteSkip).
	OnRoundSkip func(g ids.GroupID, nextRound uint64)
}

func (c *Config) fill() {
	if c.GossipInterval <= 0 {
		c.GossipInterval = 20 * time.Millisecond
	}
}

// gossipMaxMessages caps the messages one gossip frame carries or
// advertises; fairness only needs repetition, not size. When the Unordered
// set is larger, successive ticks rotate the window so every message is
// advertised within a few ticks.
const gossipMaxMessages = 512

// Stats counts protocol events; all fields are cumulative for the
// incarnation.
type Stats struct {
	Rounds              uint64 // consensus instances committed
	EmptyRounds         uint64 // rounds decided with an empty batch
	Delivered           uint64 // messages appended to Agreed
	Broadcasts          uint64 // local A-broadcast invocations
	GossipSent          uint64
	GossipReceived      uint64
	DigestsSent         uint64 // periodic gossips sent (always ID digests)
	PullsSent           uint64 // pull requests sent for missing payloads
	PullsServed         uint64 // pull requests answered with payloads
	StateSent           uint64 // state messages sent (we were ahead)
	StateSentGCForced   uint64 // state sends forced by the GC floor (peer below DiscardBelow)
	StateAdopted        uint64 // state transfers adopted (we were behind)
	Checkpoints         uint64
	ReplayedRounds      uint64 // rounds re-executed by replay() on recovery
	RecoveredFromCkpt   bool
	RecoveredUnordered  int // unordered messages retrieved on recovery
	ProposalsSubmitted  uint64
	PipelinedProposals  uint64 // proposals submitted for rounds beyond the head
	ProposedMessages    uint64 // messages across all submitted proposals
	DeliveredByTransfer uint64 // messages skipped over via state adoption

	HeartbeatRounds uint64 // empty rounds proposed by the idle heartbeat

	BatchFullSeals  uint64 // proposals sealed by the size cap (MaxBatchBytes)
	BatchTimerSeals uint64 // non-full proposals sealed by the time trigger (or immediately)
}
