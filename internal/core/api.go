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
// Broadcast, and the ordered upcalls (OnRestore, OnDeliver, and a Shard's
// Round, Skip and Checkpointed). The machine does no I/O, reads no clock
// and starts no goroutine. Protocol (protocol.go) is its one adapter: on
// the loop of the incarnation (internal/loop), shared with the consensus
// engine, its drain carries out both machines' effects in one step, so a
// decision is this machine's input under the lock that learned it; it
// replays the logged instances at Start (the replay phase), and the loop
// runs the upcalls, in order, outside every lock. The full-stack simulator
// (internal/sim/stack) runs the same Protocol, booted by node.Assemble, on
// a loop in its kernel's virtual time, taking Start and Broadcast as their
// step (Begin, Submit) and polling their wait (Replaying, Pending.Poll).
//
// A group is composed with others through one seam, Config.Shard: the
// layer on the other side hears rounds, skips and checkpoints, bounds the
// checkpoint's fold and discard, and owns the floor report the gossip
// carries, which this package relays as opaque bytes.
package core

import (
	"errors"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
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
	// snapshot. Without a fold floor every delivered round is folded, so
	// the next round to replay is exactly Rounds; under a fold floor
	// (Shard.FoldFloor) the fold may stop short of the round counter and
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
	// state (the paper's A-checkpoint(⊥)). delivered is a view of the
	// delivered sequence, borrowed for the call: the messages (and their
	// payloads) may be kept, the slice may not.
	Checkpoint(prev []byte, delivered []msg.Message) []byte
	// Restore installs an adopted application state (recovery or state
	// transfer).
	Restore(app []byte)
}

// Shard is the seam between one ordering group's protocol and the layer
// that composes groups into one process (abcast.Sharded); an
// implementation serves one group. Round, Skip and Checkpointed are
// ordered upcalls, like OnDeliver, and AppendFloor runs among them.
// FoldFloor and DiscardFloor are read under the loop's lock: they may take
// locks of their own but must not call back into the Protocol. A floor of
// math.MaxUint64 bounds nothing.
type Shard interface {
	// Round follows every committed round, in round order, after its
	// deliveries' OnDeliver; it fires again for re-commits in the replay
	// phase, never for rounds an adoption skips (Skip reports the jump).
	// ds is borrowed for the call: the next rounds' deliveries reuse it.
	Round(k uint64, ds []Delivery)
	// Skip reports that an adoption (a logged checkpoint at recovery, or
	// a state transfer, §5.3) moved the round counter to next.
	Skip(next uint64)
	// Checkpointed reports that a checkpoint cell recording k is durable,
	// after CheckpointNow and after a state adoption (logged as a
	// checkpoint), and once at recovery with the restored counter.
	Checkpointed(k uint64)
	// FoldFloor bounds a checkpoint's fold to the rounds below
	// min(k, FoldFloor()), so those a cross-group merge needs survive it.
	FoldFloor() uint64
	// DiscardFloor bounds a checkpoint's discard of Consensus state (and
	// the GC floor) to below min(k, DiscardFloor()); the cell records k.
	// A slow peer re-learns those rounds without a state transfer.
	DiscardFloor() uint64
	// AppendFloor appends this process's floor report to w, the frame each
	// gossip tick multisends after its tag; appending nothing sends none.
	AppendFloor(w *wire.Writer)
	// PeerFloor receives a peer's report, borrowed for the call, on the
	// transport's goroutine; it must not call back into the Protocol.
	PeerFloor(from ids.ProcessID, report []byte)
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

	// OnDeliver, when set, is invoked in delivery order for every
	// A-delivered message (including re-deliveries during the replay
	// phase, which reconstruct the application state in the basic
	// protocol). It and the other ordered upcalls (OnRestore, and the
	// Shard's Round, Skip and Checkpointed) run outside every lock on the
	// protocol's own goroutine — never the transport's — and must not call
	// Stop.
	// Delivered and Sequence may report a delivery before its OnDeliver
	// has run.
	OnDeliver func(Delivery)
	// OnRestore, when set, is invoked when the process adopts a
	// checkpoint or a state transfer instead of replaying: the
	// application must reset itself to the snapshot.
	OnRestore func(Snapshot)
	// Obs, when set, is the process-wide observability plane: protocol
	// counters register under "abcast.core.<name>{group}", sampled
	// per-message lifecycle spans feed the stage-latency histograms, and
	// anomalies (state transfers, lease churn, checkpoints) land in
	// the flight recorder. Nil disables all three at the cost of a few nil
	// checks; the plane must outlive incarnations (its counters are
	// process-lifetime monotonic — Stats() subtracts an incarnation
	// baseline).
	Obs *obs.Plane

	// Shard, when set, is the seam to the layer that composes this group
	// with others (abcast.Sharded): it hears the group's rounds and
	// checkpoints, bounds its checkpoint fold and discard, and gossips its
	// floor. Nil is the paper's single group.
	Shard Shard
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
