// Package consensus implements the paper's Consensus building block for the
// asynchronous crash-recovery model (§3.2–§3.5): a multi-instance engine
// with idempotent propose/decided primitives satisfying
//
//   - Termination: every good process eventually decides,
//   - Uniform Validity: the decision was proposed by some process,
//   - Uniform Agreement: no two processes (good or bad) decide differently,
//
// provided a majority of processes are good (the assumption made by the
// crash-recovery consensus protocols the paper cites [1, 11, 14]).
//
// The engine follows the logged ballot-voting (synod) discipline, with one
// rule for what waits for the log: a process sends a promise or an accepted
// reply only after the acceptor cell protecting it is durable; a proposer
// sends its own value at a classic ballot only after its proposal is
// durable, and at its lease ballot beside the proposal write; everything
// else — prepare, decide, handing a decision to WaitDecided — may run ahead
// of the local log, because it carries nothing a quorum does not already
// hold durably. The lease ballot's exception replaces P4 ("the value
// proposed to k never changes") on that path: a holder that crashes before
// its proposal is durable may come back and propose another value, so what
// must hold is that no second value ever appears at the same (k, b). A
// lease ballot b is used by one incarnation only. Its grant is durable at a
// majority, and grants only grow, so every later request at b, and every
// prepare at b in the covered range (a grant's range start never rises), is
// refused by a member of that majority; values at different ballots are
// arbitrated by phase 1 as always. A crash and recovery can therefore never
// retract a promise or un-choose a value: a process that learned a decision
// and crashed before its decision cell was durable learns the same value
// again, from the accept quorum's cells. "A process proposes by logging its
// initial value on stable storage" (§3.2) — that log write is the only one
// the broadcast layer's minimal-logging claim (§4.3) charges to Consensus,
// and the steady state waits for nothing else: the lease holder's round is
// its proposal write beside one accept round trip. The decision cell is the
// optional log of §4.3/§5, kept to make replay local.
//
// The protocol is a step machine, and every rule above lives in it
// (machine.go): each input — a received frame, a write's completion, a
// timer firing, or a call of Propose, WaitDecided or DiscardBelow — runs
// to completion and leaves effects in one reused buffer: sends, writes (a
// reply that a write protects rides on it), deletes, timer arms, and the
// settles of decided or forgotten instances,
// which release WaitDecided and the broadcast layer's OnSettle upcall.
// The machine does no I/O, reads no clock and starts no goroutine. Engine
// (engine.go) carries its effects out over the process's log, network and
// wall clock; Machine (step.go) exports the step surface, which the
// simulators run on a virtual one.
//
// Two coordinator policies demonstrate that the broadcast transformation
// treats Consensus as a black box (paper claim C2):
//
//   - PolicyLeader drives instances from the failure detector's Ω leader
//     hint (the structure of Aguilera–Chen–Toueg [1]), through the
//     stable-sequencer lease: after a classically decided round
//     the leader takes a ranged promise for every later instance and then
//     runs phase 2 only, until suspicion, a competitor's ballot or an idle
//     LeaseTTL sends it back to full ballots;
//   - PolicyRotating rotates the coordinator round-robin with
//     suspicion-driven hand-off (the structure of Hurfin–Mostefaoui–Raynal
//     [11]). It has no lease: its ballots are not owned by one process.
package consensus

import (
	"context"
	"errors"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
)

// Policy selects how instances pick their coordinator.
type Policy int

// Coordinator policies. See the package comment.
const (
	PolicyLeader Policy = iota + 1
	PolicyRotating
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyLeader:
		return "leader"
	case PolicyRotating:
		return "rotating"
	default:
		return "unknown"
	}
}

// ErrStopped is returned when the engine's incarnation context ends while an
// operation is in flight.
var ErrStopped = errors.New("consensus: engine stopped")

// ErrDiscarded is returned for instances below the garbage-collection floor
// set by DiscardBelow.
var ErrDiscarded = errors.New("consensus: instance discarded")

// API is the interface the atomic broadcast layer programs against
// (Fig. 1's propose/decided box). All methods are idempotent: "upon
// recovery, a process may (re-)invoke these primitives for a Consensus
// instance that has already started or even terminated" (§4.1).
type API interface {
	// Propose submits this process's initial value for instance k and
	// issues its log write. The value goes out at a classic ballot only
	// once that write is durable, and at the proposer's lease ballot beside
	// it: a lease ballot is used by one incarnation only (its grant is
	// durable at a majority and refuses every later request or prepare at
	// that ballot), so no second value can appear at it even if the
	// proposer crashes before the write lands and later proposes another.
	// A process that granted a lease covering k to another process defers
	// the write until it would coordinate k itself. Re-proposing a
	// different value keeps the original (property P4). v is borrowed for
	// the call (the engine keeps its own copy).
	Propose(k uint64, v []byte) error
	// WaitDecided blocks until instance k decides and returns the
	// decision. Repeated calls return the same value (property P5), in
	// this incarnation and in any later one: the value is held durably by
	// an accept quorum, whether or not this process's own decision cell
	// has reached its log yet. A decided value — like a Proposal — is
	// immutable and may be aliased, never modified: the engine serves
	// the same slice to every caller and to lagging peers.
	WaitDecided(ctx context.Context, k uint64) ([]byte, error)
	// DecidedLocal returns the locally known decision of k, if any,
	// without blocking or touching the network.
	DecidedLocal(k uint64) ([]byte, bool)
	// Proposal returns the logged initial value for k, if any. The
	// broadcast replay procedure iterates instances "while
	// Proposed_p[k_p] ≠ ⊥" (Fig. 2).
	Proposal(k uint64) ([]byte, bool)
	// DiscardBelow garbage-collects all state of instances < k
	// ("Proposed_p[i], i < k_p can be discarded from the log", Fig. 4
	// line (c)). Only safe once the caller has a checkpoint covering
	// those instances. It issues the deletes and does not wait for them:
	// a crash before they are durable leaves cells below the floor, which
	// the next discard deletes again. The floor itself is volatile: a
	// recovering process sets it again before it takes part in rounds. A
	// WaitDecided blocked below the floor returns ErrDiscarded.
	DiscardBelow(k uint64) error
	// OnSettle registers the one upcall of Fig. 1's decided(k, v): it runs
	// for every instance this process learns decided (decided true) or
	// that a peer reports garbage-collected (decided false), after the
	// engine's lock is released, and never for a decision restored from
	// the log — DecidedLocal answers those.
	OnSettle(fn func(k uint64, v []byte, decided bool))
}

// Suspector is the failure-detector view the engine needs. It matches
// *fd.Detector.
type Suspector interface {
	Suspects(p ids.ProcessID) bool
	Leader() ids.ProcessID
}

// Config parameterizes an Engine.
type Config struct {
	PID ids.ProcessID
	N   int
	// Group tags the engine's metrics, trace stamps and flight-recorder
	// events with its ordering group (observability only; zero is fine
	// for unsharded processes).
	Group ids.GroupID
	// Obs is the process's observability plane. Nil disables consensus
	// instrumentation at zero cost.
	Obs *obs.Plane
	// Policy selects the coordinator policy (default PolicyLeader, whose
	// engines always run the stable-sequencer lease).
	Policy Policy
	// RetryMin/RetryMax bound the driver's phase timeout and backoff
	// (defaults 8ms / 120ms). Small values suit the in-memory network.
	RetryMin time.Duration
	RetryMax time.Duration
	// Seed randomizes backoff jitter.
	Seed uint64
	// LeaseTTL bounds how long a holder keeps trying the fast path without
	// a successful round (default 500ms). Purely a liveness knob — expiry
	// stops futile fast-path attempts; it revokes nothing at acceptors.
	LeaseTTL time.Duration
}

func (c *Config) fill() {
	if c.Policy == 0 {
		c.Policy = PolicyLeader
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 8 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 120 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 500 * time.Millisecond
	}
}

// Quorum returns the majority size for n processes.
func Quorum(n int) int { return n/2 + 1 }
