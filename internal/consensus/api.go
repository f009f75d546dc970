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
// settles of decided or forgotten instances, which release WaitDecided and
// are Fig. 1's decided upcall. The machine does no I/O, reads no clock and
// starts no goroutine. Engine (engine.go) carries its effects out on a
// loop (internal/loop) over the process's log, network and wall clock: in
// a process, the loop it shares with the broadcast core, which takes each
// settle as its input in the same step (Box); Machine (step.go) exports
// the step surface, which the simulators run on a virtual clock.
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
