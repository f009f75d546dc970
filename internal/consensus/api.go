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
// reply only after the acceptor cell protecting it is durable, and a
// proposer sends its own value only after its proposal is durable;
// everything else — prepare, decide, handing a decision to WaitDecided —
// may run ahead of the local log, because it carries nothing a quorum does
// not already hold durably. A crash and recovery can therefore never
// retract a promise, change a proposed value (P4) or un-choose a value: a
// process that learned a decision and crashed before its decision cell was
// durable learns the same value again, from the accept quorum's cells.
// "A process proposes by logging its initial value on stable storage"
// (§3.2) — Propose's first action is that log write, which is exactly the
// log operation the broadcast layer's minimal-logging claim (§4.3) charges
// to Consensus; the decision cell is the optional log of §4.3/§5, kept to
// make replay local.
//
// Two coordinator policies demonstrate that the broadcast transformation
// treats Consensus as a black box (paper claim C2):
//
//   - PolicyLeader drives instances from the failure detector's Ω leader
//     hint (the structure of Aguilera–Chen–Toueg [1]);
//   - PolicyRotating rotates the coordinator round-robin with
//     suspicion-driven hand-off (the structure of Hurfin–Mostefaoui–Raynal
//     [11]).
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
	// Propose submits this process's initial value for instance k. Its
	// first action is issuing the log write of the value, and the value
	// is sent to no one before that write is durable; re-proposing a
	// different value for the same instance keeps the original (property
	// P4). v is borrowed for the call (the engine keeps its own copy).
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
	// those instances.
	DiscardBelow(k uint64) error
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
	// Policy selects the coordinator policy (default PolicyLeader).
	Policy Policy
	// RetryMin/RetryMax bound the driver's phase timeout and backoff
	// (defaults 8ms / 120ms). Small values suit the in-memory network.
	RetryMin time.Duration
	RetryMax time.Duration
	// Seed randomizes backoff jitter.
	Seed uint64
	// Lease enables the stable-sequencer lease fast path (PolicyLeader
	// only; ignored under PolicyRotating, whose ballots are not owned by a
	// single process). After deciding a round classically, the Ω-leader
	// asks every acceptor for a ranged promise covering all instances
	// >= fromK at one ballot; with a majority granted it skips phase 1 and
	// runs accept-phase-only rounds at that ballot until a competitor's
	// higher ballot, an FD leadership change, or LeaseTTL expiry drops the
	// lease. Safety rests on ballots and quorum intersection alone — never
	// on clocks: a grant is durably logged before it is acknowledged, and
	// a granting acceptor nacks every other proposer below the lease
	// ballot, so the holder's value is the only one choosable at or below
	// it in the covered range.
	Lease bool
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
