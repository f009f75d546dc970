package sim

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/ids"
)

// ConsensusOracle checks consensus's safety over every process and incarnation of a
// simulated run:
//
//   - Uniform Agreement: no two processes decide differently;
//   - Uniform Validity: a decided value was handed to Propose, and in the
//     crash-recovery sense — "a process proposes by logging its initial
//     value on stable storage" (§3.2) — it was durable in its proposer's
//     log, or its proposer sent it at its own lease ballot (the one
//     exception the package comment allows);
//   - no two values are ever sent at one (instance, ballot).
type ConsensusOracle struct {
	valid   map[uint64][][]byte // values Validity accepts, per instance
	props   map[uint64][][]byte // values handed to Propose, per instance
	chosen  map[uint64][]byte   // the first decision of each instance
	ballots map[[2]uint64][]byte
}

// NewConsensusOracle returns an oracle that has seen nothing.
func NewConsensusOracle() *ConsensusOracle {
	return &ConsensusOracle{
		valid:   make(map[uint64][][]byte),
		props:   make(map[uint64][][]byte),
		chosen:  make(map[uint64][]byte),
		ballots: make(map[[2]uint64][]byte),
	}
}

// Proposed records v handed to Propose for instance k.
func (o *ConsensusOracle) Proposed(k uint64, v []byte) {
	o.props[k] = append(o.props[k], bytes.Clone(v))
}

// Logged records v durable as a proposal for instance k.
func (o *ConsensusOracle) Logged(k uint64, v []byte) { o.valid[k] = append(o.valid[k], bytes.Clone(v)) }

// Accept checks an accept of v at (k, b) that a process sends; lease says
// b is the sender's own lease ballot.
func (o *ConsensusOracle) Accept(k, b uint64, v []byte, lease bool) error {
	if lease {
		o.Logged(k, v)
	}
	key := [2]uint64{k, b}
	if w, ok := o.ballots[key]; !ok {
		o.ballots[key] = bytes.Clone(v)
	} else if !bytes.Equal(w, v) {
		return fmt.Errorf("two values at instance %d ballot %d: %q and %q", k, b, w, v)
	}
	return nil
}

// Decided checks pid's decision of v for instance k.
func (o *ConsensusOracle) Decided(pid ids.ProcessID, k uint64, v []byte) error {
	eq := func(w []byte) bool { return bytes.Equal(w, v) }
	if !slices.ContainsFunc(o.props[k], eq) {
		return fmt.Errorf("p%d decided %q for instance %d: no process proposed it", pid, v, k)
	}
	if !slices.ContainsFunc(o.valid[k], eq) {
		return fmt.Errorf("p%d decided %q for instance %d: no log holds it and no lease holder sent it", pid, v, k)
	}
	if w, ok := o.chosen[k]; !ok {
		o.chosen[k] = bytes.Clone(v)
	} else if !bytes.Equal(w, v) {
		return fmt.Errorf("p%d decided %q for instance %d, another process %q", pid, v, k, w)
	}
	return nil
}
