package consensus

import (
	"bytes"

	"repro/internal/ids"
	"repro/internal/storage"
)

// Machine is the consensus machine of one process incarnation, stepped by
// a runner outside this package: the full-stack simulator
// (internal/sim/stack), which runs it beside the broadcast core and the
// failure detector on a virtual clock. Engine is the production runner,
// and its Box the same step surface for the broadcast core. Each input
// method is one step; Effects hands out what the steps left.
type Machine struct{ m *machine }

// Effect kinds, as Machine hands them out.
const (
	OpSend          = opSend
	OpPut           = opPut
	OpDiscard       = opDiscard
	OpArm           = opArm
	OpDecided       = opDecided
	OpForgot        = opForgot
	OpLeaseAcquired = opLeaseAcquired
	OpLeaseLost     = opLeaseLost
)

// Effect is one effect of a Machine step.
type Effect struct {
	Op    uint8
	To    ids.ProcessID // OpSend: the destination, Nobody for every other process
	Frame []byte        // OpSend: the encoded frame
	Key   string        // OpPut: the cell's key; OpDiscard: the range's first key
	End   string        // OpDiscard: the key past the range
	Val   []byte        // OpPut: the cell (a copy); OpDecided: the decision; an accept's value
	K     uint64
	After int64 // OpArm: Fire the effect this long after
	// Accept marks an OpSend of an accept of Val at (K, Ballot), the
	// ballot a lease effect also carries.
	Accept   bool
	Ballot   uint64
	Proposal bool // an OpPut of a proposal cell
	ef       effect
}

// NewMachine builds a machine and restores it from the cells logged in st,
// as New does for an Engine.
func NewMachine(cfg Config, fd Suspector, st storage.Stable) (*Machine, error) {
	m := newMachine(cfg, fd)
	if err := restore(m, st); err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// Start lets the drivers run and resumes the logged, undecided instances.
func (s *Machine) Start() { s.m.start() }

// Receive is one frame of the consensus channel; an undecodable frame is
// dropped like a lost one.
func (s *Machine) Receive(from ids.ProcessID, frame []byte) {
	if msg, err := decodeMessage(frame); err == nil {
		s.m.receive(from, msg)
	}
}

// Propose is Engine.Propose as a step at now.
func (s *Machine) Propose(k uint64, v []byte, now int64) error { return s.m.propose(k, v, now) }

// Fire is the timer an OpArm effect armed going off.
func (s *Machine) Fire(ef *Effect) { s.m.fire(ef.ef.t) }

// Persisted is an OpPut effect's write resolving.
func (s *Machine) Persisted(ef *Effect, err error) { s.m.persisted(&ef.ef, err) }

// DiscardBelow garbage-collects all state of instances < k
// ("Proposed_p[i], i < k_p can be discarded from the log", Fig. 4 line
// (c)). Only safe once the caller has a checkpoint covering those
// instances. It issues one OpDiscard per kind of cell, a key range, and
// does not wait for them: a crash before they are durable leaves cells
// below the floor, which the next discard removes again. The floor itself
// is volatile: a recovering process sets it again before it takes part in
// rounds. A WaitDecided blocked below the floor returns ErrDiscarded.
func (s *Machine) DiscardBelow(k uint64) { s.m.discardBelow(k) }

// DecidedLocal returns the locally known decision of k, if any, without
// touching the network.
func (s *Machine) DecidedLocal(k uint64) ([]byte, bool) { return s.m.decidedLocal(k) }

// Sequencer is Box.Sequencer.
func (s *Machine) Sequencer() (ids.ProcessID, bool) { return s.m.sequencer() }

// Proposal returns the logged initial value for k, if any. The broadcast
// replay procedure iterates instances "while Proposed_p[k_p] ≠ ⊥"
// (Fig. 2).
func (s *Machine) Proposal(k uint64) ([]byte, bool) { return s.m.proposal(k) }

// Forgot reports whether k is below the floor or a peer reported it
// garbage-collected: WaitDecided fails with ErrDiscarded for it.
func (s *Machine) Forgot(k uint64) bool { return s.m.forgot(k) }

// Effects returns the effects of the steps since the last call, in order,
// drivers woken by them included.
func (s *Machine) Effects() []Effect {
	m := s.m
	var out []Effect
	for i := 0; m.more(i); i++ {
		ef := m.out[i]
		e := Effect{Op: ef.op, To: ef.to, K: ef.k, After: ef.after}
		switch ef.op {
		case opSend:
			e.Frame, e.K = ef.msg.encode(), ef.msg.k
			if ef.msg.kind == mAccept {
				e.Accept, e.Ballot, e.Val = true, ef.msg.b, ef.msg.val
			}
		case opPut:
			// The cell's bytes live in a buffer the next step reuses.
			ef.val = bytes.Clone(ef.val)
			e.Key, e.Val, e.Proposal = cellKey(ef.cell, ef.k), ef.val, ef.cell == cellProposal
		case opDiscard:
			e.Key, e.End = cellKey(ef.cell, 0), cellKey(ef.cell, ef.k)
		case opDecided:
			e.Val = ef.val
		case opLeaseAcquired, opLeaseLost:
			e.K, e.Ballot = ef.msg.k, ef.msg.b
		}
		e.ef = ef
		out = append(out, e)
	}
	m.drained()
	return out
}
