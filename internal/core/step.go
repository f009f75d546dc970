package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Machine is the broadcast machine of one process incarnation, stepped by
// a runner outside this package: the full-stack simulator
// (internal/sim/stack), which runs it beside the consensus machine and the
// failure detector on a virtual clock. Protocol is the production runner.
// Each input method is one step; Effects hands out what the steps left.
type Machine struct{ m *machine }

// Effect kinds, as Machine hands them out.
const (
	OpSend          = opSend
	OpPut           = opPut
	OpAppend        = opAppend
	OpDelete        = opDelete
	OpPropose       = opPropose
	OpLearn         = opLearn
	OpDiscard       = opDiscard
	OpArm           = opArm
	OpRelease       = opRelease
	OpRestore       = opRestore
	OpDeliver       = opDeliver
	OpRound         = opRound
	OpSkip          = opSkip
	OpCheckpointDue = opCheckpointDue
)

// The broadcast layer's stable-storage keys.
const (
	KeyCkpt     = keyCkpt
	KeyUnord    = keyUnord
	KeyUnordLog = keyUnordLog
	KeyGCFloor  = keyGCFloor
)

// Effect is one effect. Bytes is its frame, value or record, copied out of
// the pooled writer (which is released).
type Effect struct {
	Op    uint8
	To    ids.ProcessID
	Key   string
	Bytes []byte
	K     uint64
	At    int64
	ID    ids.MsgID
	Err   error
	Ds    []Delivery
	Snap  Snapshot
	ef    effect
}

// NewMachine builds a machine without observability sinks.
func NewMachine(cfg Config) *Machine {
	cfg.fill()
	return &Machine{newMachine(cfg, newMetrics(nil, cfg.Group), nil, nil)}
}

// Recover is the retrieve half of the recovery procedure over st, as
// Protocol.Start runs it; the replay phase follows (ReplayNext), and
// Start ends it.
func (s *Machine) Recover(st storage.Stable) error {
	ckpt, floor, unord, recs, err := retrieve(st, s.m.cfg.BatchedBroadcast)
	if err == nil {
		_, err = s.m.recover(ckpt, floor, unord, recs)
	}
	return err
}

func (s *Machine) Receive(now int64, from ids.ProcessID, frame []byte) { s.m.receive(now, from, frame) }
func (s *Machine) Decided(now int64, k uint64, v []byte)               { s.m.decided(now, k, v) }
func (s *Machine) Forgotten(now int64, k uint64)                       { s.m.forgotten(now, k) }
func (s *Machine) Fire(now int64)                                      { s.m.fire(now) }
func (s *Machine) Checkpoint(now int64, release bool)                  { s.m.checkpoint(now, release) }
func (s *Machine) Persisted(now int64, ef Effect, err error)           { s.m.persisted(now, &ef.ef, err) }
func (s *Machine) Broadcast(now int64, payload []byte, async bool) (ids.MsgID, error) {
	return s.m.broadcast(now, payload, async)
}
func (s *Machine) K() uint64                   { return s.m.k }
func (s *Machine) Delivered(id ids.MsgID) bool { return s.m.ds.contains(id) }
func (s *Machine) Sequence() (Snapshot, []Delivery) {
	return s.m.ds.snapshotBase(), s.m.tagGroup(s.m.ds.deliveries())
}

// Effects returns the effects of the steps since the last call, in order.
func (s *Machine) Effects() []Effect {
	out := make([]Effect, len(s.m.out))
	for i := range s.m.out {
		ef := s.m.out[i]
		e := Effect{Op: ef.op, To: ef.to, Key: ef.key, K: ef.k, At: ef.at, ID: ef.id,
			Err: ef.err, Ds: ef.ds, Snap: ef.snap}
		if ef.w != nil {
			e.Bytes = append([]byte(nil), ef.w.Bytes()...)
			wire.PutWriter(ef.w)
			ef.w = nil
		}
		e.ef = ef
		out[i] = e
	}
	s.m.flushed()
	return out
}

// retrieve reads the logged state the recovery procedure starts from
// (Fig. 2 / Fig. 3): the checkpoint cell and GC floor, present only if the
// alternative protocol's checkpoint (or a past state-transfer adoption)
// logged them, and, with BatchedBroadcast, the Unordered cell and log.
func retrieve(st storage.Stable, batched bool) (ckpt, floor, unord []byte, recs [][]byte, err error) {
	ckpt, hasCkpt, err := st.Get(keyCkpt)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: retrieve checkpoint: %w", err)
	}
	if hasCkpt {
		if floor, _, err = st.Get(keyGCFloor); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retrieve gc floor: %w", err)
		}
	} else {
		ckpt = nil
	}
	if batched {
		if unord, _, err = st.Get(keyUnord); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: retrieve unordered: %w", err)
		}
		if recs, err = st.Records(keyUnordLog); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: read unordered log: %w", err)
		}
	}
	return ckpt, floor, unord, recs, nil
}

// ReplayLog is what the replay phase reads of Consensus's log and asks of
// it, in-step: consensus.Box on the incarnation's loop, consensus.Machine
// in the simulator.
type ReplayLog interface {
	DecidedLocal(k uint64) ([]byte, bool)
	Proposal(k uint64) ([]byte, bool)
	Propose(k uint64, v []byte, now int64) error
	Forgot(k uint64) bool
}

// Replay is the replay phase of "upon initialization or recovery"
// (Fig. 2), run in-step by whatever carries out the machine's and
// Consensus's effects: Protocol on its loop, and the full-stack simulator.
// The recovery procedure "parses the log of proposed and agreed values
// (which is kept internally by Consensus)" (§4.2): a round with a logged
// decision commits straight from the log; a round with only a logged
// proposal is re-proposed, idempotently, and the phase waits for
// Consensus to settle it; the first round with neither ends the phase, and
// so does a round whose instance peers garbage-collected: the gossip
// exchange then triggers a state transfer that skips it (§5.3). The end of
// the phase starts the machine.
type Replay struct {
	m     *machine
	log   ReplayLog
	on    bool
	waitK uint64 // the round whose decision the phase waits for
}

// NewReplay returns the replay phase of m over log.
func NewReplay(m *Machine, log ReplayLog) *Replay { return &Replay{m: m.m, log: log} }

// On reports whether the phase is under way.
func (r *Replay) On() bool { return r.on }

// Begin starts the phase at the machine's round, after its retrieve.
func (r *Replay) Begin(now int64) {
	r.on = true
	r.advance(now)
}

// Settled is Consensus's decided(k) (decided) or forgotten(k), after the
// machine took it as its input: the awaited round decided goes on with
// the next round, a forgotten one ends the phase.
func (r *Replay) Settled(now int64, k uint64, decided bool) {
	switch {
	case !r.on || k != r.waitK:
	case decided:
		r.advance(now)
	default:
		r.end(now)
	}
}

// Discarded is a discardBelow that reached Consensus: a wait on a round
// it discarded ends the phase.
func (r *Replay) Discarded(now int64) {
	if r.on && r.log.Forgot(r.waitK) {
		r.end(now)
	}
}

func (r *Replay) advance(now int64) {
	for r.on {
		k := r.m.k
		if v, ok := r.log.DecidedLocal(k); ok {
			if r.m.decided(now, k, v); r.m.k == k {
				panic(fmt.Sprintf("core: replay: round %d's logged decision did not commit", k))
			}
			continue
		}
		if v, ok := r.log.Proposal(k); ok && !r.log.Forgot(k) && r.log.Propose(k, v, now) == nil {
			r.waitK = k
			return
		}
		r.end(now)
	}
}

func (r *Replay) end(now int64) {
	r.on = false
	r.m.start(now)
}
