package core

import (
	"repro/internal/ids"
	"repro/internal/wire"
)

// The machine, as the external simulator (sim_test.go, package core_test)
// drives it: each input method is one step; Effects hands out what the
// step left and empties the buffer.

// Effect kinds, named for the simulator.
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

// SimEffect is one effect. Bytes is its frame, value or record, copied out
// of the pooled writer (which is released).
type SimEffect struct {
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

// SimMachine is one process incarnation's machine.
type SimMachine struct{ m *machine }

// NewSimMachine builds a machine without observability sinks.
func NewSimMachine(cfg Config) *SimMachine {
	cfg.fill()
	return &SimMachine{newMachine(cfg, newMetrics(nil, cfg.Group), nil, nil)}
}

func (s *SimMachine) Recover(ckpt, floor, unord []byte, recs [][]byte) (int, error) {
	return s.m.recover(ckpt, floor, unord, recs)
}
func (s *SimMachine) Start(now int64) { s.m.start(now) }
func (s *SimMachine) Receive(now int64, from ids.ProcessID, frame []byte) {
	s.m.receive(now, from, frame)
}
func (s *SimMachine) Decided(now int64, k uint64, v []byte) { s.m.decided(now, k, v) }
func (s *SimMachine) Forgotten(now int64, k uint64)         { s.m.forgotten(now, k) }
func (s *SimMachine) Fire(now int64)                        { s.m.fire(now) }
func (s *SimMachine) Checkpoint(now int64, release bool)    { s.m.checkpoint(now, release) }
func (s *SimMachine) Persisted(now int64, ef SimEffect, err error) {
	s.m.persisted(now, &ef.ef, err)
}
func (s *SimMachine) Broadcast(now int64, payload []byte, async bool) (ids.MsgID, error) {
	return s.m.broadcast(now, payload, async)
}
func (s *SimMachine) K() uint64                   { return s.m.k }
func (s *SimMachine) Delivered(id ids.MsgID) bool { return s.m.ds.contains(id) }
func (s *SimMachine) Sequence() (Snapshot, []Delivery) {
	return s.m.ds.snapshotBase(), s.m.tagGroup(s.m.ds.deliveries())
}

// Effects returns the effects of the steps since the last call, in order.
func (s *SimMachine) Effects() []SimEffect {
	out := make([]SimEffect, len(s.m.out))
	for i := range s.m.out {
		ef := s.m.out[i]
		e := SimEffect{Op: ef.op, To: ef.to, Key: ef.key, K: ef.k, At: ef.at, ID: ef.id,
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
