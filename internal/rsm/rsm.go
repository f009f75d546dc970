// Package rsm implements a replicated key-value store on top of Atomic
// Broadcast — the canonical application the paper motivates: "By employing
// this primitive to disseminate updates, all correct copies of a service
// deliver the same set of updates in the same order, and consequently the
// state of the service is kept consistent" (§1).
//
// The store implements the A-checkpoint upcall of Fig. 5 ("the most recent
// version of the data can be logged instead of all the past updates",
// §5.2) and the deferred-update transaction certification of §6.2: a
// transaction executes locally, then its read/write sets are atomically
// broadcast; every replica certifies it in the same total order, so all
// replicas reach the same commit/abort verdict.
package rsm

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/wire"
)

// Command kinds carried in broadcast payloads.
const (
	cmdPut uint8 = 1 // unconditional write
	cmdDel uint8 = 2 // unconditional delete
	cmdTx  uint8 = 3 // deferred-update transaction (§6.2)
)

// entry is one key's current value and version (the number of committed
// writes it has received).
type entry struct {
	value   string
	version uint64
}

// Store is one replica's state machine. Plug Apply into core.Config's
// OnDeliver and the Store itself into Checkpointer.
type Store struct {
	mu        sync.Mutex
	data      map[string]entry
	applied   uint64          // messages applied (monotone)
	committed uint64          // transactions committed
	aborted   uint64          // transactions aborted
	outcomes  map[string]bool // txID -> committed?
}

var _ core.Checkpointer = (*Store)(nil)

// NewStore creates an empty replica.
func NewStore() *Store {
	return &Store{
		data:     make(map[string]entry),
		outcomes: make(map[string]bool),
	}
}

// EncodePut builds the payload of an unconditional write.
func EncodePut(key, value string) []byte {
	w := wire.NewWriter(8 + len(key) + len(value))
	w.U8(cmdPut)
	w.String(key)
	w.String(value)
	return w.Bytes()
}

// EncodeDel builds the payload of an unconditional delete.
func EncodeDel(key string) []byte {
	w := wire.NewWriter(8 + len(key))
	w.U8(cmdDel)
	w.String(key)
	return w.Bytes()
}

// Tx is a deferred-update transaction: the read set carries the versions
// observed during local execution; the write set carries the updates to
// install if certification succeeds.
type Tx struct {
	ID     string
	Reads  map[string]uint64 // key -> version read
	Writes map[string]string // key -> new value
}

// EncodeTx builds the payload of a transaction commit request.
func EncodeTx(tx Tx) []byte {
	w := wire.NewWriter(64)
	w.U8(cmdTx)
	w.String(tx.ID)
	rkeys := make([]string, 0, len(tx.Reads))
	for k := range tx.Reads {
		rkeys = append(rkeys, k)
	}
	sort.Strings(rkeys)
	w.U64(uint64(len(rkeys)))
	for _, k := range rkeys {
		w.String(k)
		w.U64(tx.Reads[k])
	}
	wkeys := make([]string, 0, len(tx.Writes))
	for k := range tx.Writes {
		wkeys = append(wkeys, k)
	}
	sort.Strings(wkeys)
	w.U64(uint64(len(wkeys)))
	for _, k := range wkeys {
		w.String(k)
		w.String(tx.Writes[k])
	}
	return w.Bytes()
}

// decodeTx parses a transaction commit request produced by EncodeTx; ok
// is false when the payload is not a well-formed transaction. The counts
// come from the payload, which every replica delivers and replays alike,
// so they size nothing: the maps grow one decoded entry at a time and a
// count larger than the payload stops at its first truncated entry.
func decodeTx(payload []byte) (tx Tx, ok bool) {
	r := wire.NewReader(payload)
	if r.U8() != cmdTx {
		return Tx{}, false
	}
	tx.ID = r.String()
	nReads := r.U64()
	tx.Reads = make(map[string]uint64)
	for i := uint64(0); i < nReads && r.Err() == nil; i++ {
		k := r.String()
		tx.Reads[k] = r.U64()
	}
	nWrites := r.U64()
	tx.Writes = make(map[string]string)
	for i := uint64(0); i < nWrites && r.Err() == nil; i++ {
		k := r.String()
		tx.Writes[k] = r.String()
	}
	if r.Err() != nil {
		return Tx{}, false
	}
	return tx, true
}

// Apply is the delivery callback: it interprets one ordered message.
// Deterministic by construction, so identical delivery sequences yield
// identical replica states.
func (s *Store) Apply(d core.Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyPayload(d.Msg.Payload)
}

// applyPayload mutates the state machine. s.mu held.
func (s *Store) applyPayload(payload []byte) {
	r := wire.NewReader(payload)
	switch r.U8() {
	case cmdPut:
		key := r.String()
		value := r.String()
		if r.Err() != nil {
			return
		}
		e := s.data[key]
		s.data[key] = entry{value: value, version: e.version + 1}
	case cmdDel:
		key := r.String()
		if r.Err() != nil {
			return
		}
		e, ok := s.data[key]
		if ok {
			// A delete bumps the version and clears the value; the
			// version must keep growing so later certification
			// still detects the conflict.
			s.data[key] = entry{value: "", version: e.version + 1}
		}
	case cmdTx:
		tx, ok := decodeTx(payload)
		if !ok {
			return
		}
		// Certification: every read version must still be current.
		for k, v := range tx.Reads {
			if s.data[k].version != v {
				ok = false
				break
			}
		}
		if ok {
			for k, v := range tx.Writes {
				e := s.data[k]
				s.data[k] = entry{value: v, version: e.version + 1}
			}
			s.committed++
		} else {
			s.aborted++
		}
		s.outcomes[tx.ID] = ok
	default:
		return
	}
	s.applied++
}

// Get returns the value and version of key.
func (s *Store) Get(key string) (string, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	return e.value, e.version, ok
}

// Begin snapshots the versions of the given keys for a deferred-update
// transaction's read set.
func (s *Store) Begin(keys ...string) map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	reads := make(map[string]uint64, len(keys))
	for _, k := range keys {
		reads[k] = s.data[k].version
	}
	return reads
}

// Outcome reports a certified transaction's verdict (ok=false if the
// transaction has not been delivered yet).
func (s *Store) Outcome(txID string) (committed, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed, known = s.outcomes[txID]
	return committed, known
}

// Applied returns the number of applied messages.
func (s *Store) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// CommitStats returns (committed, aborted) transaction counts.
func (s *Store) CommitStats() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed, s.aborted
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Fingerprint returns a deterministic digest of the full state, used by
// tests to assert replica convergence.
func (s *Store) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.encodeLocked())
}

// ---- core.Checkpointer (Fig. 5) ----

// Checkpoint folds delivered messages into the serialized application
// state: the returned bytes logically "contain" every folded update.
func (s *Store) Checkpoint(prev []byte, delivered []msg.Message) []byte {
	// Pure fold: decode prev into a scratch store, apply, re-encode.
	// The live store already applied these messages via Apply.
	scratch := NewStore()
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	scratch.restoreLocked(prev)
	for _, m := range delivered {
		scratch.applyPayload(m.Payload)
	}
	return scratch.encodeLocked()
}

// Restore implements the recovery/state-transfer upcall: the replica
// resets itself to the checkpointed state.
func (s *Store) Restore(app []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string]entry)
	s.outcomes = make(map[string]bool)
	s.applied = 0
	s.committed = 0
	s.aborted = 0
	s.restoreLocked(app)
}

// restoreLocked loads a serialized state. s.mu held.
func (s *Store) restoreLocked(app []byte) {
	if len(app) == 0 {
		return
	}
	r := wire.NewReader(app)
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k := r.String()
		v := r.String()
		ver := r.U64()
		s.data[k] = entry{value: v, version: ver}
	}
	s.applied = r.U64()
	s.committed = r.U64()
	s.aborted = r.U64()
	nOut := r.U64()
	for i := uint64(0); i < nOut && r.Err() == nil; i++ {
		id := r.String()
		s.outcomes[id] = r.Bool()
	}
}

// encodeLocked serializes the state deterministically. s.mu held.
func (s *Store) encodeLocked() []byte {
	w := wire.NewWriter(256)
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		e := s.data[k]
		w.String(k)
		w.String(e.value)
		w.U64(e.version)
	}
	w.U64(s.applied)
	w.U64(s.committed)
	w.U64(s.aborted)
	txIDs := make([]string, 0, len(s.outcomes))
	for id := range s.outcomes {
		txIDs = append(txIDs, id)
	}
	sort.Strings(txIDs)
	w.U64(uint64(len(txIDs)))
	for _, id := range txIDs {
		w.String(id)
		w.Bool(s.outcomes[id])
	}
	return w.Bytes()
}
