package msg

import (
	"iter"
	"maps"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Set is the Unordered container: an idempotent set of messages keyed by
// identity. The zero value is not ready to use; call NewSet.
type Set struct {
	byID map[ids.MsgID]Message
	// sorted caches the canonical snapshot handed out by Slice. Every
	// mutation invalidates it; between mutations the gossip and proposal
	// paths (which call Slice once per tick/round) share one sorted slice
	// instead of re-sorting the whole set each time.
	sorted []Message
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{byID: make(map[ids.MsgID]Message)}
}

// Add inserts m and reports whether it was not already present. Adding a
// message twice is a no-op (idempotence, §4.1).
func (s *Set) Add(m Message) bool {
	if _, ok := s.byID[m.ID]; ok {
		return false
	}
	s.byID[m.ID] = m
	s.sorted = nil
	return true
}

// AddAll inserts every message in ms and returns the number newly added.
func (s *Set) AddAll(ms []Message) int {
	added := 0
	for _, m := range ms {
		if s.Add(m) {
			added++
		}
	}
	return added
}

// Remove deletes the message with the given id, if present.
func (s *Set) Remove(id ids.MsgID) {
	if _, ok := s.byID[id]; !ok {
		return
	}
	delete(s.byID, id)
	s.sorted = nil
}

// Contains reports whether a message with the given id is present.
func (s *Set) Contains(id ids.MsgID) bool {
	_, ok := s.byID[id]
	return ok
}

// Get returns the message with the given id, if present.
func (s *Set) Get(id ids.MsgID) (Message, bool) {
	m, ok := s.byID[id]
	return m, ok
}

// Len returns the number of messages in the set.
func (s *Set) Len() int { return len(s.byID) }

// Slice returns the messages in canonical order. The slice is a shared
// snapshot, valid until the next mutation: callers must treat it as
// read-only (sub-slicing and iteration are fine; append/sort are not).
// Payloads are shared.
func (s *Set) Slice() []Message {
	if s.sorted == nil {
		out := make([]Message, 0, len(s.byID))
		for _, m := range s.byID {
			out = append(out, m)
		}
		SortCanonical(out)
		s.sorted = out
	}
	return s.sorted
}

// All iterates over the messages in no particular order, without building
// the sorted snapshot Slice does. The set must not change during the walk.
func (s *Set) All() iter.Seq[Message] { return maps.Values(s.byID) }

// Clone returns an independent copy of the set (payloads shared).
func (s *Set) Clone() *Set {
	c := &Set{byID: make(map[ids.MsgID]Message, len(s.byID))}
	for id, m := range s.byID {
		c.byID[id] = m
	}
	return c
}

// SubtractDelivered removes every message that the delivery state already
// contains: the paper's "Unordered_p ← Unordered_p ⊖ Agreed_p".
func (s *Set) SubtractDelivered(contains func(ids.MsgID) bool) {
	for id := range s.byID {
		if contains(id) {
			delete(s.byID, id)
			s.sorted = nil
		}
	}
}

// Encode appends the set to w in canonical order.
func (s *Set) Encode(w *wire.Writer) {
	EncodeBatch(w, s.Slice())
}

// DecodeSet reads a set from r.
func DecodeSet(r *wire.Reader) *Set {
	ms := DecodeBatch(r)
	set := NewSet()
	set.AddAll(ms)
	return set
}
