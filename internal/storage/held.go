package storage

import "sync"

// Held is Mem with the durability point of its asynchronous writes in a
// test's hands: PutAsync, AppendAsync and DeleteAsync on a key the hold
// predicate selects queue the operation and return an unresolved
// Completion; Release applies queued operations and resolves them, Crash
// drops them. It places a crash, or any other event, exactly between the
// issue of a write and its durability — the window the protocol's "act
// only on a resolved completion" rule is about — without a sleep.
//
// Reads and the blocking forms go straight to the Mem, so Get, Records and
// List show what a process recovering at this moment would find.
type Held struct {
	*Mem
	hold func(key string) bool

	mu    sync.Mutex
	queue []heldOp
}

type heldOp struct {
	key   string
	apply func() error
	c     *Completion
}

var _ AsyncStable = (*Held)(nil)

// NewHeld returns an empty store that holds the asynchronous writes of the
// keys hold selects (all of them when hold is nil) and completes the others
// at once.
func NewHeld(hold func(key string) bool) *Held {
	if hold == nil {
		hold = func(string) bool { return true }
	}
	return &Held{Mem: NewMem(), hold: hold}
}

func (h *Held) issue(key string, apply func() error) *Completion {
	if !h.hold(key) {
		return completed(apply())
	}
	c := newCompletion()
	h.mu.Lock()
	h.queue = append(h.queue, heldOp{key: key, apply: apply, c: c})
	h.mu.Unlock()
	return c
}

// PutAsync implements AsyncStable. val is copied before the call returns.
func (h *Held) PutAsync(key string, val []byte) *Completion {
	cp := append([]byte(nil), val...)
	return h.issue(key, func() error { return h.Mem.Put(key, cp) })
}

// AppendAsync implements AsyncStable. rec is copied before the call returns.
func (h *Held) AppendAsync(key string, rec []byte) *Completion {
	cp := append([]byte(nil), rec...)
	return h.issue(key, func() error { return h.Mem.Append(key, cp) })
}

// DeleteAsync implements AsyncStable.
func (h *Held) DeleteAsync(key string) *Completion {
	return h.issue(key, func() error { return h.Mem.Delete(key) })
}

// Sync implements AsyncStable. It is no barrier over held writes: only
// Release makes those durable.
func (h *Held) Sync() error { return nil }

// Pending reports how many unreleased operations are held on the keys match
// selects.
func (h *Held) Pending(match func(key string) bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, op := range h.queue {
		if match(op.key) {
			n++
		}
	}
	return n
}

// Release applies, in issue order, the operations held on the keys match
// selects, resolves their completions and returns how many there were.
func (h *Held) Release(match func(key string) bool) int {
	h.mu.Lock()
	var out []heldOp
	kept := h.queue[:0]
	for _, op := range h.queue {
		if match(op.key) {
			out = append(out, op)
		} else {
			kept = append(kept, op)
		}
	}
	h.queue = kept
	h.mu.Unlock()
	for _, op := range out {
		op.c.complete(op.apply())
	}
	return len(out)
}

// Crash drops every unreleased operation and fails its completion with
// ErrInjectedCrash: the store is left as a crash at this moment leaves it.
func (h *Held) Crash() {
	h.mu.Lock()
	out := h.queue
	h.queue = nil
	h.mu.Unlock()
	for _, op := range out {
		op.c.complete(ErrInjectedCrash)
	}
}
