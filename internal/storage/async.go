package storage

import "sync"

// Completion is the handle returned by asynchronous log operations
// (AsyncStable.PutAsync / AppendAsync). It resolves exactly once, when the
// operation's durability point is reached — for the group-commit WAL engine
// that is the fsync that covers the record; for synchronous engines the
// operation completed before the Completion was returned.
//
// The writes of one commit group may share one Completion (the WAL hands
// every write of a group the group's, and Faulty delays a group once), so
// a Completion's identity is never an operation's: two writes may return
// the same handle, and a callback registered per write runs once per
// registration.
//
// The crash-recovery discipline (§2.1/§5.5) is: a process may update its
// volatile state as soon as the write is issued, but it must not send the
// message the write protects — a promise, an accepted reply, its own
// proposed value — until the Completion resolves without error. (The
// package comment states the whole rule.)
//
// A Completion is 48 bytes: the protocol's hot path asks with Poll and
// OnDone, and mostly registers one callback, so it holds the first
// callback inline and the rest behind a pointer, and no channel at all.
type Completion struct {
	mu   sync.Mutex
	done bool
	err  error
	cb   func(error)    // the first callback registered
	more *[]func(error) // the later ones, in registration order
}

func newCompletion() *Completion { return &Completion{} }

// NewCompletion returns an unresolved Completion for an engine outside
// this package, the simulator's disk, which resolves it with Resolve.
func NewCompletion() *Completion { return newCompletion() }

// Resolve resolves c with err, once, as an engine does at the operation's
// durability point.
func (c *Completion) Resolve(err error) { c.complete(err) }

// completed returns an already-resolved Completion (synchronous engines).
func completed(err error) *Completion {
	return &Completion{done: true, err: err}
}

// complete resolves the completion: the waiters unblock and the registered
// callbacks run, in registration order, on the calling goroutine.
func (c *Completion) complete(err error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.err = err
	cb, more := c.cb, c.more
	c.cb, c.more = nil, nil
	c.mu.Unlock()
	if cb != nil {
		cb(err)
	}
	if more != nil {
		for _, fn := range *more {
			fn(err)
		}
	}
}

// Done returns a channel closed when the operation has resolved: a new
// one per call, closed by a callback of its own.
func (c *Completion) Done() <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		close(ch)
		return ch
	}
	c.addLocked(func(error) { close(ch) })
	c.mu.Unlock()
	return ch
}

// Wait blocks until the operation resolves and returns its error.
func (c *Completion) Wait() error {
	if err, done := c.Poll(); done {
		return err // already resolved: no channel needed
	}
	<-c.Done()
	err, _ := c.Poll()
	return err
}

// Poll reports, without blocking, whether the operation has resolved, and
// its error if so. Callers on a hot path use it to take the synchronous
// fast path (apply state transitions inline) when the engine completed the
// write eagerly, falling back to OnDone otherwise.
func (c *Completion) Poll() (err error, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err, c.done
}

// OnDone registers fn to run when the operation resolves. Callbacks
// registered before resolution run in registration order on the resolving
// goroutine (the WAL's completion dispatcher); a callback registered after
// resolution runs on a fresh goroutine. fn therefore NEVER runs
// synchronously on the registering goroutine, so it may take locks the
// registrar holds.
func (c *Completion) OnDone(fn func(error)) {
	c.mu.Lock()
	if !c.done {
		c.addLocked(fn)
		c.mu.Unlock()
		return
	}
	err := c.err
	c.mu.Unlock()
	go fn(err)
}

// addLocked registers fn behind the callbacks registered before it. c.mu
// held, c not resolved.
func (c *Completion) addLocked(fn func(error)) {
	switch {
	case c.cb == nil:
		c.cb = fn
	case c.more == nil:
		c.more = &[]func(error){fn}
	default:
		*c.more = append(*c.more, fn)
	}
}

// AsyncStable extends Stable with an asynchronous durability pipeline.
// PutAsync/AppendAsync issue the write and return immediately; the
// Completion resolves once the record is durable. Writes of one commit
// group may return the same Completion. Sync is a barrier: it returns once
// everything issued before it is durable.
//
// The WAL engine implements it natively with group commit (many concurrent
// writes, one fsync); every other engine is adapted by Async, which
// performs the operation synchronously and returns a resolved Completion —
// semantically identical, just without coalescing.
//
// Stable's ownership rule holds unchanged: val and rec are borrowed until
// PutAsync/AppendAsync RETURN, not until the Completion resolves — an
// engine that still needs the bytes after returning (the WAL writes them
// out a group commit later) works from its own copy.
type AsyncStable interface {
	Stable
	// PutAsync issues an atomic cell replacement; the Completion resolves
	// when it is durable.
	PutAsync(key string, val []byte) *Completion
	// AppendAsync issues one log-record append; the Completion resolves
	// when it is durable.
	AppendAsync(key string, rec []byte) *Completion
	// DeleteAsync issues a cell/log removal; the Completion resolves when
	// it is durable.
	DeleteAsync(key string) *Completion
	// DeleteRangeAsync issues the removal of every cell and log whose key
	// is in [from, to), as one operation with one Completion. A checkpoint
	// discards each kind of consensus cell below its floor this way.
	DeleteRangeAsync(from, to string) *Completion
	// Sync blocks until every previously issued write is durable.
	Sync() error
}

// Async adapts any Stable to AsyncStable. Engines with a native
// asynchronous pipeline (the WAL, or a wrapper over one) are returned
// unchanged; everything else gets the synchronous shim.
func Async(st Stable) AsyncStable {
	if as, ok := st.(AsyncStable); ok {
		return as
	}
	return syncShim{st}
}

// syncShim adapts a synchronous engine: the "async" operations block until
// the engine's own durability point (whatever it is) and resolve eagerly.
type syncShim struct{ Stable }

var _ AsyncStable = syncShim{}

func (s syncShim) PutAsync(key string, val []byte) *Completion {
	return completed(s.Put(key, val))
}

func (s syncShim) AppendAsync(key string, rec []byte) *Completion {
	return completed(s.Append(key, rec))
}

func (s syncShim) DeleteAsync(key string) *Completion {
	return completed(s.Delete(key))
}

func (s syncShim) DeleteRangeAsync(from, to string) *Completion {
	return completed(DeleteRange(s.Stable, from, to))
}

func (s syncShim) Sync() error { return nil }

// DeleteRange removes every cell and log of st whose key is in [from, to):
// the range delete of an engine without an asynchronous pipeline of its
// own, one List over the bounds' common prefix and one Delete per key.
func DeleteRange(st Stable, from, to string) error {
	n := 0
	for n < len(from) && n < len(to) && from[n] == to[n] {
		n++
	}
	keys, err := st.List(from[:n])
	if err != nil {
		return err
	}
	for _, k := range keys {
		if k >= from && k < to {
			if err := st.Delete(k); err != nil {
				return err
			}
		}
	}
	return nil
}
