package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedCrash is returned by a Faulty store once its trigger fires. The
// node layer treats it as a process crash, which lets tests crash a process
// at an exact protocol step (e.g. "after logging the proposal for round k
// but before the Consensus decides", the window §4.2 reasons about).
var ErrInjectedCrash = errors.New("storage: injected crash")

// Faulty wraps a Stable engine and fails the Nth log operation (Put or
// Append), counting from 1. After firing, every subsequent log operation
// also fails until Disarm is called, modelling a process that is down.
type Faulty struct {
	inner Stable

	mu      sync.Mutex
	failAt  int64 // 0 = disarmed
	ops     int64
	tripped bool
	onTrip  func()
	latency time.Duration // extra delay to every durability point
	// last is the most recent delayed group: the inner completion, the
	// latency it was delayed by, and the delayed completion handed out.
	last struct {
		in, out *Completion
		d       time.Duration
	}
	// tripOnce is replaced (not reset in place) on every re-arm, so an
	// in-flight trip of the previous arming keeps its own Once while a
	// new arming starts fresh.
	tripOnce *sync.Once

	// obsState is the persist-latency instrumentation (SetObs); atomic so
	// wiring can land after operations are already in flight.
	obsState atomic.Pointer[storeObs]
}

var (
	_ Stable      = (*Faulty)(nil)
	_ AsyncStable = (*Faulty)(nil)
)

// NewFaulty wraps inner. The trigger starts disarmed.
func NewFaulty(inner Stable) *Faulty {
	return &Faulty{inner: inner}
}

// Inner returns the wrapped engine.
func (f *Faulty) Inner() Stable { return f.inner }

// FailAfter arms the trigger: the n-th subsequent log operation fails.
// onTrip, if non-nil, runs exactly once when the trigger fires (typically
// it launches a goroutine that crashes the node). It is invoked
// synchronously inside the failing operation, under the trigger lock, so
// it must not invoke storage operations itself.
func (f *Faulty) FailAfter(n int64, onTrip func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = n
	f.ops = 0
	f.tripped = false
	f.onTrip = onTrip
	f.tripOnce = new(sync.Once)
}

// Disarm clears the trigger and the tripped state. It reports whether the
// trigger had already fired — read and reset under one lock, so callers
// can atomically distinguish "survived unarmed" from "a trip (and its
// onTrip) already happened".
func (f *Faulty) Disarm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fired := f.tripped
	f.failAt = 0
	f.tripped = false
	return fired
}

// Tripped reports whether the trigger has fired.
func (f *Faulty) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// SetLatency injects a fixed extra delay into every log operation's
// durability point, modelling a slow disk: synchronous operations return
// late; asynchronous completions resolve late (issue time is unchanged —
// a slow fsync, not a slow syscall — so callers that issue under a lock
// never stall on the injected delay). Zero disables; the read path and the
// failure trigger are unaffected.
func (f *Faulty) SetLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

func (f *Faulty) lat() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latency
}

// sleepLat stalls a synchronous operation by the injected latency.
func (f *Faulty) sleepLat() {
	if d := f.lat(); d > 0 {
		time.Sleep(d)
	}
}

// delayed postpones c's resolution by the injected latency. The chained
// completion resolves on a timer goroutine, never on the caller's. The
// delay follows the group, not the write: a write whose inner completion
// and latency are those of the write before it (one commit group of the
// inner engine) gets the same delayed completion, so a group costs one
// callback and one timer however many writes it holds.
func (f *Faulty) delayed(c *Completion) *Completion {
	f.mu.Lock()
	d := f.latency
	fresh := d > 0 && (f.last.in != c || f.last.d != d)
	if fresh {
		f.last.in, f.last.out, f.last.d = c, newCompletion(), d
	}
	out := f.last.out
	f.mu.Unlock()
	switch {
	case d <= 0:
		return c
	case fresh:
		c.OnDone(func(err error) {
			time.AfterFunc(d, func() { out.complete(err) })
		})
	}
	return out
}

// check counts one log operation and reports whether it must fail.
func (f *Faulty) check() bool {
	f.mu.Lock()
	if f.tripped {
		f.mu.Unlock()
		return true
	}
	if f.failAt == 0 {
		f.mu.Unlock()
		return false
	}
	f.ops++
	if f.ops < f.failAt {
		f.mu.Unlock()
		return false
	}
	f.tripped = true
	// Run the callback under the trigger lock so arming, tripping and
	// disarming serialize: after Disarm returns, any fired trip has
	// already completed its onTrip (no notification can race past a
	// disarm). onTrip must therefore not invoke storage operations.
	if f.onTrip != nil && f.tripOnce != nil {
		f.tripOnce.Do(f.onTrip)
	}
	f.mu.Unlock()
	return true
}

// Put implements Stable.
func (f *Faulty) Put(key string, val []byte) error {
	if f.check() {
		return ErrInjectedCrash
	}
	start := time.Now()
	err := f.inner.Put(key, val)
	f.sleepLat()
	f.obsState.Load().observe(start, "persist")
	return err
}

// Append implements Stable.
func (f *Faulty) Append(key string, rec []byte) error {
	if f.check() {
		return ErrInjectedCrash
	}
	start := time.Now()
	err := f.inner.Append(key, rec)
	f.sleepLat()
	f.obsState.Load().observe(start, "persist")
	return err
}

// PutAsync implements AsyncStable. The trigger is checked at issue time —
// an injected crash fails the operation before it reaches the inner
// engine, exactly like the synchronous path.
func (f *Faulty) PutAsync(key string, val []byte) *Completion {
	if f.check() {
		return completed(ErrInjectedCrash)
	}
	if as, ok := f.inner.(AsyncStable); ok {
		return f.observeAsync(f.delayed(as.PutAsync(key, val)))
	}
	return f.observeAsync(f.delayed(completed(f.inner.Put(key, val))))
}

// AppendAsync implements AsyncStable.
func (f *Faulty) AppendAsync(key string, rec []byte) *Completion {
	if f.check() {
		return completed(ErrInjectedCrash)
	}
	if as, ok := f.inner.(AsyncStable); ok {
		return f.observeAsync(f.delayed(as.AppendAsync(key, rec)))
	}
	return f.observeAsync(f.delayed(completed(f.inner.Append(key, rec))))
}

// DeleteAsync implements AsyncStable (a log operation: it advances the
// trigger, like Delete).
func (f *Faulty) DeleteAsync(key string) *Completion {
	if f.check() {
		return completed(ErrInjectedCrash)
	}
	if as, ok := f.inner.(AsyncStable); ok {
		return f.observeAsync(f.delayed(as.DeleteAsync(key)))
	}
	return f.observeAsync(f.delayed(completed(f.inner.Delete(key))))
}

// DeleteRangeAsync implements AsyncStable: one log operation, delayed
// and counted once however many keys it removes.
func (f *Faulty) DeleteRangeAsync(from, to string) *Completion {
	if f.check() {
		return completed(ErrInjectedCrash)
	}
	if as, ok := f.inner.(AsyncStable); ok {
		return f.observeAsync(f.delayed(as.DeleteRangeAsync(from, to)))
	}
	return f.observeAsync(f.delayed(completed(DeleteRange(f.inner, from, to))))
}

// Sync implements AsyncStable. The barrier itself is not a log operation,
// so it does not advance the trigger; a tripped store still fails it. The
// injected latency applies: the barrier covers the delayed completions.
func (f *Faulty) Sync() error {
	f.mu.Lock()
	tripped := f.tripped
	f.mu.Unlock()
	if tripped {
		return ErrInjectedCrash
	}
	if as, ok := f.inner.(AsyncStable); ok {
		err := as.Sync()
		f.sleepLat()
		return err
	}
	f.sleepLat()
	return nil
}

// Get implements Stable.
func (f *Faulty) Get(key string) ([]byte, bool, error) {
	f.mu.Lock()
	tripped := f.tripped
	f.mu.Unlock()
	if tripped {
		return nil, false, ErrInjectedCrash
	}
	return f.inner.Get(key)
}

// Records implements Stable.
func (f *Faulty) Records(key string) ([][]byte, error) {
	f.mu.Lock()
	tripped := f.tripped
	f.mu.Unlock()
	if tripped {
		return nil, ErrInjectedCrash
	}
	return f.inner.Records(key)
}

// Delete implements Stable.
func (f *Faulty) Delete(key string) error {
	if f.check() {
		return ErrInjectedCrash
	}
	start := time.Now()
	err := f.inner.Delete(key)
	f.sleepLat()
	f.obsState.Load().observe(start, "persist")
	return err
}

// List implements Stable.
func (f *Faulty) List(prefix string) ([]string, error) {
	return f.inner.List(prefix)
}
