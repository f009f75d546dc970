// Package loop runs the step machines of one process incarnation: one
// mutex, one monotonic clock, one timer queue behind one wall timer, one
// write queue that hands completions back in issue order, frames sent after
// the unlock, and one runner for the ordered upcalls, all stopped when the
// incarnation's context ends.
//
// An input takes the lock (Enter), steps a machine and releases it (Exit),
// which first runs the loop's drain: the code binding the machines carries
// out their effects until none is left, so one machine's effects that are
// another's inputs are stepped under the same lock. Writes and timers name
// the Layer they go back to, with a typed Token: no closure and no boxed
// value per call. The loop knows nothing of the machines it runs.
//
// What a loop takes from its surroundings is its Env: the clock, the one
// timer and the upcall runner. New runs it on the wall clock and a
// goroutine of its own; the full-stack simulator runs the same loop on its
// kernel's virtual clock and one thread (internal/sim/stack).
package loop

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Layer is a machine on a loop. The loop calls it under its lock.
type Layer interface {
	// Persisted reports that the layer's oldest unreported write resolved
	// with err. Writes are reported in issue order, even where the store
	// resolves them out of it.
	Persisted(now int64, err error)
	// Fire is the timer armed with tok falling due.
	Fire(now int64, tok Token)
	// Live reports whether tok is still armed: a superseded timer costs
	// no wake-up.
	Live(tok Token) bool
}

// Token names an armed timer to the layer that armed it.
type Token struct{ K, Gen uint64 }

// Upcaller runs the ordered upcalls of the machines on a loop.
type Upcaller interface {
	TakeUpcalls() // sets the queued upcalls aside, under the lock
	RunUpcalls()  // runs them, outside every lock, on the upcall runner
}

// Env is what a loop takes from its surroundings.
type Env interface {
	// Now reads the clock: monotonic ns.
	Now() int64
	// Timer makes the loop's one timer, once: wake runs each time it falls
	// due after a Reset.
	Timer(wake func()) Timer
	// Go starts run, the loop's upcall runner, on a goroutine of its own
	// and reports true; or reports false, and the loop runs its upcalls
	// itself, after the unlock of the step that queued them.
	Go(run func()) bool
}

// Timer is a loop's one timer; *time.Timer is one.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// wall is a process's Env: the monotonic wall clock since it was made, a
// time.AfterFunc timer, and a goroutine for the upcalls.
type wall struct{ epoch time.Time }

func (w wall) Now() int64 { return int64(time.Since(w.epoch)) }

func (wall) Timer(wake func()) Timer { return time.AfterFunc(math.MaxInt64, wake) }

func (wall) Go(run func()) bool {
	go run()
	return true
}

type write struct {
	c      *storage.Completion
	ly     Layer // nil: nothing waits for it
	hooked bool  // its completion calls back
}

type timer struct {
	at  int64
	ly  Layer
	tok Token
}

type frame struct {
	net router.Net
	to  ids.ProcessID // Nobody: every other process
	w   *wire.Writer
}

// Loop is one incarnation's loop. Build it with New, Bind it, Start it.
type Loop struct {
	st     storage.AsyncStable
	env    Env
	onDone func(error) // l.resolved, bound once
	done   chan struct{}

	mu      sync.Mutex
	cv      sync.Cond
	drain   func()
	up      Upcaller
	started bool
	stopped bool
	exited  chan struct{} // closed when the upcall goroutine returns
	inline  bool          // the loop runs its upcalls itself (Env.Go)
	running bool          // an inline batch is under way: no lock, one thread

	writes Queue[write]
	timers []timer // superseded ones linger until a scan
	wall   Timer
	wallAt int64
	frames []frame
	due    bool // upcalls are queued
}

// New returns a loop on the wall clock that writes to st (nil: it writes
// nothing).
func New(st storage.Stable) *Loop { return NewIn(st, wall{time.Now()}) }

// NewIn returns a loop in env that writes to st (nil: it writes nothing).
func NewIn(st storage.Stable, env Env) *Loop {
	l := &Loop{env: env, wallAt: math.MaxInt64, done: make(chan struct{})}
	if st != nil {
		l.st = storage.Async(st)
	}
	l.cv.L = &l.mu
	l.onDone = l.resolved
	return l
}

// Bind sets what the loop runs: drain carries out the machines' effects
// until they are quiescent, at every Exit; up, if not nil, runs their
// ordered upcalls. The last Bind wins: the broadcast core binds over the
// consensus engine whose effects its drain carries out.
func (l *Loop) Bind(drain func(), up Upcaller) {
	l.mu.Lock()
	l.drain, l.up = drain, up
	l.mu.Unlock()
}

// Store returns the store the loop writes to.
func (l *Loop) Store() storage.AsyncStable { return l.st }

// Now is the loop's clock: its Env's.
func (l *Loop) Now() int64 { return l.env.Now() }

// Done is closed once the loop stopped.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Start starts the upcall runner, if an Upcaller is bound, and stops the
// loop when ctx ends. Only the first call does anything.
func (l *Loop) Start(ctx context.Context) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started || l.stopped {
		return
	}
	l.started = true
	context.AfterFunc(ctx, l.Stop)
	if l.up != nil {
		l.exited = make(chan struct{})
		if !l.env.Go(l.upcalls) {
			l.exited, l.inline = nil, true
		}
	}
}

// Stop ends the loop: Enter refuses every later input, the wall timer and
// the upcall runner stop, and Done is closed. It waits for the upcall
// goroutine's batch under way, so it must not run inside an upcall.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		if l.wall != nil {
			l.wall.Stop()
		}
		close(l.done)
		l.cv.Broadcast()
	}
	exited := l.exited
	l.mu.Unlock()
	if exited != nil {
		<-exited
	}
}

// Enter takes the lock for an input; false, without it, once stopped.
func (l *Loop) Enter() bool {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return false
	}
	return true
}

// Exit ends a step begun with Enter or Lock: the drain carries out every
// effect, the lock is released, and the frames queued go out.
func (l *Loop) Exit() {
	if l.drain != nil {
		l.drain()
	}
	var buf [8]frame
	out := append(buf[:0], l.frames...)
	clear(l.frames)
	l.frames = l.frames[:0]
	inline := l.inline && l.due
	l.mu.Unlock()
	// Send and Multisend copy before returning at every transport layer.
	for _, f := range out {
		if f.to == ids.Nobody {
			f.net.Multisend(f.w.Bytes())
		} else {
			f.net.Send(f.to, f.w.Bytes())
		}
		wire.PutWriter(f.w)
	}
	if inline && !l.running {
		// An upcall's own steps queue their upcalls for this run's next
		// batch: a batch never starts inside another.
		l.running = true
		for l.batch() {
		}
		l.running = false
	}
}

// Lock takes the lock for a read, which Unlock ends.
func (l *Loop) Lock() { l.mu.Lock() }

// Unlock releases the lock Lock took.
func (l *Loop) Unlock() { l.mu.Unlock() }

// Send queues w for to (Nobody: every other process) on net; it leaves
// after the unlock, and the loop releases w. No layer addresses itself:
// what a machine has for itself it takes as an input in the same step.
func (l *Loop) Send(net router.Net, to ids.ProcessID, w *wire.Writer) {
	l.frames = append(l.frames, frame{net, to, w})
}

// Issue queues the completion of a write of ly (nil: nobody waits for
// it). A write that resolved at issue, behind none that has not, is
// reported at once.
func (l *Loop) Issue(ly Layer, c *storage.Completion) {
	l.writes.Push(write{c: c, ly: ly})
	l.report()
}

// report hands the resolved writes at the head of the queue back to their
// layers, and hooks the first one still pending.
func (l *Loop) report() {
	for l.writes.Len() > 0 {
		w := l.writes.Front()
		err, done := w.c.Poll()
		if !done {
			if !w.hooked {
				w.hooked = true
				w.c.OnDone(l.onDone)
			}
			return
		}
		if ly := l.writes.Pop().ly; ly != nil {
			ly.Persisted(l.Now(), err)
		}
	}
}

// resolved is the completion callback of the write at the head of the
// queue, on the store's completion goroutine.
func (l *Loop) resolved(error) {
	if l.Enter() {
		l.report()
		l.Exit()
	}
}

// Arm has ly's Fire called with tok at at, if Live still holds then.
func (l *Loop) Arm(ly Layer, at int64, tok Token) {
	l.timers = append(l.timers, timer{at, ly, tok})
	if at < l.wallAt {
		l.wallAt = at
		l.setWall(at - l.Now())
	}
}

func (l *Loop) setWall(d int64) {
	if l.wall == nil {
		l.wall = l.env.Timer(l.onWall)
	}
	l.wall.Reset(time.Duration(d))
}

// onWall fires the due timers, forgets the superseded ones, and sets the
// wall timer for the earliest live one.
func (l *Loop) onWall() {
	if !l.Enter() {
		return
	}
	now := l.Now()
	l.wallAt = math.MaxInt64
	live := l.timers[:0]
	for _, t := range l.timers {
		switch {
		case !t.ly.Live(t.tok):
		case t.at <= now:
			t.ly.Fire(now, t.tok)
		default:
			live = append(live, t)
			l.wallAt = min(l.wallAt, t.at)
		}
	}
	clear(l.timers[len(live):])
	l.timers = live
	if l.wallAt < math.MaxInt64 {
		l.setWall(l.wallAt - now)
	}
	l.Exit()
}

// Upcall tells the upcall runner that upcalls are queued. Lock held.
func (l *Loop) Upcall() {
	l.due = true
	l.cv.Signal()
}

// batch runs the queued upcalls; false if none was queued or the loop
// stopped.
func (l *Loop) batch() bool {
	l.mu.Lock()
	if !l.due || l.stopped {
		l.mu.Unlock()
		return false
	}
	l.due = false
	l.up.TakeUpcalls()
	l.mu.Unlock()
	l.up.RunUpcalls()
	return true
}

// upcalls is the loop's one goroutine: it runs the ordered upcalls outside
// every lock, so a slow application stalls neither the transport nor the
// machines.
func (l *Loop) upcalls() {
	defer close(l.exited)
	for {
		l.mu.Lock()
		for !l.due && !l.stopped {
			l.cv.Wait()
		}
		l.mu.Unlock()
		if !l.batch() {
			return // stopped
		}
	}
}

// Queue is a first-in first-out queue.
type Queue[T any] struct {
	s    []T
	head int
}

// Push adds v at the back.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.s) == cap(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// Len returns how many values are queued.
func (q *Queue[T]) Len() int { return len(q.s) - q.head }

// Front returns the value at the front of a queue that is not empty.
func (q *Queue[T]) Front() *T { return &q.s[q.head] }

// Pop removes and returns the value at the front of a queue that is not
// empty.
func (q *Queue[T]) Pop() T {
	v := q.s[q.head]
	clear(q.s[q.head : q.head+1])
	if q.head++; q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}
