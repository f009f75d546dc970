// Package sim is the deterministic simulator kernel the protocol layers'
// seeded simulators share: a virtual clock and an event heap, a seeded
// network, seeded disks, incarnation-tagged events and a trace hash. It
// knows nothing of the machines it runs: its owner binds them to it.
// Consensus's simulator turns its machine's effects into kernel calls; the
// full-stack process model (internal/sim/stack) runs each process's
// production layers on loops whose clock, timer, store and network are the
// kernel's.
//
// Nothing runs concurrently, so a seed is a schedule: run twice it takes
// the same steps and gives the same trace hash.
//
//   - Events fire in time order, ties in scheduling order.
//   - A crash bumps the process's incarnation: its pending writes and
//     timers are void, and frames that reach it while down are lost.
//   - The network drops (Loss), duplicates (Dup) and delays (Delay, so it
//     reorders) every frame between two processes, and drops every frame
//     over a one-way cut or to or from an isolated process. No process
//     sends itself a frame.
//   - A disk is a storage.Mem that survives crashes. Each write resolves
//     after a latency drawn from the disk's range, in issue order; a crash
//     drops every write not yet resolved. A disk may report some writes'
//     resolution late (Late), as storage.Faulty's latency does: a write
//     reaches the disk in issue order, its report may come after a later
//     write's. An armed fault (FailIn) fails the n-th next write and every
//     later one, and kills the incarnation.
//
// ConsensusOracle, the safety checker both owners run over consensus's
// accepts and decisions, lives here too: it needs nothing of the machines.
package sim

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/storage"
)

// Ms is one millisecond of virtual time, in ns.
const Ms = int64(time.Millisecond)

// Write operations.
const (
	Put uint8 = iota + 1
	Append
	Delete
	DeleteRange // every key in [Key, End)
)

// Write is one write on its way to a disk. Done, when set, runs once it
// resolves in a live incarnation, which Reported then records: the write
// is durable if err is nil. Applied, when set, runs when it reaches the
// disk, which Durable records.
type Write struct {
	Op       uint8
	Key      string
	End      string // DeleteRange: the key past the range
	Val      []byte
	Err      error
	Done     func(err error)
	Applied  func()
	Durable  bool
	Reported bool
}

// Disk is one process's stable storage and its fault switches.
type Disk struct {
	Mem     *storage.Mem // what survives a crash
	Persist [2]int64     // write latency range
	// Late is the share of writes whose resolution is reported LateBy
	// after it reached the disk.
	Late   float64
	LateBy [2]int64
	// Hold, when set, keeps the writes it selects off the disk until
	// Release or FailHeld.
	Hold func(w *Write) bool
	// Lose, when set, loses the writes it selects: they resolve without
	// reaching the disk. A held write stalls every later report of a
	// store that reports in issue order; a lost one is a write a crash
	// would have cut off, without the stall.
	Lose      func(w *Write) bool
	held      []*Write
	lastWrite int64 // when the last issued write resolves
	failIn    int   // > 0: the failIn-th next write fails
	tripped   bool
}

// Event kinds.
const (
	evAction = iota + 1
	evFrame
	evWrite
	evTimer
)

type event struct {
	at    int64
	seq   uint64 // ties resolve in scheduling order
	kind  uint8
	pid   ids.ProcessID
	inc   int // evWrite, evTimer: the incarnation they belong to
	from  ids.ProcessID
	frame []byte
	w     *Write
	do    func()
}

type queue []*event

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *queue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// Kernel is one simulated run of n processes.
type Kernel struct {
	Now   int64
	Rng   *rand.Rand
	Loss  float64  // per-frame drop probability between processes
	Dup   float64  // per-frame duplication probability
	Delay [2]int64 // per-frame delay range
	Cut   [][]bool // Cut[from][to]: a one-way partition
	Disks []*Disk

	// Deliver hands a frame to an up process; Kill ends the incarnation
	// of a process whose disk failed a write. The owner sets both, and
	// may set Stepped, which runs after every event.
	Deliver func(to, from ids.ProcessID, frame []byte)
	Kill    func(pid ids.ProcessID)
	Stepped func()

	Healed  bool
	Verbose bool     // keep Lines
	Lines   []string // the step log
	Failure string   // the first oracle violation

	up       []bool
	inc      []int
	isolated []bool
	queue    queue
	seq      uint64
	hash     hash.Hash64
	steps    int
	scratch  []byte
}

// New returns a kernel of n processes, all down, with empty disks.
func New(seed uint64, n int) *Kernel {
	k := &Kernel{
		Rng:      rand.New(rand.NewPCG(seed, seed^0x5eed)),
		up:       make([]bool, n),
		inc:      make([]int, n),
		isolated: make([]bool, n),
		hash:     fnv.New64a(),
	}
	for range n {
		k.Disks = append(k.Disks, &Disk{Mem: storage.NewMem()})
		k.Cut = append(k.Cut, make([]bool, n))
	}
	return k
}

// Inc returns pid's incarnation number: 0 for its first life, one more
// after each crash.
func (k *Kernel) Inc(pid ids.ProcessID) int { return k.inc[pid] }

// Start marks pid up in its current incarnation.
func (k *Kernel) Start(pid ids.ProcessID) { k.up[pid] = true }

// Crash ends pid's incarnation: its pending writes, held writes and timers
// are void, and its disk keeps only what resolved.
func (k *Kernel) Crash(pid ids.ProcessID) {
	d := k.Disks[pid]
	k.up[pid] = false
	k.inc[pid]++
	d.held, d.lastWrite, d.failIn, d.tripped = nil, k.Now, 0, false
}

// Between draws a time in the range r.
func (k *Kernel) Between(r [2]int64) int64 { return r[0] + k.Rng.Int64N(r[1]-r[0]+1) }

func (k *Kernel) push(ev *event) {
	k.seq++
	ev.seq = k.seq
	heap.Push(&k.queue, ev)
}

// At runs do at virtual time at.
func (k *Kernel) At(at int64, do func()) { k.push(&event{at: at, kind: evAction, do: do}) }

// After runs do at virtual time at, if pid's current incarnation is still
// alive then: a timer.
func (k *Kernel) After(pid ids.ProcessID, at int64, do func()) {
	k.push(&event{at: at, kind: evTimer, pid: pid, inc: k.inc[pid], do: do})
}

// Frame delivers frame from `from` to `to` at virtual time at, past every
// network fault.
func (k *Kernel) Frame(at int64, from, to ids.ProcessID, frame []byte) {
	k.push(&event{at: at, kind: evFrame, pid: to, from: from, frame: frame})
}

// Send puts frame on the network from `from` to `to`.
func (k *Kernel) Send(from, to ids.ProcessID, frame []byte) {
	if k.Cut[from][to] || k.isolated[from] || k.isolated[to] || k.Rng.Float64() < k.Loss {
		return
	}
	copies := 1
	if k.Rng.Float64() < k.Dup {
		copies = 2
	}
	for range copies {
		k.Frame(k.Now+k.Between(k.Delay), from, to, frame)
	}
}

// Isolate cuts pid off from every other process (on) or ends that.
func (k *Kernel) Isolate(pid ids.ProcessID, on bool) { k.isolated[pid] = on }

// Write issues w on pid's disk, behind its earlier writes.
func (k *Kernel) Write(pid ids.ProcessID, w *Write) {
	d := k.Disks[pid]
	if d.failIn > 0 {
		if d.failIn--; d.failIn == 0 {
			d.tripped = true
			inc := k.inc[pid]
			k.At(k.Now+k.Between([2]int64{0, 2 * Ms}), func() {
				if k.up[pid] && k.inc[pid] == inc {
					k.Kill(pid)
				}
			})
		}
	}
	if d.tripped {
		w.Err = storage.ErrInjectedCrash
	}
	if d.Hold != nil && d.Hold(w) {
		d.held = append(d.held, w)
		return
	}
	k.schedule(pid, w)
}

func (k *Kernel) schedule(pid ids.ProcessID, w *Write) {
	d := k.Disks[pid]
	d.lastWrite = max(k.Now+k.Between(d.Persist), d.lastWrite)
	k.push(&event{at: d.lastWrite, kind: evWrite, pid: pid, inc: k.inc[pid], w: w})
}

// resolve applies w to pid's disk unless it failed, and reports it, now
// or, for a late report, after a delay in the same incarnation.
func (k *Kernel) resolve(pid ids.ProcessID, w *Write) {
	d := k.Disks[pid]
	if w.Err == nil && (d.Lose == nil || !d.Lose(w)) {
		w.Durable = true
		mem := d.Mem
		switch w.Op {
		case Put:
			_ = mem.Put(w.Key, w.Val)
		case Append:
			_ = mem.Append(w.Key, w.Val)
		case Delete:
			_ = mem.Delete(w.Key)
		case DeleteRange:
			_ = storage.DeleteRange(mem, w.Key, w.End)
		}
		if w.Applied != nil {
			w.Applied()
		}
	}
	if d.Late > 0 && k.Rng.Float64() < d.Late {
		k.After(pid, k.Now+k.Between(d.LateBy), func() { report(w) })
		return
	}
	report(w)
}

func report(w *Write) {
	w.Reported = true
	if w.Done != nil {
		w.Done(w.Err)
	}
}

// FailIn arms pid's disk to fail its n-th next write, unless a fault is
// armed already or pid is down.
func (k *Kernel) FailIn(pid ids.ProcessID, n int) {
	if d := k.Disks[pid]; k.up[pid] && d.failIn == 0 && !d.tripped {
		d.failIn = n
	}
}

// Held returns pid's held writes, in issue order.
func (k *Kernel) Held(pid ids.ProcessID) []*Write { return k.Disks[pid].held }

// Release issues pid's held writes that match, in issue order, and returns
// how many there were.
func (k *Kernel) Release(pid ids.ProcessID, match func(w *Write) bool) int {
	n := 0
	k.Disks[pid].held = slices.DeleteFunc(k.Disks[pid].held, func(w *Write) bool {
		if !match(w) {
			return false
		}
		k.schedule(pid, w)
		n++
		return true
	})
	return n
}

// FailHeld fails every held write of pid at once, without crashing it:
// the store is dying under a live incarnation.
func (k *Kernel) FailHeld(pid ids.ProcessID) {
	held := k.Disks[pid].held
	k.Disks[pid].held = nil
	for _, w := range held {
		w.Err = storage.ErrInjectedCrash
		k.resolve(pid, w)
	}
}

// Heal ends every fault: the network is reliable and whole, no write is
// held or fails, and a process whose disk tripped is killed. The owner
// then recovers whoever is down.
func (k *Kernel) Heal() {
	k.Healed = true
	k.Loss, k.Dup = 0, 0
	for _, row := range k.Cut {
		clear(row)
	}
	clear(k.isolated)
	for p, d := range k.Disks {
		pid := ids.ProcessID(p)
		d.Hold = nil
		k.Release(pid, func(*Write) bool { return true })
		if d.tripped && k.up[pid] {
			k.Kill(pid)
		}
		d.failIn, d.tripped = 0, false
	}
}

// Step runs the next event; false when none is left.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := heap.Pop(&k.queue).(*event)
	k.Now = ev.at
	live := k.up[ev.pid] && ev.inc == k.inc[ev.pid]
	switch ev.kind {
	case evAction:
		ev.do()
	case evFrame:
		// "Messages that arrive at a process while it is down are lost."
		if k.up[ev.pid] {
			k.Deliver(ev.pid, ev.from, ev.frame)
		}
	case evWrite:
		if live {
			k.resolve(ev.pid, ev.w)
		}
	case evTimer:
		if live {
			ev.do()
		}
	}
	if k.Stepped != nil {
		k.Stepped()
	}
	return true
}

// RunUntil steps until cond holds; false if the run fails, runs dry or
// passes the virtual deadline first.
func (k *Kernel) RunUntil(deadline int64, cond func() bool) bool {
	for k.Failure == "" && !cond() {
		if len(k.queue) == 0 || k.queue[0].at > deadline || !k.Step() {
			return false
		}
	}
	return k.Failure == ""
}

// Settle runs until no event is left before Now+d.
func (k *Kernel) Settle(d int64) { k.RunUntil(k.Now+d, func() bool { return false }) }

// Fail records the run's first oracle violation.
func (k *Kernel) Fail(format string, args ...any) {
	if k.Failure == "" {
		k.Failure = fmt.Sprintf("%.3fms: ", float64(k.Now)/float64(Ms)) + fmt.Sprintf(format, args...)
	}
}

// Trace hashes one step into the trace.
func (k *Kernel) Trace(b []byte) { k.steps++; k.hash.Write(b) }

// Note traces one step of pid — what it did, a number and the bytes
// involved — and, verbose, logs it.
func (k *Kernel) Note(pid ids.ProcessID, what string, n uint64, b []byte) {
	buf := binary.LittleEndian.AppendUint64(k.scratch[:0], uint64(k.Now))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pid)<<32|uint64(k.inc[pid]))
	buf = binary.LittleEndian.AppendUint64(buf, n)
	buf = append(buf, what...)
	buf = append(buf, b...)
	k.scratch = buf
	k.Trace(buf)
	if k.Verbose {
		k.Logf(pid, "%s %d %s", what, n, describe(b))
	}
}

// Logf adds a line for pid (-1: none) to the step log, when verbose.
func (k *Kernel) Logf(pid ids.ProcessID, format string, args ...any) {
	if !k.Verbose {
		return
	}
	head := fmt.Sprintf("%9.3fms", float64(k.Now)/float64(Ms))
	if pid >= 0 {
		head += fmt.Sprintf(" p%d#%d", pid, k.inc[pid])
	}
	k.Lines = append(k.Lines, head+" "+fmt.Sprintf(format, args...))
}

// describe renders a frame or value for the step log.
func describe(b []byte) string {
	if len(b) > 48 {
		return fmt.Sprintf("%x… (%d B)", b[:48], len(b))
	}
	return fmt.Sprintf("%x", b)
}

// Hash returns the trace hash.
func (k *Kernel) Hash() uint64 { return k.hash.Sum64() }

// Steps returns how many steps the trace holds.
func (k *Kernel) Steps() int { return k.steps }
