package main

import (
	"fmt"
	"sync"
	"time"
)

// failAfter is the commit deadline: an operation not committed within it
// of its due time counts as failed, and a closed-loop client stops waiting
// for it.
const failAfter = 2 * time.Second

// opRec is one operation's life on the run clock (nanoseconds since the
// tracker was built; 0 = not happened).
type opRec struct {
	due    int64  // scheduled send (open loop) or actual send (closed loop)
	sent   int64  // Broadcast returned
	first  int64  // first OnDeliver at any process
	commit int64  // covered at every required process
	pos    uint64 // agreed position + 1 within its group; 0 = unknown
	group  int32
	client int32 // closed-loop waiter to wake on commit; -1 = none
	err    bool  // Broadcast returned an error
}

// groupTrack is the coverage state of one ordering group.
//
// A process delivers a group's positions in order and only ever jumps
// forward by adopting a state (OnRestore with Snapshot.Pos), so what it has
// covered is a single watermark: every position below mark[p]. The group's
// commit floor is the lowest watermark among the required processes.
type groupTrack struct {
	byPos []uint64 // op id + 1 agreed at each position; 0 = not seen yet
	mark  []uint64 // per process
	floor uint64
}

// opChunk is how many operation records the table grows by; it grows in
// chunks so that no record ever moves.
const opChunk = 1 << 14

// tracker decides when an operation is committed and checks the delivery
// streams against each other while doing so.
//
// Committed means: every required process (one that never crashes in the
// workload) has either fired OnDeliver for the operation or fired OnRestore
// with a Snapshot.Pos above the position another process delivered it at.
// Waiting on OnDeliver alone hangs clients: with checkpointing on, a few
// dozen deliveries per run are covered by state adoption instead.
type tracker struct {
	epoch time.Time

	mu        sync.Mutex
	required  []bool
	ops       [][]opRec
	nOps      uint64
	groups    []groupTrack
	waiters   []chan struct{}
	committed uint64
	restores  uint64 // OnRestore calls
	viol      []string
	nViol     int
}

func newTracker(required []bool, groups, clients int) *tracker {
	t := &tracker{epoch: time.Now(), required: required, groups: make([]groupTrack, groups)}
	for g := range t.groups {
		t.groups[g].mark = make([]uint64, len(required))
	}
	for range clients {
		// One slot is enough: a wake-up says "look again", and a client
		// that finds the slot full has a look pending.
		t.waiters = append(t.waiters, make(chan struct{}, 1))
	}
	return t
}

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracker) rec(id uint64) *opRec { return &t.ops[id/opChunk][id%opChunk] }

// register creates the next operation, due at the given run-clock time.
func (t *tracker) register(due int64, client int) uint64 {
	t.mu.Lock()
	id := t.nOps
	if id/opChunk == uint64(len(t.ops)) {
		t.ops = append(t.ops, make([]opRec, opChunk))
	}
	t.nOps++
	*t.rec(id) = opRec{due: due, client: int32(client)}
	t.mu.Unlock()
	return id
}

// sent records Broadcast's return.
func (t *tracker) sent(id uint64, at int64, err error) {
	t.mu.Lock()
	op := t.rec(id)
	op.sent, op.err = at, err != nil
	t.mu.Unlock()
}

func (t *tracker) violate(format string, a ...any) {
	t.mu.Lock()
	t.violateLocked(format, a...)
	t.mu.Unlock()
}

func (t *tracker) violateLocked(format string, a ...any) {
	t.nViol++
	if len(t.viol) < 8 {
		t.viol = append(t.viol, fmt.Sprintf(format, a...))
	}
}

// delivered records OnDeliver of op id at position pos of group g on
// process p.
func (t *tracker) delivered(p, g int, pos, id uint64, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= t.nOps {
		t.violateLocked("integrity: p%d delivered unknown op %d at g%d/%d", p, id, g, pos)
		return
	}
	gt := &t.groups[g]
	for uint64(len(gt.byPos)) <= pos {
		gt.byPos = append(gt.byPos, 0)
	}
	switch cur := gt.byPos[pos]; {
	case cur == 0:
		gt.byPos[pos] = id + 1
		op := t.rec(id)
		if op.pos != 0 {
			t.violateLocked("integrity: op %d delivered at g%d/%d and g%d/%d", id, op.group, op.pos-1, g, pos)
			return
		}
		op.pos, op.group, op.first = pos+1, int32(g), at
		if pos < gt.floor {
			// Every required process adopted past it before anyone was
			// seen delivering it.
			t.commit(op, id, at)
		}
	case cur != id+1:
		t.violateLocked("total order: g%d/%d is op %d at one process and op %d at p%d", g, pos, cur-1, id, p)
		return
	}
	if pos > gt.mark[p] {
		t.violateLocked("gap: p%d delivered g%d/%d with only %d covered and no restore", p, g, pos, gt.mark[p])
	}
	if pos+1 > gt.mark[p] {
		gt.mark[p] = pos + 1
		t.advance(gt, at)
	}
}

// restored records OnRestore on process p: group g's positions below
// snapPos are now covered there without having been delivered.
func (t *tracker) restored(p, g int, snapPos uint64, at int64) {
	t.mu.Lock()
	t.restores++
	gt := &t.groups[g]
	if snapPos > gt.mark[p] {
		gt.mark[p] = snapPos
		t.advance(gt, at)
	}
	t.mu.Unlock()
}

// advance raises the group's commit floor to the lowest required
// watermark and commits the operations it passes.
func (t *tracker) advance(gt *groupTrack, at int64) {
	floor := ^uint64(0)
	for p, m := range gt.mark {
		if t.required[p] && m < floor {
			floor = m
		}
	}
	for pos := gt.floor; pos < floor && pos < uint64(len(gt.byPos)); pos++ {
		if id := gt.byPos[pos]; id != 0 {
			t.commit(t.rec(id-1), id-1, at)
		}
	}
	if floor > gt.floor {
		gt.floor = floor
	}
}

func (t *tracker) commit(op *opRec, id uint64, at int64) {
	if op.commit != 0 {
		return
	}
	op.commit = at
	t.committed++
	if op.client >= 0 {
		select {
		case t.waiters[op.client] <- struct{}{}:
		default:
		}
	}
}

// await blocks client until op id commits or its deadline passes, and
// reports whether it committed. timer is the client's reusable timer.
func (t *tracker) await(client int, id uint64, timer *time.Timer) bool {
	timer.Reset(failAfter)
	defer timer.Stop()
	for {
		t.mu.Lock()
		done := t.rec(id).commit != 0
		t.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-t.waiters[client]: // possibly for an earlier operation it gave up on
		case <-timer.C:
			return false
		}
	}
}

func (t *tracker) commits() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}

// mark returns process p's watermark summed over groups: its position in
// the agreed order(s).
func (t *tracker) mark(p int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum uint64
	for g := range t.groups {
		sum += t.groups[g].mark[p]
	}
	return sum
}

// drain waits until every operation whose Broadcast succeeded is
// committed, for at most limit, and reports how many are still missing.
func (t *tracker) drain(limit time.Duration) (missing uint64) {
	deadline := time.Now().Add(limit)
	for {
		missing = 0
		t.mu.Lock()
		for id := uint64(0); id < t.nOps; id++ {
			if op := t.rec(id); op.commit == 0 && !op.err {
				missing++
			}
		}
		t.mu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// window is the tracker's account of the measured interval [from, to).
type window struct {
	attempted int     // operations due in the window
	failed    int     // of those: Broadcast error, or not committed within failAfter
	commits   int     // operations committed in the window
	latency   []int64 // commit − due, of the attempted that did not fail
	call      []int64 // sent − due: time inside Broadcast (plus generator lateness)
	first     []int64 // first delivery − due
	skew      []int64 // commit − first delivery
	commitAt  []int64 // commit times in the window, for gap and slice analysis
}

func (t *tracker) window(from, to int64) window {
	var w window
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := uint64(0); id < t.nOps; id++ {
		op := t.rec(id)
		if op.commit >= from && op.commit < to {
			w.commits++
			w.commitAt = append(w.commitAt, op.commit)
		}
		if op.due < from || op.due >= to {
			continue
		}
		w.attempted++
		if op.err || op.commit == 0 || op.commit-op.due > int64(failAfter) {
			w.failed++
			continue
		}
		w.latency = append(w.latency, op.commit-op.due)
		w.call = append(w.call, op.sent-op.due)
		w.first = append(w.first, op.first-op.due)
		w.skew = append(w.skew, op.commit-op.first)
	}
	return w
}

// check is the end-of-run verdict. Total order and integrity were checked
// on every delivery (position → op agreement across all processes,
// including every incarnation of a recovered one); validity is checked
// here: no operation whose Broadcast succeeded may be missing.
func (t *tracker) check(missing uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nViol > 0 {
		return fmt.Errorf("%d violations, first: %v", t.nViol, t.viol)
	}
	if missing > 0 {
		return fmt.Errorf("validity: %d operations broadcast successfully were never committed", missing)
	}
	return nil
}
