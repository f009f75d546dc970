package consensus

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/storage"
)

// The simulator runs n machines on a virtual clock: a seeded network
// (loss, duplication, delay and so reordering, one-way cuts), seeded
// storage (each write resolves after a latency, in issue order, and a
// crash drops every write not yet resolved), and a scripted failure
// detector. Nothing runs concurrently, so a seed is a schedule: running it
// twice gives the same steps and the same trace hash. The oracle checks,
// across incarnations:
//
//   - Uniform Agreement: no two processes decide differently;
//   - Uniform Validity: a decided value was proposed, and in the
//     crash-recovery sense — "a process proposes by logging its initial
//     value on stable storage" (§3.2) — it was durable in its proposer's
//     log, or its proposer sent it at its own lease ballot (the one
//     exception the package comment allows);
//   - that no two values are ever sent at one (instance, ballot);
//   - Termination: once the schedule heals, every process decides every
//     proposed instance.

var (
	simSeed  = flag.Uint64("sim.seed", 0, "run only this simulator seed and print its steps")
	simSeeds = flag.Int("sim.seeds", 1000, "number of seeds TestSimSchedules runs")
)

const ms = int64(time.Millisecond)

// Event kinds.
const (
	evFrame = iota + 1
	evWrite
	evTimer
	evAction
)

type simEvent struct {
	at    int64
	seq   uint64 // ties resolve in scheduling order
	kind  int
	pid   ids.ProcessID
	inc   int // evWrite, evTimer: the incarnation they belong to
	from  ids.ProcessID
	frame []byte
	w     *simWrite
	t     timer
	do    func()
}

type simQueue []*simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(*simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// simWrite is an opPut or opDelete on its way to the disk.
type simWrite struct {
	ef  effect
	err error
}

// simFD is a process's scripted failure-detector view.
type simFD struct {
	leader  ids.ProcessID
	suspect []bool
}

func (f *simFD) Leader() ids.ProcessID         { return f.leader }
func (f *simFD) Suspects(p ids.ProcessID) bool { return f.suspect[p] }

type simProc struct {
	pid       ids.ProcessID
	m         *machine // nil while down
	inc       int
	disk      *storage.Mem // what survives a crash
	fd        *simFD
	persist   [2]int64 // write latency range
	lastWrite int64    // when the last issued write resolves
	// hold, when set, keeps the writes it selects off the disk until
	// release or failHeld.
	hold func(cell byte, k uint64) bool
	held []*simWrite
	// leaseB is the lease ballot this incarnation holds, 0 if none.
	leaseB uint64
}

// simStep is one line of the trace: an input the machine took or an
// effect it made.
type simStep struct {
	at   int64
	pid  ids.ProcessID
	inc  int
	op   uint8 // an effect op, or opRecv for an input frame
	from ids.ProcessID
	msg  message
	cell byte
	k    uint64
}

const opRecv uint8 = 100

type simOptions struct {
	n        int
	policy   Policy
	loss     float64 // per-frame drop probability between processes
	dup      float64 // per-frame duplication probability
	delay    [2]int64
	persist  [2]int64 // every process's write latency range, unless the schedule sets one
	retryMin time.Duration
	retryMax time.Duration
	leaseTTL time.Duration
}

type sim struct {
	opts    simOptions
	seed    uint64
	rng     *rand.Rand
	now     int64
	seq     uint64
	queue   simQueue
	procs   []*simProc
	cut     [][]bool // cut[from][to]: a one-way partition
	drop    func(from, to ids.ProcessID, m message) bool
	healed  bool
	trace   []simStep
	hash    hash.Hash64
	scratch []byte
	verbose bool
	steps   []string

	proposed map[uint64]bool     // instances the schedule proposed
	valid    map[uint64][][]byte // values Validity accepts, per instance
	chosen   map[uint64][]byte   // the first decision of each instance
	ballots  map[[2]uint64][]byte
	failure  string
}

func newSim(seed uint64, opts simOptions) *sim {
	s := &sim{
		opts:     opts,
		seed:     seed,
		rng:      rand.New(rand.NewPCG(seed, seed^0x5eed)),
		hash:     fnv.New64a(),
		proposed: make(map[uint64]bool),
		valid:    make(map[uint64][][]byte),
		chosen:   make(map[uint64][]byte),
		ballots:  make(map[[2]uint64][]byte),
	}
	for p := range opts.n {
		s.procs = append(s.procs, &simProc{
			pid:     ids.ProcessID(p),
			disk:    storage.NewMem(),
			persist: opts.persist,
			fd:      &simFD{suspect: make([]bool, opts.n)},
		})
		s.cut = append(s.cut, make([]bool, opts.n))
	}
	for p := range s.procs {
		s.recover(ids.ProcessID(p))
	}
	return s
}

// newScriptedSim is a calm three-process simulator for a hand-written
// schedule; the test prints its steps if it fails.
func newScriptedSim(t *testing.T, opts simOptions) *sim {
	t.Helper()
	if opts.n == 0 {
		opts.n = 3
	}
	if opts.policy == 0 {
		opts.policy = PolicyLeader
	}
	if opts.delay == [2]int64{} {
		opts.delay = [2]int64{ms / 10, ms}
	}
	if opts.persist == [2]int64{} {
		opts.persist = [2]int64{ms / 2, 2 * ms}
	}
	s := newSim(1, opts)
	s.verbose = true
	t.Cleanup(func() {
		if s.failure != "" {
			t.Errorf("oracle: %s", s.failure)
		}
		if t.Failed() {
			t.Logf("simulator steps:\n%s", strings.Join(s.steps, "\n"))
		}
	})
	return s
}

func (s *sim) push(ev *simEvent) {
	s.seq++
	ev.seq = s.seq
	heap.Push(&s.queue, ev)
}

func (s *sim) at(at int64, do func()) { s.push(&simEvent{at: at, kind: evAction, do: do}) }

func (s *sim) between(r [2]int64) int64 { return r[0] + s.rng.Int64N(r[1]-r[0]+1) }

// step runs the next event; false when none is left.
func (s *sim) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*simEvent)
	s.now = ev.at
	p := s.procs[max(ev.pid, 0)]
	switch ev.kind {
	case evAction:
		ev.do()
	case evFrame:
		if p.m == nil {
			return true // "messages that arrive at a process while it is down are lost"
		}
		msg, err := decodeMessage(ev.frame)
		if err != nil {
			s.fail("p%d received an undecodable frame: %v", p.pid, err)
			return true
		}
		s.record(p, simStep{op: opRecv, from: ev.from, msg: msg, k: msg.k})
		p.m.receive(ev.from, msg)
		s.drain(p)
	case evWrite:
		if p.m == nil || ev.inc != p.inc {
			return true // dropped by the crash
		}
		s.resolve(p, ev.w)
	case evTimer:
		if p.m == nil || ev.inc != p.inc {
			return true
		}
		p.m.fire(ev.t)
		s.drain(p)
	}
	return true
}

// resolve makes w durable (or fails it) and reports it to p's machine.
func (s *sim) resolve(p *simProc, w *simWrite) {
	if w.err == nil {
		key := cellKey(w.ef.cell, w.ef.k)
		if w.ef.op == opDelete {
			_ = p.disk.Delete(key)
		} else {
			_ = p.disk.Put(key, w.ef.val)
		}
		if w.ef.op == opPut && w.ef.cell == cellProposal {
			s.valid[w.ef.k] = append(s.valid[w.ef.k], w.ef.val)
		}
	}
	if w.ef.op == opPut {
		p.m.persisted(&w.ef, w.err)
		s.drain(p)
	}
}

// drain carries out the effects of p's last input.
func (s *sim) drain(p *simProc) {
	m := p.m
	for i := 0; m.more(i); i++ {
		s.effect(p, &m.out[i])
	}
	m.drained()
}

func (s *sim) effect(p *simProc, ef *effect) {
	st := simStep{op: ef.op, from: ef.to, msg: ef.msg, cell: ef.cell, k: ef.k}
	if ef.op == opArm {
		st.k = ef.t.k
	}
	s.record(p, st)
	switch ef.op {
	case opSend:
		if ef.msg.kind == mAccept {
			if ef.msg.b == p.leaseB {
				s.valid[ef.msg.k] = append(s.valid[ef.msg.k], bytes.Clone(ef.msg.val))
			}
			key := [2]uint64{ef.msg.k, ef.msg.b}
			if v, ok := s.ballots[key]; !ok {
				s.ballots[key] = bytes.Clone(ef.msg.val)
			} else if !bytes.Equal(v, ef.msg.val) {
				s.fail("two values at instance %d ballot %d: %q and %q", key[0], key[1], v, ef.msg.val)
			}
		}
		frame := ef.msg.encode()
		for to := range s.procs {
			if ef.to == ids.Nobody || ef.to == ids.ProcessID(to) {
				s.transmit(p.pid, ids.ProcessID(to), frame, ef.msg)
			}
		}
	case opPut, opDelete:
		w := &simWrite{ef: *ef}
		w.ef.val = bytes.Clone(ef.val)
		if p.hold != nil && p.hold(ef.cell, ef.k) {
			p.held = append(p.held, w)
			return
		}
		s.schedule(p, w)
	case opArm:
		s.push(&simEvent{at: s.now + ef.after, kind: evTimer, pid: p.pid, inc: p.inc, t: ef.t})
	case opLeaseAcquired:
		p.leaseB = ef.msg.b
	case opLeaseLost:
		p.leaseB = 0
	case opDecided:
		valid := false
		for _, v := range s.valid[ef.k] {
			valid = valid || bytes.Equal(v, ef.val)
		}
		if !valid {
			s.fail("p%d decided %q for instance %d: no log holds it and no lease holder sent it", p.pid, ef.val, ef.k)
		}
		if v, ok := s.chosen[ef.k]; !ok {
			s.chosen[ef.k] = bytes.Clone(ef.val)
		} else if !bytes.Equal(v, ef.val) {
			s.fail("p%d decided %q for instance %d, another process %q", p.pid, ef.val, ef.k, v)
		}
	}
}

// schedule queues w behind p's earlier writes: a log resolves in issue
// order.
func (s *sim) schedule(p *simProc, w *simWrite) {
	p.lastWrite = max(s.now+s.between(p.persist), p.lastWrite)
	s.push(&simEvent{at: p.lastWrite, kind: evWrite, pid: p.pid, inc: p.inc, w: w})
}

func (s *sim) transmit(from, to ids.ProcessID, frame []byte, msg message) {
	if s.drop != nil && s.drop(from, to, msg) {
		return
	}
	if from != to && (s.cut[from][to] || s.rng.Float64() < s.opts.loss) {
		return
	}
	copies := 1
	if s.rng.Float64() < s.opts.dup {
		copies = 2
	}
	for range copies {
		s.push(&simEvent{at: s.now + s.between(s.opts.delay), kind: evFrame, pid: to, from: from, frame: frame})
	}
}

func (s *sim) record(p *simProc, st simStep) {
	st.at, st.pid, st.inc = s.now, p.pid, p.inc
	s.trace = append(s.trace, st)
	b := s.scratch[:0]
	for _, v := range []uint64{uint64(st.at), uint64(st.pid), uint64(st.inc), uint64(st.op),
		uint64(st.from), uint64(st.msg.kind), st.msg.k, st.msg.b, st.msg.promised, uint64(st.cell), st.k} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, st.msg.val...)
	s.scratch = b
	s.hash.Write(b)
	if s.verbose {
		s.steps = append(s.steps, st.String())
	}
}

var opNames = map[uint8]string{
	opSend: "send", opPut: "put", opDelete: "delete", opArm: "arm", opDecided: "decided",
	opForgot: "forgot", opLeaseAcquired: "lease-acquired", opLeaseLost: "lease-lost", opRecv: "recv",
}

var kindNames = map[uint8]string{
	mPrepare: "prepare", mPromise: "promise", mAccept: "accept", mAccepted: "accepted", mNack: "nack",
	mDecide: "decide", mDecideReq: "decide-req", mForgotten: "forgotten", mDecideMulti: "decide-multi",
	mLeaseReq: "lease-req", mLeaseAck: "lease-ack", mLeaseNack: "lease-nack",
}

func (st simStep) String() string {
	head := fmt.Sprintf("%9.3fms p%d#%d %s", float64(st.at)/float64(ms), st.pid, st.inc, opNames[st.op])
	switch st.op {
	case opSend, opRecv:
		return fmt.Sprintf("%s %v %s k=%d b=%d promised=%d val=%q", head, st.from, kindNames[st.msg.kind],
			st.msg.k, st.msg.b, st.msg.promised, st.msg.val)
	case opPut, opDelete:
		return fmt.Sprintf("%s %s", head, cellKey(st.cell, st.k))
	case opArm:
		return fmt.Sprintf("%s timer of k=%d", head, st.k)
	}
	return fmt.Sprintf("%s k=%d", head, st.k)
}

func (s *sim) fail(format string, args ...any) {
	if s.failure == "" {
		s.failure = fmt.Sprintf("%.3fms: ", float64(s.now)/float64(ms)) + fmt.Sprintf(format, args...)
	}
}

// ---- the schedule's moves ----

func (s *sim) propose(pid ids.ProcessID, k uint64, v []byte) {
	p := s.procs[pid]
	if p.m == nil {
		return
	}
	s.proposed[k] = true
	if err := p.m.propose(k, v, s.now); err != nil {
		s.fail("p%d propose %d: %v", pid, k, err)
	}
	p.m.startDriver(p.m.get(k))
	s.drain(p)
}

func (s *sim) learn(pid ids.ProcessID, k uint64) {
	if p := s.procs[pid]; p.m != nil {
		p.m.startDriver(p.m.get(k))
		s.drain(p)
	}
}

func (s *sim) revokeLease(pid ids.ProcessID) {
	if p := s.procs[pid]; p.m != nil {
		p.m.dropLease()
		s.drain(p)
	}
}

func (s *sim) discardBelow(pid ids.ProcessID, k uint64) {
	if p := s.procs[pid]; p.m != nil {
		p.m.discardBelow(k)
		s.drain(p)
	}
}

// crash loses p's volatile state and every write it has not made durable.
func (s *sim) crash(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m == nil {
		return
	}
	if s.verbose {
		s.steps = append(s.steps, fmt.Sprintf("%9.3fms p%d#%d crash", float64(s.now)/float64(ms), pid, p.inc))
	}
	p.m, p.held, p.lastWrite, p.leaseB = nil, nil, s.now, 0
	p.inc++
}

// recover boots a new incarnation of p from its disk and replays it as
// the broadcast layer does: every instance from the first on is re-learnt
// locally or re-proposed from its logged proposal, up to the first that
// has neither.
func (s *sim) recover(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m != nil {
		return
	}
	cfg := Config{PID: pid, N: s.opts.n, Policy: s.opts.policy, Seed: s.seed*131 + uint64(pid)*17 + uint64(p.inc),
		RetryMin: s.opts.retryMin, RetryMax: s.opts.retryMax, LeaseTTL: s.opts.leaseTTL}
	p.m = newMachine(cfg, p.fd)
	if err := restore(p.m, p.disk); err != nil {
		s.fail("p%d recover: %v", pid, err)
	}
	if s.verbose {
		s.steps = append(s.steps, fmt.Sprintf("%9.3fms p%d#%d start", float64(s.now)/float64(ms), pid, p.inc))
	}
	p.m.start()
	for k := p.m.floor; ; k++ {
		in, ok := p.m.insts[k]
		if !ok || !in.hasDec && !in.hasProp {
			break
		}
		if !in.hasDec {
			p.m.startDriver(p.m.get(k))
		}
	}
	s.drain(p)
	if s.healed {
		s.proposeAll(p)
	}
}

// proposeAll has p propose every instance the schedule proposed, as the
// broadcast layer eventually does in every round it has not delivered.
func (s *sim) proposeAll(p *simProc) {
	for _, k := range slices.Sorted(maps.Keys(s.proposed)) {
		s.propose(p.pid, k, []byte(fmt.Sprintf("v%d-p%d-healed", k, p.pid)))
	}
}

// release makes p's held writes that match durable, in issue order, and
// returns how many there were.
func (s *sim) release(pid ids.ProcessID, match func(cell byte, k uint64) bool) int {
	p := s.procs[pid]
	var kept []*simWrite
	n := 0
	for _, w := range p.held {
		if match(w.ef.cell, w.ef.k) {
			s.schedule(p, w)
			n++
		} else {
			kept = append(kept, w)
		}
	}
	p.held = kept
	return n
}

// failHeld fails every held write of p without crashing it: the store is
// dying under a live incarnation.
func (s *sim) failHeld(pid ids.ProcessID) {
	p := s.procs[pid]
	held := p.held
	p.held = nil
	for _, w := range held {
		w.err = storage.ErrInjectedCrash
		s.resolve(p, w)
	}
}

// inject delivers a frame to every process as if from `from`.
func (s *sim) inject(from ids.ProcessID, m message) {
	frame := m.encode()
	for to := range s.procs {
		s.push(&simEvent{at: s.now + s.opts.delay[0], kind: evFrame, pid: ids.ProcessID(to), from: from, frame: frame})
	}
}

// heal ends every fault: the network is reliable again, every process is
// up, every view trusts everyone and agrees on p0, and every process
// proposes every proposed instance.
func (s *sim) heal() {
	s.healed = true
	s.opts.loss, s.opts.dup = 0, 0
	s.drop = nil
	for _, row := range s.cut {
		clear(row)
	}
	for _, p := range s.procs {
		clear(p.fd.suspect)
		p.fd.leader = 0
		p.hold = nil
		s.release(p.pid, func(byte, uint64) bool { return true })
	}
	for _, p := range s.procs {
		if p.m == nil {
			s.recover(p.pid)
		} else {
			s.proposeAll(p)
		}
	}
}

// runUntil steps until cond holds; false if the schedule fails, runs dry
// or passes the virtual deadline first.
func (s *sim) runUntil(deadline int64, cond func() bool) bool {
	for s.failure == "" && !cond() {
		if len(s.queue) == 0 || s.queue[0].at > deadline || !s.step() {
			return false
		}
	}
	return s.failure == ""
}

// decidedAll reports whether every up process decided every proposed
// instance.
func (s *sim) decidedAll() bool {
	for _, p := range s.procs {
		if p.m == nil {
			return false
		}
		for k := range s.proposed {
			if in, ok := p.m.insts[k]; !ok || !in.hasDec {
				return false
			}
		}
	}
	return true
}

// await runs a scripted schedule until cond holds, within 10s of virtual
// time and without an oracle violation.
func (s *sim) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !s.runUntil(s.now+10_000*ms, cond) {
		if s.failure != "" {
			t.Fatalf("%s: %s", what, s.failure)
		}
		t.Fatalf("%s: not by %.3fms", what, float64(s.now)/float64(ms))
	}
}

// settle runs until no event is left before now+d.
func (s *sim) settle(d int64) { s.runUntil(s.now+d, func() bool { return false }) }

// decided returns pid's decision of k, if it has one.
func (s *sim) decided(pid ids.ProcessID, k uint64) ([]byte, bool) {
	if m := s.procs[pid].m; m != nil {
		if in, ok := m.insts[k]; ok && in.hasDec {
			return in.decided, true
		}
	}
	return nil, false
}

// awaitDecided runs until every listed process decided k, and checks that
// the decision is want.
func (s *sim) awaitDecided(t *testing.T, k uint64, want []byte, pids ...ids.ProcessID) {
	t.Helper()
	s.await(t, fmt.Sprintf("instance %d decided at %v", k, pids), func() bool {
		for _, p := range pids {
			if _, ok := s.decided(p, k); !ok {
				return false
			}
		}
		return true
	})
	for _, p := range pids {
		if got, _ := s.decided(p, k); !bytes.Equal(got, want) {
			t.Fatalf("p%d decided %q for instance %d, want %q", p, got, k, want)
		}
	}
}

// decideUntilHeld has p0 propose instance after instance from `from` on,
// each decided everywhere, until it holds a lease; it returns the next
// instance.
func (s *sim) decideUntilHeld(t *testing.T, from uint64) uint64 {
	t.Helper()
	k := from
	for ; !s.procs[0].m.leaseHeld; k++ {
		if k > from+20 {
			t.Fatalf("p0 holds no lease after %d rounds", k-from)
		}
		s.propose(0, k, val(0, k))
		s.awaitDecided(t, k, val(0, k), 0, 1, 2)
	}
	return k
}

// heldWrites counts pid's held writes that match.
func (s *sim) heldWrites(pid ids.ProcessID, match func(cell byte, k uint64) bool) int {
	n := 0
	for _, w := range s.procs[pid].held {
		if match(w.ef.cell, w.ef.k) {
			n++
		}
	}
	return n
}

// isCell selects the writes of one cell kind, of instance k or (k < 0) of
// any.
func isCell(cell byte, k int64) func(byte, uint64) bool {
	return func(c byte, kk uint64) bool { return c == cell && (k < 0 || kk == uint64(k)) }
}

// onDisk reads one cell of pid's durable log.
func (s *sim) onDisk(pid ids.ProcessID, cell byte, k uint64) ([]byte, bool) {
	v, ok, _ := s.procs[pid].disk.Get(cellKey(cell, k))
	return v, ok
}

// sent returns the frames of one kind for instance k that pid sent from
// trace index `since` on.
func (s *sim) sent(pid ids.ProcessID, kind uint8, k uint64, since int) []message {
	var out []message
	for _, st := range s.trace[since:] {
		if st.pid == pid && st.op == opSend && st.msg.kind == kind && st.msg.k == k {
			out = append(out, st.msg)
		}
	}
	return out
}

// received counts the processes pid received frames of one kind for
// instance k from, from trace index `since` on.
func (s *sim) received(pid ids.ProcessID, kind uint8, k uint64, since int) int {
	from := make(map[ids.ProcessID]bool)
	for _, st := range s.trace[since:] {
		if st.pid == pid && st.op == opRecv && st.msg.kind == kind && st.msg.k == k {
			from[st.from] = true
		}
	}
	return len(from)
}

// effects counts pid's effects of one op on one kind of cell (0: any)
// from trace index `since` on.
func (s *sim) effects(pid ids.ProcessID, op uint8, cell byte, since int) int {
	n := 0
	for _, st := range s.trace[since:] {
		if st.pid == pid && st.op == op && (cell == 0 || st.cell == cell) {
			n++
		}
	}
	return n
}

// ---- random schedules ----

// healAt is when a random schedule's faults end.
const healAt = 300 * ms

// randomSchedule is seed's schedule for three processes: up to six
// instances proposed by random processes, crashes and recoveries, one-way
// cuts, wrong leader hints and lease revocations over a lossy, duplicating,
// reordering network, each process with a disk of its own speed, then a
// heal at 300ms.
func randomSchedule(seed uint64) *sim {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	opts := simOptions{
		n:        3,
		policy:   PolicyLeader,
		loss:     []float64{0, 0.05, 0.3}[r.IntN(3)],
		dup:      []float64{0, 0.05}[r.IntN(2)],
		delay:    [2]int64{0, (1 + r.Int64N(3)) * ms},
		retryMin: 3 * time.Millisecond,
		retryMax: 40 * time.Millisecond,
		leaseTTL: time.Duration(20+r.IntN(100)) * time.Millisecond,
	}
	if r.IntN(4) == 0 {
		opts.policy = PolicyRotating
	}
	s := newSim(seed, opts)
	for _, p := range s.procs {
		p.persist = [2]int64{0, []int64{1, 4, 20}[r.IntN(3)] * ms} // some disks are slow
	}
	pid := func() ids.ProcessID { return ids.ProcessID(r.IntN(opts.n)) }
	for k := range uint64(1 + r.IntN(6)) {
		for p := range opts.n {
			if r.IntN(2) == 0 || p == opts.n-1 && !s.proposed[k] {
				v := []byte(fmt.Sprintf("v%d-p%d", k, p))
				s.at(r.Int64N(healAt), func() { s.propose(ids.ProcessID(p), k, v) })
			}
		}
	}
	for range r.IntN(5) {
		p, at := pid(), r.Int64N(healAt)
		s.at(at, func() { s.crash(p); s.suspect(p, true) })
		s.at(at+r.Int64N(100*ms), func() { s.recover(p); s.suspect(p, false) })
	}
	for range r.IntN(3) {
		from, to, at := pid(), pid(), r.Int64N(healAt)
		s.at(at, func() { s.cut[from][to] = true })
		s.at(at+r.Int64N(100*ms), func() { s.cut[from][to] = false })
	}
	for range r.IntN(3) {
		p, leader := pid(), pid()
		s.at(r.Int64N(healAt), func() { s.procs[p].fd.leader = leader })
	}
	for range r.IntN(3) {
		p := pid()
		s.at(r.Int64N(healAt), func() { s.revokeLease(p) })
	}
	s.at(healAt, s.heal)
	return s
}

// suspect makes every other process's view suspect (or trust) p a few
// milliseconds from now, the leader hint moving to the lowest trusted
// process.
func (s *sim) suspect(p ids.ProcessID, on bool) {
	for _, q := range s.procs {
		if q.pid == p {
			continue
		}
		fd := q.fd
		s.at(s.now+s.between([2]int64{2 * ms, 30 * ms}), func() {
			fd.suspect[p] = on
			fd.leader = 0
			for fd.leader < ids.ProcessID(s.opts.n-1) && fd.suspect[fd.leader] {
				fd.leader++
			}
		})
	}
}

// runSchedule plays seed's schedule to its end: the heal, then until every
// process has decided every instance (Termination), within 10s of virtual
// time. It returns the trace hash and the first violation, if any.
func runSchedule(seed uint64, verbose bool) (*sim, string) {
	s := randomSchedule(seed)
	s.verbose = verbose
	if !s.runUntil(healAt, func() bool { return s.healed }) && s.failure == "" {
		s.fail("the schedule never healed")
	}
	if s.failure == "" && !s.runUntil(s.now+10_000*ms, s.decidedAll) && s.failure == "" {
		s.fail("Termination: not every process decided every instance 10s after the heal")
	}
	return s, s.failure
}

// TestSimSchedules runs a fixed batch of random schedules through the
// oracle. A failing seed is replayed with its steps printed; run one seed
// alone with -sim.seed=N (add -v to see its steps when it passes).
func TestSimSchedules(t *testing.T) {
	seeds := make([]uint64, *simSeeds)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	if *simSeed != 0 {
		seeds = []uint64{*simSeed}
	}
	for _, seed := range seeds {
		if _, failure := runSchedule(seed, false); failure != "" || *simSeed != 0 {
			s, _ := runSchedule(seed, true)
			steps := s.steps
			if len(steps) > 400 && *simSeed == 0 {
				steps = steps[len(steps)-400:]
			}
			if failure != "" {
				t.Fatalf("seed %d: %s\nreplay: go test ./internal/consensus/ -run TestSimSchedules -sim.seed=%d\nsteps (last %d):\n%s",
					seed, failure, seed, len(steps), strings.Join(steps, "\n"))
			}
			t.Logf("seed %d: trace %016x, %d steps:\n%s", seed, s.hash.Sum64(), len(s.trace), strings.Join(steps, "\n"))
		}
	}
}

// TestSimReplays: one seed run twice gives the same trace.
func TestSimReplays(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		a, _ := runSchedule(seed, false)
		b, _ := runSchedule(seed, false)
		if a.hash.Sum64() != b.hash.Sum64() || len(a.trace) != len(b.trace) {
			t.Fatalf("seed %d: trace %016x (%d steps), then %016x (%d steps)",
				seed, a.hash.Sum64(), len(a.trace), b.hash.Sum64(), len(b.trace))
		}
	}
}

// BenchmarkSimSchedule measures one random three-process schedule, heal
// and Termination included.
func BenchmarkSimSchedule(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		if _, failure := runSchedule(uint64(i)+1, false); failure != "" {
			b.Fatalf("seed %d: %s", i+1, failure)
		}
	}
}
