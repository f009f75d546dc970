package core_test

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The core simulator runs n broadcast machines on a virtual clock: a seeded
// network (loss, duplication, delay and so reordering, one-way cuts),
// seeded storage (each write resolves after a latency, in issue order; a
// crash drops every write not yet resolved; an armed fault fails a write
// and kills the incarnation, as storage.Faulty does) and a scripted
// Consensus box in place of the engines. The box logs a proposal in its
// proposer's simulated disk, chooses one value per instance among the
// durably proposed ones, and hands each process the decision after a
// seeded delay — through its settle, or at once to a learn of a decision
// the process already holds — and reports an instance forgotten once a
// majority has discarded it. Nothing runs concurrently, so a seed is a
// schedule: run twice it takes the same steps. internal/check is the
// oracle — Validity, Integrity, Total Order, and, once the schedule heals,
// Termination — with the core's own ordering rules beside it:
//
//   - rounds reach OnRound strictly in round order;
//   - a BatchedBroadcast returns only once its Unordered record is durable;
//   - the checkpoint and GC-floor cells are durable before a discard;
//   - the Unordered-set rewrite is issued right before the log delete.

var (
	simSeed  = flag.Uint64("sim.seed", 0, "run only this core simulator seed and print its steps")
	simSeeds = flag.Int("sim.seeds", 150, "seeds per TestSimSchedules batch")
)

const ms = int64(time.Millisecond)

const never = math.MaxInt64

// Event kinds.
const (
	evFrame = iota + 1
	evWrite
	evTimer
	evSettle
	evChoose
	evAction
)

type simEvent struct {
	at      int64
	seq     uint64 // ties resolve in scheduling order
	kind    int
	pid     ids.ProcessID
	inc     int // the incarnation a write, timer or settle belongs to
	from    ids.ProcessID
	frame   []byte
	w       *simWrite
	k       uint64
	v       []byte
	decided bool
	do      func()
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

// simWrite is a write on its way to a process's disk: one of the machine's
// (ef), or one of the box's consensus cells (cell 'p' or 'd' of instance k).
type simWrite struct {
	op   uint8
	key  string
	val  []byte
	err  error
	ef   core.SimEffect
	cell byte
	k    uint64
}

type simProc struct {
	pid       ids.ProcessID
	m         *core.SimMachine // nil while down
	inc       int
	disk      *storage.Mem // what survives a crash
	persist   [2]int64     // write latency range
	lastWrite int64        // when the last issued write resolves
	wallAt    int64        // the one timer the machine armed
	failIn    int          // > 0: the failIn-th next write fails, and kills the incarnation
	tripped   bool
	replaying bool
	waitK     uint64
	known     map[uint64][]byte // decisions the box handed this incarnation
	floor     uint64            // the engine's GC floor in this incarnation
	discarded uint64            // the highest floor this process discarded below, ever
	nextRound uint64            // the round its next OnRound must carry
	lastKey   string            // the key of the last write issued (rewrite-before-delete rule)
	// Scripted box behaviour: decisions never become durable cells here
	// (noDecisionCells); proposals are never logged, as at a process that
	// granted another the lease (deferProposals).
	noDecisionCells bool
	deferProposals  bool
	lives           [][]core.Delivery // the OnDeliver stream of each incarnation
}

type simOptions struct {
	n       int
	cfg     core.Config
	loss    float64 // per-frame drop probability between processes
	dup     float64 // per-frame duplication probability
	delay   [2]int64
	persist [2]int64
	choose  [2]int64 // first durable proposal -> value chosen
	learn   [2]int64 // value chosen (or asked for) -> a process learns it
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
	healed  bool
	rec     *check.Recorder
	bcasts  int
	back    map[ids.MsgID]bool // Broadcast calls that returned
	hash    hash.Hash64
	scratch []byte
	steps   int
	verbose bool
	lines   []string
	failure string

	cands    map[uint64][][]byte // durably proposed values per instance
	chosen   map[uint64][]byte
	choosing map[uint64]bool
	wants    map[uint64][][2]int // (pid, incarnation) whose drivers wait for the instance
}

func newSim(seed uint64, opts simOptions) *sim {
	if opts.choose == [2]int64{} {
		opts.choose = [2]int64{ms / 2, 3 * ms}
	}
	if opts.learn == [2]int64{} {
		opts.learn = [2]int64{ms / 10, 2 * ms}
	}
	s := &sim{
		opts:     opts,
		seed:     seed,
		rng:      rand.New(rand.NewPCG(seed, seed^0x5eed)),
		rec:      check.NewRecorder(opts.n),
		back:     make(map[ids.MsgID]bool),
		hash:     fnv.New64a(),
		cands:    make(map[uint64][][]byte),
		chosen:   make(map[uint64][]byte),
		choosing: make(map[uint64]bool),
		wants:    make(map[uint64][][2]int),
	}
	for p := range opts.n {
		s.procs = append(s.procs, &simProc{pid: ids.ProcessID(p), disk: storage.NewMem(), persist: opts.persist})
		s.cut = append(s.cut, make([]bool, opts.n))
	}
	return s
}

// boot recovers every process at virtual time 0.
func (s *sim) boot() {
	for p := range s.procs {
		s.recover(ids.ProcessID(p))
	}
}

func (s *sim) push(ev *simEvent) {
	s.seq++
	ev.seq = s.seq
	heap.Push(&s.queue, ev)
}

func (s *sim) at(at int64, do func()) { s.push(&simEvent{at: at, kind: evAction, do: do}) }

func (s *sim) between(r [2]int64) int64 { return r[0] + s.rng.Int64N(r[1]-r[0]+1) }

func (s *sim) fail(format string, args ...any) {
	if s.failure == "" {
		s.failure = fmt.Sprintf("%.3fms: ", float64(s.now)/float64(ms)) + fmt.Sprintf(format, args...)
	}
}

// note hashes one step into the trace and, verbose, keeps its line.
func (s *sim) note(p *simProc, what string, k uint64, b []byte) {
	s.steps++
	buf := binary.LittleEndian.AppendUint64(s.scratch[:0], uint64(s.now))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.pid)<<32|uint64(p.inc))
	buf = binary.LittleEndian.AppendUint64(buf, k)
	buf = append(buf, what...)
	buf = append(buf, b...)
	s.scratch = buf
	s.hash.Write(buf)
	if s.verbose {
		s.lines = append(s.lines, fmt.Sprintf("%9.3fms p%d#%d %s k=%d %s", float64(s.now)/float64(ms), p.pid, p.inc, what, k, describe(b)))
	}
}

// describe renders a frame or value for the step log.
func describe(b []byte) string {
	if len(b) > 48 {
		return fmt.Sprintf("%x… (%d B)", b[:48], len(b))
	}
	return fmt.Sprintf("%x", b)
}

// step runs the next event; false when none is left.
func (s *sim) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*simEvent)
	s.now = ev.at
	p := s.procs[max(ev.pid, 0)]
	live := p.m != nil && ev.inc == p.inc
	switch ev.kind {
	case evAction:
		ev.do()
	case evChoose:
		s.choose(ev.k)
	case evFrame:
		if p.m == nil {
			return true // "messages that arrive at a process while it is down are lost"
		}
		s.note(p, "recv from p"+strconv.Itoa(int(ev.from)), 0, ev.frame)
		p.m.Receive(s.now, ev.from, ev.frame)
		s.drain(p)
	case evWrite:
		if live {
			s.resolve(p, ev.w)
		}
	case evTimer:
		if live && ev.at == p.wallAt {
			p.wallAt = never
			p.m.Fire(s.now)
			s.drain(p)
		}
	case evSettle:
		if live {
			s.settle(p, ev.k, ev.v, ev.decided)
		}
	}
	return true
}

// drain carries out the effects of p's last inputs, and of the inputs they
// cause in turn.
func (s *sim) drain(p *simProc) {
	for p.m != nil {
		effs := p.m.Effects()
		if len(effs) == 0 {
			return
		}
		for _, ef := range effs {
			if p.m == nil {
				return
			}
			s.effect(p, ef)
		}
	}
}

func (s *sim) effect(p *simProc, ef core.SimEffect) {
	switch ef.Op {
	case core.OpSend:
		to := "all"
		if ef.To != ids.Nobody {
			to = ef.To.String()
		}
		s.note(p, "send to "+to, 0, ef.Bytes)
		for to := range s.procs {
			if ef.To == ids.Nobody || ef.To == ids.ProcessID(to) {
				s.transmit(p.pid, ids.ProcessID(to), ef.Bytes)
			}
		}
	case core.OpPut, core.OpAppend, core.OpDelete:
		s.note(p, "write "+ef.Key, 0, ef.Bytes)
		if ef.Op == core.OpDelete && ef.Key == core.KeyUnordLog && p.lastKey != core.KeyUnord {
			s.fail("p%d deletes the Unordered log right after writing %q, not the set's rewrite", p.pid, p.lastKey)
		}
		p.lastKey = ef.Key
		s.write(p, &simWrite{op: ef.Op, key: ef.Key, val: ef.Bytes, ef: ef})
	case core.OpPropose:
		s.note(p, "propose", ef.K, ef.Bytes)
		s.propose(p, ef.K, ef.Bytes)
	case core.OpLearn:
		if v, ok := s.decidedLocal(p, ef.K); ok {
			p.m.Decided(s.now, ef.K, v)
		}
	case core.OpDiscard:
		s.note(p, "discard below", ef.K, nil)
		s.checkDiscard(p, ef.K)
		p.floor = max(p.floor, ef.K)
		p.discarded = max(p.discarded, ef.K)
		for k := range ef.K {
			_ = p.disk.Delete(consKey('p', k))
			_ = p.disk.Delete(consKey('d', k))
		}
	case core.OpArm:
		if ef.At < p.wallAt {
			p.wallAt = ef.At
			s.push(&simEvent{at: ef.At, kind: evTimer, pid: p.pid, inc: p.inc})
		}
	case core.OpRelease:
		s.note(p, "release "+ef.ID.String(), 0, nil)
		if ef.Err == nil {
			s.checkRelease(p, ef.ID)
			s.rec.MarkReturned(ef.ID)
			s.back[ef.ID] = true
		}
	case core.OpRestore:
		s.rec.OnRestore(p.pid)(ef.Snap)
		p.nextRound = 0
	case core.OpDeliver, core.OpRound:
		if ef.Op == core.OpRound {
			s.note(p, "round", ef.K, nil)
			if ef.K != p.nextRound {
				s.fail("p%d committed round %d, its next round is %d", p.pid, ef.K, p.nextRound)
			}
			p.nextRound = ef.K + 1
		}
		for _, d := range ef.Ds {
			s.rec.OnDeliver(p.pid)(d)
		}
		p.lives[len(p.lives)-1] = append(p.lives[len(p.lives)-1], ef.Ds...)
	case core.OpSkip:
		s.note(p, "skip to", ef.K, nil)
		if ef.K < p.nextRound {
			s.fail("p%d skipped back to round %d from %d", p.pid, ef.K, p.nextRound)
		}
		p.nextRound = ef.K
	case core.OpCheckpointDue:
		p.m.Checkpoint(s.now, false)
	}
}

// checkRelease: a returning Broadcast's message is in the Agreed queue
// (basic protocol), or its Unordered record is durable (BatchedBroadcast).
func (s *sim) checkRelease(p *simProc, id ids.MsgID) {
	if !s.opts.cfg.BatchedBroadcast {
		if !p.m.Delivered(id) {
			s.fail("p%d released the Broadcast of %v before delivering it", p.pid, id)
		}
		return
	}
	if cell, ok, _ := p.disk.Get(core.KeyUnord); ok {
		r := wire.NewReader(cell)
		if set := msg.DecodeSet(r); r.Done() == nil && set.Contains(id) {
			return
		}
	}
	recs, _ := p.disk.Records(core.KeyUnordLog)
	for _, rec := range recs {
		r := wire.NewReader(rec)
		if m := msg.DecodeMessage(r); r.Done() == nil && m.ID == id {
			return
		}
	}
	s.fail("p%d returned from the Broadcast of %v before its Unordered record was durable", p.pid, id)
}

// checkDiscard: the checkpoint cell and the GC-floor cell that cover a
// discard are durable before it.
func (s *sim) checkDiscard(p *simProc, k uint64) {
	f, okF, _ := p.disk.Get(core.KeyGCFloor)
	c, okC, _ := p.disk.Get(core.KeyCkpt)
	if !okF || !okC || wire.NewReader(f).U64() < k || wire.NewReader(c).U64() < k {
		s.fail("p%d discards below %d before its checkpoint and GC-floor cells cover it", p.pid, k)
	}
}

// ---- storage ----

// write queues w behind p's earlier writes: a log resolves in issue order.
// An armed fault fails it and every later write, and kills the incarnation.
func (s *sim) write(p *simProc, w *simWrite) {
	if p.failIn > 0 {
		if p.failIn--; p.failIn == 0 {
			p.tripped = true
			inc := p.inc
			s.at(s.now+s.between([2]int64{0, 2 * ms}), func() {
				if p.inc == inc {
					s.crash(p.pid)
				}
			})
		}
	}
	if p.tripped {
		w.err = storage.ErrInjectedCrash
	}
	p.lastWrite = max(s.now+s.between(p.persist), p.lastWrite)
	s.push(&simEvent{at: p.lastWrite, kind: evWrite, pid: p.pid, inc: p.inc, w: w})
}

// resolve makes w durable (or fails it) and reports it.
func (s *sim) resolve(p *simProc, w *simWrite) {
	if w.err == nil {
		switch w.op {
		case core.OpPut:
			_ = p.disk.Put(w.key, w.val)
		case core.OpAppend:
			_ = p.disk.Append(w.key, w.val)
		case core.OpDelete:
			_ = p.disk.Delete(w.key)
		}
	}
	switch {
	case w.cell == 'p':
		if w.err == nil && w.k >= p.floor {
			s.note(p, "proposal durable", w.k, w.val)
			s.candidate(w.k, w.val)
		}
	case w.cell == 0:
		p.m.Persisted(s.now, w.ef, w.err)
		s.drain(p)
	}
}

func consKey(cell byte, k uint64) string { return fmt.Sprintf("cons/%c/%016x", cell, k) }

// ---- the Consensus box ----

// propose is p's propose(k, v): the value is logged in p's disk (unless p
// defers proposal logs) and p's driver waits for the decision.
func (s *sim) propose(p *simProc, k uint64, v []byte) {
	if k < p.floor {
		return // ErrDiscarded: the adapter drops it
	}
	if _, logged, _ := p.disk.Get(consKey('p', k)); !logged && !p.deferProposals {
		key := consKey('p', k)
		s.write(p, &simWrite{op: core.OpPut, key: key, val: bytes.Clone(v), cell: 'p', k: k})
	}
	s.want(p, k)
}

// want is p's driver for instance k: it learns the decision, or that a
// majority forgot the instance.
func (s *sim) want(p *simProc, k uint64) {
	if _, ok := s.decidedLocal(p, k); ok {
		return
	}
	forgotten := 0
	for _, q := range s.procs {
		if q.discarded > k {
			forgotten++
		}
	}
	switch v, ok := s.chosen[k]; {
	case forgotten > s.opts.n/2:
		s.push(&simEvent{at: s.now + s.between(s.opts.learn), kind: evSettle, pid: p.pid, inc: p.inc, k: k})
	case ok:
		s.tell(p, k, v)
	default:
		s.wants[k] = append(s.wants[k], [2]int{int(p.pid), p.inc})
	}
}

func (s *sim) tell(p *simProc, k uint64, v []byte) {
	s.push(&simEvent{at: s.now + s.between(s.opts.learn), kind: evSettle, pid: p.pid, inc: p.inc, k: k, v: v, decided: true})
}

func (s *sim) candidate(k uint64, v []byte) {
	s.cands[k] = append(s.cands[k], v)
	if _, ok := s.chosen[k]; !ok && !s.choosing[k] {
		s.choosing[k] = true
		s.push(&simEvent{at: s.now + s.between(s.opts.choose), kind: evChoose, k: k})
	}
}

// choose picks instance k's value among the durably proposed ones and
// tells every process: the waiting drivers surely, the others over the
// lossy network.
func (s *sim) choose(k uint64) {
	v := s.cands[k][s.rng.IntN(len(s.cands[k]))]
	s.chosen[k] = v
	told := make([]bool, len(s.procs))
	for _, w := range s.wants[k] {
		if p := s.procs[w[0]]; p.m != nil && p.inc == w[1] && !told[w[0]] {
			told[w[0]] = true
			s.tell(p, k, v)
		}
	}
	delete(s.wants, k)
	for _, p := range s.procs {
		if p.m != nil && !told[p.pid] && s.rng.Float64() >= s.opts.loss {
			s.tell(p, k, v)
		}
	}
}

// settle is the box's decided or forgotten upcall at p.
func (s *sim) settle(p *simProc, k uint64, v []byte, decided bool) {
	if !decided {
		s.note(p, "forgotten", k, nil)
		p.m.Forgotten(s.now, k)
		s.drain(p)
		if p.m != nil && p.replaying && k == p.waitK {
			s.endReplay(p)
		}
		return
	}
	if _, ok := p.known[k]; !ok && k >= p.floor {
		s.note(p, "decided", k, v)
		p.known[k] = v
		if !p.noDecisionCells {
			s.write(p, &simWrite{op: core.OpPut, key: consKey('d', k), val: v, cell: 'd', k: k})
		}
	}
	p.m.Decided(s.now, k, v)
	s.drain(p)
	if p.m != nil && p.replaying && k == p.waitK {
		s.replay(p)
	}
}

// decidedLocal is DecidedLocal: a decision this incarnation learnt, or a
// durable decision cell.
func (s *sim) decidedLocal(p *simProc, k uint64) ([]byte, bool) {
	if v, ok := p.known[k]; ok {
		return v, true
	}
	v, ok, _ := p.disk.Get(consKey('d', k))
	return v, ok
}

// ---- lifecycle ----

// crash loses p's volatile state and every write it has not made durable.
func (s *sim) crash(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m == nil {
		return
	}
	s.note(p, "crash", 0, nil)
	p.m, p.known, p.lastWrite, p.replaying, p.tripped, p.failIn = nil, nil, s.now, false, false, 0
	p.inc++
}

// recover boots a new incarnation of p from its disk, as the adapter's
// Start does: retrieve, then replay the logged instances, then start.
func (s *sim) recover(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m != nil {
		return
	}
	cfg := s.opts.cfg
	cfg.PID, cfg.N, cfg.Incarnation = pid, s.opts.n, uint32(p.inc+1)
	p.m = core.NewSimMachine(cfg)
	p.known, p.floor, p.wallAt, p.nextRound = make(map[uint64][]byte), 0, never, 0
	p.lives = append(p.lives, nil)
	s.rec.StartSession(pid)
	s.note(p, "recover", 0, nil)
	get := func(key string) []byte {
		v, ok, _ := p.disk.Get(key)
		if !ok {
			return nil
		}
		return v
	}
	recs, _ := p.disk.Records(core.KeyUnordLog)
	if _, err := p.m.Recover(get(core.KeyCkpt), get(core.KeyGCFloor), get(core.KeyUnord), recs); err != nil {
		s.fail("p%d recover: %v", pid, err)
		return
	}
	s.drain(p)
	// The engine resumes the driver of every logged proposal it holds no
	// decision for.
	keys, _ := p.disk.List("cons/p/")
	for _, key := range keys {
		k, _ := strconv.ParseUint(key[len("cons/p/"):], 16, 64)
		s.want(p, k)
	}
	p.replaying = true
	s.replay(p)
}

// replay is the replay phase: commit the logged decisions, re-propose and
// await a logged proposal, end at the first round with neither.
func (s *sim) replay(p *simProc) {
	for p.m != nil && p.replaying {
		k := p.m.K()
		if v, ok := s.decidedLocal(p, k); ok {
			p.m.Decided(s.now, k, v)
			s.drain(p)
			continue
		}
		prop, logged, _ := p.disk.Get(consKey('p', k))
		if !logged {
			s.endReplay(p)
			return
		}
		p.waitK = k
		s.propose(p, k, prop)
		return
	}
}

func (s *sim) endReplay(p *simProc) {
	p.replaying = false
	s.note(p, "start", p.m.K(), nil)
	p.m.Start(s.now)
	s.drain(p)
}

// broadcast is a client's Broadcast (async: BroadcastAsync) at pid; it
// returns the message's identity, zero when the process refused the call.
func (s *sim) broadcast(pid ids.ProcessID, async bool) ids.MsgID {
	p := s.procs[pid]
	if p.m == nil || p.replaying && !async && !s.opts.cfg.BatchedBroadcast {
		return ids.MsgID{} // the process answers as down
	}
	s.bcasts++
	payload := []byte("m" + strconv.Itoa(s.bcasts))
	id, err := p.m.Broadcast(s.now, payload, async)
	if err == nil {
		s.note(p, "broadcast "+id.String(), 0, payload)
		s.rec.RecordBroadcast(id, payload)
	}
	s.drain(p)
	return id
}

func (s *sim) transmit(from, to ids.ProcessID, frame []byte) {
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

// heal ends every fault: the network is reliable, no write fails, and
// every process is up.
func (s *sim) heal() {
	s.healed = true
	s.opts.loss, s.opts.dup = 0, 0
	for _, row := range s.cut {
		clear(row)
	}
	for _, p := range s.procs {
		if p.m != nil && p.tripped {
			s.crash(p.pid)
		}
		p.failIn = 0
	}
	for _, p := range s.procs {
		s.recover(p.pid)
	}
}

// terminated reports Termination: every process is up and past its replay,
// and every message a Broadcast returned for or anyone delivered is in
// every process's delivery sequence.
func (s *sim) terminated() bool {
	var finals []check.Final
	for _, p := range s.procs {
		if p.m == nil || p.replaying {
			return false
		}
		base, suffix := p.m.Sequence()
		finals = append(finals, check.NewFinal(p.pid, base, suffix))
	}
	must := append(s.rec.DeliveredAnywhere(), s.rec.ReturnedBroadcasts()...)
	return check.VerifyTermination(must, finals) == nil
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

// ---- scripted schedules ----

// newScriptedSim is a calm simulator for a hand-written schedule: no loss,
// short delays and fast disks. The test prints its steps if it fails.
func newScriptedSim(t *testing.T, n int, cfg core.Config) *sim {
	t.Helper()
	s := newSim(1, simOptions{n: n, cfg: cfg, delay: [2]int64{ms / 10, ms}, persist: [2]int64{ms / 2, 2 * ms}})
	s.verbose = true
	t.Cleanup(func() {
		if s.failure != "" {
			t.Errorf("oracle: %s", s.failure)
		}
		if t.Failed() {
			t.Logf("simulator steps:\n%s", strings.Join(s.lines, "\n"))
		}
	})
	return s
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

// broadcastAndWait has pid broadcast and waits until the call returns.
func (s *sim) broadcastAndWait(t *testing.T, pid ids.ProcessID) ids.MsgID {
	t.Helper()
	id := s.broadcast(pid, false)
	if id == (ids.MsgID{}) {
		t.Fatalf("p%d refused the broadcast", pid)
	}
	s.await(t, "the broadcast of "+id.String()+" returns", func() bool { return s.back[id] })
	return id
}

// ---- random schedules ----

// healAt is when a random schedule's faults end.
const healAt = 300 * ms

// simVariants are the protocol configurations of the soak matrix: the
// paper's basic protocol, and the pipelined + adaptively batched +
// checkpointing + state-transfer stack.
func simVariants() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Config{}},
		{"pipelined", core.Config{
			PipelineDepth:    4,
			BatchedBroadcast: true,
			IncrementalLog:   true,
			MaxBatchBytes:    4 << 10,
			MaxBatchDelay:    300 * time.Microsecond,
			CheckpointEvery:  8,
			Delta:            12,
		}},
	}
}

// randomSchedule is seed's schedule for n processes: broadcasts from
// random processes, crashes and recoveries (up to n-1 down at once, so at
// n=5 two at a time), armed write faults that kill the incarnation, and
// one-way cuts over a lossy, duplicating, reordering network, each
// process with a disk of its own speed, then a heal at healAt.
func randomSchedule(seed uint64, n int, cfg core.Config, verbose bool) *sim {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	opts := simOptions{
		n:     n,
		cfg:   cfg,
		loss:  []float64{0, 0.05, 0.2}[r.IntN(3)],
		dup:   []float64{0, 0.05}[r.IntN(2)],
		delay: [2]int64{0, (1 + r.Int64N(3)) * ms},
	}
	s := newSim(seed, opts)
	s.verbose = verbose
	for _, p := range s.procs {
		p.persist = [2]int64{0, []int64{1, 4, 20}[r.IntN(3)] * ms} // some disks are slow
	}
	s.boot()
	pid := func() ids.ProcessID { return ids.ProcessID(r.IntN(n)) }
	for range 5 + r.IntN(25) {
		p, at, async := pid(), r.Int64N(healAt), r.IntN(4) == 0
		s.at(at, func() { s.broadcast(p, async) })
	}
	for range r.IntN(2 * (n - 1)) {
		p, at := pid(), r.Int64N(healAt)
		s.at(at, func() { s.crash(p) })
		s.at(at+r.Int64N(100*ms), func() { s.recover(p) })
	}
	for range r.IntN(3) {
		p, at, after := pid(), r.Int64N(healAt), 1+r.IntN(12)
		s.at(at, func() {
			if q := s.procs[p]; q.m != nil && q.failIn == 0 {
				q.failIn = after
			}
		})
	}
	for range r.IntN(3) {
		from, to, at := pid(), pid(), r.Int64N(healAt)
		s.at(at, func() { s.cut[from][to] = true })
		s.at(at+r.Int64N(100*ms), func() { s.cut[from][to] = false })
	}
	s.at(healAt, s.heal)
	return s
}

// runSchedule plays seed's schedule to its end: the heal, then until
// Termination holds, within 20s of virtual time; then the recorder's
// Validity, Integrity and Total Order. It returns the first violation.
func runSchedule(seed uint64, n int, cfg core.Config, verbose bool) (*sim, string) {
	s := randomSchedule(seed, n, cfg, verbose)
	if !s.runUntil(healAt, func() bool { return s.healed }) && s.failure == "" {
		s.fail("the schedule never healed")
	}
	// Termination is checked every 5ms of virtual time.
	for deadline := s.now + 20_000*ms; s.failure == "" && !s.terminated(); {
		if s.now >= deadline || len(s.queue) == 0 {
			s.fail("Termination: a message is not delivered everywhere 20s after the heal")
			break
		}
		next := s.now + 5*ms
		s.runUntil(next, func() bool { return false })
		s.now = max(s.now, next)
	}
	if err := s.rec.Verify(); err != nil {
		s.fail("%v", err)
	}
	return s, s.failure
}

// simBatches are TestSimSchedules's batches: both variants at three
// processes and at five, and at five the batched broadcast that logs the
// whole Unordered set rather than a record per message.
func simBatches() []struct {
	name string
	n    int
	cfg  core.Config
} {
	var out []struct {
		name string
		n    int
		cfg  core.Config
	}
	add := func(name string, n int, cfg core.Config) {
		out = append(out, struct {
			name string
			n    int
			cfg  core.Config
		}{fmt.Sprintf("%s-n%d", name, n), n, cfg})
	}
	for _, n := range []int{3, 5} {
		for _, v := range simVariants() {
			add(v.name, n, v.cfg)
		}
	}
	add("batched", 5, core.Config{PipelineDepth: 3, BatchedBroadcast: true, MaxBatchDelay: 300 * time.Microsecond})
	return out
}

// TestSimSchedules runs a batch of random schedules per variant and group
// size through the oracle. A failing seed is replayed with its steps
// printed; run one seed alone with -sim.seed=N (add -v to see the steps of
// a passing one).
func TestSimSchedules(t *testing.T) {
	for _, b := range simBatches() {
		t.Run(b.name, func(t *testing.T) {
			seeds := make([]uint64, *simSeeds)
			for i := range seeds {
				seeds[i] = uint64(i) + 1
			}
			if *simSeed != 0 {
				seeds = []uint64{*simSeed}
			}
			for _, seed := range seeds {
				if _, failure := runSchedule(seed, b.n, b.cfg, false); failure != "" || *simSeed != 0 {
					s, _ := runSchedule(seed, b.n, b.cfg, true)
					lines := s.lines
					if len(lines) > 400 && *simSeed == 0 {
						lines = lines[len(lines)-400:]
					}
					if failure != "" {
						t.Fatalf("seed %d: %s\nreplay: go test ./internal/core/ -run 'TestSimSchedules/%s$' -sim.seed=%d -v\nsteps (last %d):\n%s",
							seed, failure, b.name, seed, len(lines), strings.Join(lines, "\n"))
					}
					t.Logf("seed %d: trace %016x, %d steps:\n%s", seed, s.hash.Sum64(), s.steps, strings.Join(lines, "\n"))
				}
			}
		})
	}
}

// TestSimReplays: one seed run twice takes the same steps.
func TestSimReplays(t *testing.T) {
	for _, b := range simBatches() {
		for _, seed := range []uint64{3, 17} {
			a, _ := runSchedule(seed, b.n, b.cfg, false)
			c, _ := runSchedule(seed, b.n, b.cfg, false)
			if a.hash.Sum64() != c.hash.Sum64() || a.steps != c.steps {
				t.Fatalf("%s seed %d: trace %016x (%d steps), then %016x (%d steps)",
					b.name, seed, a.hash.Sum64(), a.steps, c.hash.Sum64(), c.steps)
			}
		}
	}
}

// BenchmarkSimSchedule measures one random three-process schedule of the
// pipelined variant, heal and Termination included.
func BenchmarkSimSchedule(b *testing.B) {
	cfg := simVariants()[1].cfg
	for i := 0; b.Loop(); i++ {
		if _, failure := runSchedule(uint64(i)+1, 3, cfg, false); failure != "" {
			b.Fatalf("seed %d: %s", i+1, failure)
		}
	}
}
