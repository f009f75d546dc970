package consensus

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	kern "repro/internal/sim"
	"repro/internal/storage"
)

// The consensus simulator runs n machines alone on the simulator kernel
// (internal/sim), with a scripted failure-detector view per process, so a
// schedule can hand out wrong leader hints at will. The oracle is the
// kernel's ConsensusOracle plus Termination: once the schedule heals, every
// process decides every proposed instance. internal/sim/stack runs them in the full stack.

var (
	simSeed  = flag.Uint64("sim.seed", 0, "run only this simulator seed and print its steps")
	simSeeds = flag.Int("sim.seeds", 1000, "number of seeds TestSimSchedules runs")
)

const ms = kern.Ms

// simFD is a process's scripted failure-detector view.
type simFD struct {
	leader  ids.ProcessID
	suspect []bool
}

func (f *simFD) Leader() ids.ProcessID         { return f.leader }
func (f *simFD) Suspects(p ids.ProcessID) bool { return f.suspect[p] }

type simProc struct {
	pid  ids.ProcessID
	m    *machine // nil while down
	disk *storage.Mem
	fd   *simFD
	// hold, when set, keeps the writes it selects off the disk until
	// release or failHeld.
	hold func(cell byte, k uint64) bool
	// leaseB is the lease ballot this incarnation holds, 0 if none.
	leaseB uint64
	// floor is the last discard's floor, which the broadcast layer logs
	// beside its checkpoint and hands back to a recovered engine.
	floor uint64
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
	*kernel
	opts    simOptions
	seed    uint64
	procs   []*simProc
	drop    func(from, to ids.ProcessID, m message) bool
	trace   []simStep
	scratch []byte

	proposed map[uint64]bool // instances the schedule proposed
	oracle   *kern.ConsensusOracle
}

type kernel = kern.Kernel

func newSim(seed uint64, opts simOptions) *sim {
	s := &sim{
		kernel:   kern.New(seed, opts.n),
		opts:     opts,
		seed:     seed,
		proposed: make(map[uint64]bool),
		oracle:   kern.NewConsensusOracle(),
	}
	s.Loss, s.Dup, s.Delay = opts.loss, opts.dup, opts.delay
	s.Deliver = s.receive
	for pid := range ids.ProcessID(opts.n) {
		p := &simProc{pid: pid, disk: s.Disks[pid].Mem, fd: &simFD{suspect: make([]bool, opts.n)}}
		s.Disks[pid].Persist = opts.persist
		s.Disks[pid].Hold = func(w *kern.Write) bool {
			cell, k, _ := parseKey(w.Key)
			return p.hold != nil && p.hold(cell, k)
		}
		s.procs = append(s.procs, p)
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
	opts.n, opts.policy = cmp.Or(opts.n, 3), cmp.Or(opts.policy, PolicyLeader)
	opts.delay = cmp.Or(opts.delay, [2]int64{ms / 10, ms})
	opts.persist = cmp.Or(opts.persist, [2]int64{ms / 2, 2 * ms})
	s := newSim(1, opts)
	s.Script(t)
	return s
}

// receive is a frame reaching an up process.
func (s *sim) receive(to, from ids.ProcessID, frame []byte) {
	p := s.procs[to]
	msg, err := decodeMessage(frame)
	if err != nil {
		s.Fail("p%d received an undecodable frame: %v", p.pid, err)
		return
	}
	s.record(p, simStep{op: opRecv, from: from, msg: msg, k: msg.k})
	p.m.receive(from, msg)
	s.drain(p)
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
			if err := s.oracle.Accept(ef.msg.k, ef.msg.b, ef.msg.val, ef.msg.b == p.leaseB); err != nil {
				s.Fail("%v", err)
			}
		}
		if ef.to == p.pid {
			s.Fail("p%d sent itself a frame", p.pid)
		}
		frame := ef.msg.encode()
		for to := range ids.ProcessID(len(s.procs)) {
			if to != p.pid && (ef.to == ids.Nobody || ef.to == to) {
				if s.drop == nil || !s.drop(p.pid, to, ef.msg) {
					s.Send(p.pid, to, frame)
				}
			}
		}
	case opPut:
		w := *ef
		w.val = bytes.Clone(ef.val)
		m := p.m
		s.Write(p.pid, &kern.Write{Op: kern.Put, Key: cellKey(ef.cell, ef.k), Val: w.val, Done: func(err error) {
			if err == nil && w.cell == cellProposal {
				s.oracle.Logged(w.k, w.val)
			}
			m.persisted(&w, err)
			s.drain(p)
		}})
	case opDiscard:
		s.Write(p.pid, &kern.Write{Op: kern.DeleteRange, Key: cellKey(ef.cell, 0), End: cellKey(ef.cell, ef.k)})
	case opArm:
		t := ef.t
		s.After(p.pid, s.Now+ef.after, func() {
			p.m.fire(t)
			s.drain(p)
		})
	case opLeaseAcquired:
		p.leaseB = ef.msg.b
	case opLeaseLost:
		p.leaseB = 0
	case opDecided:
		if err := s.oracle.Decided(p.pid, ef.k, ef.val); err != nil {
			s.Fail("%v", err)
		}
	}
}

func (s *sim) record(p *simProc, st simStep) {
	st.at, st.pid, st.inc = s.Now, p.pid, s.Inc(p.pid)
	s.trace = append(s.trace, st)
	b := s.scratch[:0]
	for _, v := range []uint64{uint64(st.at), uint64(st.pid), uint64(st.inc), uint64(st.op),
		uint64(st.from), uint64(st.msg.kind), st.msg.k, st.msg.b, st.msg.promised, uint64(st.cell), st.k} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, st.msg.val...)
	s.scratch = b
	s.Trace(b)
	if s.Verbose {
		s.Lines = append(s.Lines, st.String())
	}
}

var opNames = map[uint8]string{
	opSend: "send", opPut: "put", opDiscard: "discard", opArm: "arm", opDecided: "decided",
	opForgot: "forgot", opLeaseAcquired: "lease-acquired", opLeaseLost: "lease-lost", opRecv: "recv",
}

var kindNames = map[uint8]string{
	mPrepare: "prepare", mPromise: "promise", mAccept: "accept", mAccepted: "accepted", mNack: "nack",
	mDecide: "decide", mDecideReq: "decide-req", mForgotten: "forgotten", mDecideMulti: "decide-multi",
	mLeaseReq: "lease-req", mLeaseAck: "lease-ack", mLeaseNack: "lease-nack", mChosen: "chosen",
}

func (st simStep) String() string {
	head := fmt.Sprintf("%9.3fms p%d#%d %s", float64(st.at)/float64(ms), st.pid, st.inc, opNames[st.op])
	switch st.op {
	case opSend, opRecv:
		return fmt.Sprintf("%s %v %s k=%d b=%d promised=%d val=%q", head, st.from, kindNames[st.msg.kind],
			st.msg.k, st.msg.b, st.msg.promised, st.msg.val)
	case opPut:
		return fmt.Sprintf("%s %s", head, cellKey(st.cell, st.k))
	case opDiscard:
		return fmt.Sprintf("%s %s%c/ below %d", head, keyPrefix, st.cell, st.k)
	case opArm:
		return fmt.Sprintf("%s timer of k=%d", head, st.k)
	}
	return fmt.Sprintf("%s k=%d", head, st.k)
}

// ---- the schedule's moves ----

func (s *sim) propose(pid ids.ProcessID, k uint64, v []byte) {
	p := s.procs[pid]
	if p.m == nil {
		return
	}
	s.proposed[k] = true
	s.oracle.Proposed(k, v)
	if err := p.m.propose(k, v, s.Now); err != nil {
		s.Fail("p%d propose %d: %v", pid, k, err)
	}
	s.drain(p)
}

// step runs one input at pid, if it is up, and carries out its effects.
func (s *sim) step(pid ids.ProcessID, in func(m *machine)) {
	if p := s.procs[pid]; p.m != nil {
		in(p.m)
		s.drain(p)
	}
}

func (s *sim) learn(pid ids.ProcessID, k uint64) {
	s.step(pid, func(m *machine) { m.startDriver(m.get(k)) })
}
func (s *sim) revokeLease(pid ids.ProcessID) { s.step(pid, (*machine).dropLease) }
func (s *sim) discardBelow(pid ids.ProcessID, k uint64) {
	s.step(pid, func(m *machine) {
		m.discardBelow(k)
		s.procs[pid].floor = m.floor
	})
}

// crash loses p's volatile state and every write it has not made durable.
func (s *sim) crash(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m == nil {
		return
	}
	s.Logf(pid, "crash")
	s.Crash(pid)
	p.m, p.leaseB = nil, 0
}

// recover boots a new incarnation of p from its disk, hands it back its
// floor, as the broadcast layer does, and starts it, which learns every
// instance from the floor up to the last one with a logged value again.
func (s *sim) recover(pid ids.ProcessID) {
	p := s.procs[pid]
	if p.m != nil {
		return
	}
	s.Start(pid)
	cfg := Config{PID: pid, N: s.opts.n, Policy: s.opts.policy, Seed: s.seed*131 + uint64(pid)*17 + uint64(s.Inc(pid)),
		RetryMin: s.opts.retryMin, RetryMax: s.opts.retryMax, LeaseTTL: s.opts.leaseTTL}
	p.m = newMachine(cfg, p.fd)
	if err := restore(p.m, p.disk); err != nil {
		s.Fail("p%d recover: %v", pid, err)
	}
	p.m.discardBelow(p.floor)
	s.Logf(pid, "start")
	p.m.start()
	s.drain(p)
	if s.Healed {
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

// cellMatch adapts a (cell, instance) predicate to the kernel's writes.
func cellMatch(match func(cell byte, k uint64) bool) func(*kern.Write) bool {
	return func(w *kern.Write) bool {
		cell, k, _ := parseKey(w.Key)
		return match(cell, k)
	}
}

// release makes p's held writes that match durable, in issue order, and
// returns how many there were.
func (s *sim) release(pid ids.ProcessID, match func(cell byte, k uint64) bool) int {
	return s.Release(pid, cellMatch(match))
}

// inject delivers a frame to every process as if from `from`.
func (s *sim) inject(from ids.ProcessID, m message) {
	frame := m.encode()
	for to := range s.procs {
		s.Frame(s.Now+s.opts.delay[0], from, ids.ProcessID(to), frame)
	}
}

// heal ends every fault: the network is reliable again, every process is
// up, every view trusts everyone and agrees on p0, and every process
// proposes every proposed instance.
func (s *sim) heal() {
	s.Heal()
	s.drop = nil
	for _, p := range s.procs {
		clear(p.fd.suspect)
		p.fd.leader = 0
		p.hold = nil
	}
	for _, p := range s.procs {
		if p.m == nil {
			s.recover(p.pid)
		} else {
			s.proposeAll(p)
		}
	}
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

// decided returns pid's decision of k, if it has one.
func (s *sim) decided(pid ids.ProcessID, k uint64) ([]byte, bool) {
	if m := s.procs[pid].m; m != nil {
		return m.decidedLocal(k)
	}
	return nil, false
}

// awaitDecided runs until every listed process decided k, and checks that
// the decision is want.
func (s *sim) awaitDecided(t *testing.T, k uint64, want []byte, pids ...ids.ProcessID) {
	t.Helper()
	s.Await(t, fmt.Sprintf("instance %d decided at %v", k, pids), func() bool {
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
	for _, w := range s.Held(pid) {
		if cellMatch(match)(w) {
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
	for _, d := range s.Disks {
		d.Persist = [2]int64{0, []int64{1, 4, 20}[r.IntN(3)] * ms} // some disks are slow
	}
	pid := func() ids.ProcessID { return ids.ProcessID(r.IntN(opts.n)) }
	for k := range uint64(1 + r.IntN(6)) {
		for p := range opts.n {
			if r.IntN(2) == 0 || p == opts.n-1 && !s.proposed[k] {
				v := []byte(fmt.Sprintf("v%d-p%d", k, p))
				s.At(r.Int64N(healAt), func() { s.propose(ids.ProcessID(p), k, v) })
			}
		}
	}
	for range r.IntN(5) {
		p, at := pid(), r.Int64N(healAt)
		s.At(at, func() { s.crash(p); s.suspect(p, true) })
		s.At(at+r.Int64N(100*ms), func() { s.recover(p); s.suspect(p, false) })
	}
	for range r.IntN(3) {
		from, to, at := pid(), pid(), r.Int64N(healAt)
		s.At(at, func() { s.Cut[from][to] = true })
		s.At(at+r.Int64N(100*ms), func() { s.Cut[from][to] = false })
	}
	for range r.IntN(3) {
		p, leader := pid(), pid()
		s.At(r.Int64N(healAt), func() { s.procs[p].fd.leader = leader })
	}
	for range r.IntN(3) {
		p := pid()
		s.At(r.Int64N(healAt), func() { s.revokeLease(p) })
	}
	s.At(healAt, s.heal)
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
		s.At(s.Now+s.Between([2]int64{2 * ms, 30 * ms}), func() {
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
// time. Failure holds the first violation.
func runSchedule(seed uint64, verbose bool) *sim {
	s := randomSchedule(seed)
	s.Verbose = verbose
	if !s.RunUntil(healAt, func() bool { return s.Healed }) && s.Failure == "" {
		s.Fail("the schedule never healed")
	}
	if s.Failure == "" && !s.RunUntil(s.Now+10_000*ms, s.decidedAll) && s.Failure == "" {
		s.Fail("Termination: not every process decided every instance 10s after the heal")
	}
	return s
}

// TestSimSchedules runs a fixed batch of random schedules through the
// oracle. A failing seed is replayed with its steps printed; run one seed
// alone with -sim.seed=N (add -v to see its steps when it passes).
func TestSimSchedules(t *testing.T) {
	kern.CheckSeeds(t, 1, *simSeeds, *simSeed, "go test ./internal/consensus/ -run TestSimSchedules -sim.seed=%d -v",
		func(seed uint64, verbose bool) *kernel { return runSchedule(seed, verbose).kernel })
}

// TestSimReplays: one seed run twice gives the same trace.
func TestSimReplays(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		a, b := runSchedule(seed, false), runSchedule(seed, false)
		if a.Hash() != b.Hash() || a.Steps() != b.Steps() {
			t.Fatalf("seed %d: trace %016x (%d steps), then %016x (%d steps)",
				seed, a.Hash(), a.Steps(), b.Hash(), b.Steps())
		}
	}
}

// BenchmarkSimSchedule measures one random three-process schedule, heal
// and Termination included.
func BenchmarkSimSchedule(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		if s := runSchedule(uint64(i)+1, false); s.Failure != "" {
			b.Fatalf("seed %d: %s", i+1, s.Failure)
		}
	}
}
