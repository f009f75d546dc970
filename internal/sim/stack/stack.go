// Package stack is the full-stack process model of the simulator: every
// simulated process is booted by node.Assemble, the code node.Start boots
// an incarnation with, so it runs the production consensus engine and
// broadcast core on one loop (internal/loop) and the production failure
// detector on a loop of its own. Each loop's Env is the kernel's
// (internal/sim): the virtual clock, a kernel timer, and its upcalls run
// after the unlock of the step that queued them, on the kernel's one
// thread. Its store is the process's simulated disk, and its frames go on
// the simulated network.
//
// One oracle watches the run, through seams production already has: the
// simulated store's writes and completions, the frames on the simulated
// network, the core.Consensus box the core is handed (wrapped), the
// engine's LeaseStats, and core.Config's OnDeliver, OnRound, OnRoundSkip
// and OnRestore. It checks internal/check's Validity, Integrity and Total
// Order, and Termination once the schedule heals; the core's ordering
// rules (OnRound in round order, a BatchedBroadcast released only once
// the write of its record reached the disk and was reported, and while
// the disk holds the record or the message is delivered, the checkpoint
// and GC-floor cells durable before a discard and no consensus discard
// past the floor the core asked for, the Unordered rewrite issued right
// before the log delete); sim.ConsensusOracle across incarnations; and
// that no process sends itself a frame.
package stack

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wire"
)

const ms = sim.Ms

// never is the deadline of a timer that is not armed.
const never = math.MaxInt64

// The FD timers of every simulated process.
const (
	fdHeartbeat = 5 * time.Millisecond
	// FDTimeout is the silence after which a simulated detector suspects
	// a peer.
	FDTimeout = 20 * time.Millisecond
)

// Options configures a run. Zero values give three processes, the basic
// protocol, fast consensus timers and a calm network. Every disk writes in
// 0.5-2ms until a schedule gives it a latency range of its own.
type Options struct {
	N int
	// Core's PID, N and Incarnation are filled per process, and its
	// OnDeliver, OnRound, OnRoundSkip and OnRestore are the oracle's.
	Core      core.Config
	Consensus consensus.Config
	Loss      float64 // per-frame drop probability between processes
	Dup       float64 // per-frame duplication probability
	Delay     [2]int64
}

func (o *Options) fill() {
	o.N = cmp.Or(o.N, 3)
	o.Consensus.RetryMin = cmp.Or(o.Consensus.RetryMin, 3*time.Millisecond)
	o.Consensus.RetryMax = cmp.Or(o.Consensus.RetryMax, 40*time.Millisecond)
	o.Core.GossipInterval = cmp.Or(o.Core.GossipInterval, 10*time.Millisecond)
	o.Delay = cmp.Or(o.Delay, [2]int64{ms / 10, ms})
}

// Proc is one simulated process: its layers (nil while down), its disk,
// and what the oracle tracks of it.
type Proc struct {
	PID  ids.ProcessID
	Core *core.Protocol
	FD   *fd.Detector
	Disk *storage.Mem // what survives a crash
	// Lives is the OnDeliver stream of each incarnation.
	Lives [][]core.Delivery

	eng     *consensus.Engine
	box     consensus.Box
	l, fdl  *loop.Loop     // the incarnation's loop, the detector's
	pending []core.Pending // Broadcast calls not yet released
	lost    int            // leases lost by ended incarnations
	leaseB  uint64         // Lease() as the last kernel step left it

	nextRound uint64 // the round its next OnRound must carry
	lastKey   string // the key of the last core write issued
	floor     uint64 // the last floor the core discarded below
	// carried lists, per message, the writes carrying its Unordered
	// record (BatchedBroadcast).
	carried map[ids.MsgID][]*sim.Write
}

// Up reports whether p has a live incarnation.
func (p *Proc) Up() bool { return p.Core != nil }

// Lease returns the ballot of the lease this incarnation holds, 0 if none.
func (p *Proc) Lease() uint64 {
	if !p.Up() {
		return 0
	}
	return p.eng.LeaseStats().Ballot
}

// LeasesLost counts the leases every incarnation of p lost.
func (p *Proc) LeasesLost() int {
	if !p.Up() {
		return p.lost
	}
	return p.lost + int(p.eng.LeaseStats().Fallbacks)
}

// Sequencer is the consensus box's: the process p's acceptor granted its
// lease to.
func (p *Proc) Sequencer() (ids.ProcessID, bool) {
	p.l.Lock()
	defer p.l.Unlock()
	return p.box.Sequencer()
}

// Accept is one accept a process sent: its value for round K at Ballot.
type Accept struct {
	PID       ids.ProcessID
	K, Ballot uint64
}

// Sim is one full-stack run.
type Sim struct {
	*sim.Kernel
	Opts  Options
	Procs []*Proc
	Rec   *check.Recorder
	// Back holds the Broadcast calls that returned.
	Back map[ids.MsgID]bool
	// Crashes counts the incarnations that ended; Isolations the
	// processes Isolate cut off.
	Crashes, Isolations int
	// Accepts lists every accept a process sent, in order.
	Accepts []Accept
	// CoreLink, when set, sees each core frame sent, per destination; false
	// drops it (a scripted schedule's count or one-channel cut).
	CoreLink func(from, to ids.ProcessID, frame []byte) bool

	seed   uint64
	bcasts int
	oracle *sim.ConsensusOracle

	// The soak schedule's isolations (schedule.go).
	isolating bool // one is under way
	costLease bool // one cost a lease holder its lease
}

// New builds a run of opts.N processes, all down; Boot starts them.
func New(seed uint64, opts Options) *Sim {
	opts.fill()
	s := &Sim{
		Kernel: sim.New(seed, opts.N),
		Opts:   opts,
		Rec:    check.NewRecorder(opts.N),
		Back:   make(map[ids.MsgID]bool),
		seed:   seed,
		oracle: sim.NewConsensusOracle(),
	}
	s.Loss, s.Dup, s.Delay = opts.Loss, opts.Dup, opts.Delay
	s.Deliver, s.Kill, s.Stepped = s.receive, s.Crash, s.released
	for p := range opts.N {
		s.Disks[p].Persist = [2]int64{ms / 2, 2 * ms}
		s.Procs = append(s.Procs, &Proc{PID: ids.ProcessID(p), Disk: s.Disks[p].Mem, carried: make(map[ids.MsgID][]*sim.Write)})
	}
	return s
}

// Boot recovers every process.
func (s *Sim) Boot() {
	for p := range s.Procs {
		s.Recover(ids.ProcessID(p))
	}
}

// ---- the kernel as a loop's surroundings ----

// Env is the kernel as a loop's Env, for process PID's incarnation: the
// virtual clock, a timer whose wake-ups are kernel timers of the
// incarnation (a crash voids them), and no upcall goroutine: the loop runs
// its upcalls after the unlock of the step that queued them, on the
// kernel's one thread.
type Env struct {
	K   *sim.Kernel
	PID ids.ProcessID
}

func (e Env) Now() int64 { return e.K.Now }

func (e Env) Timer(wake func()) loop.Timer { return &timer{Env: e, wake: wake, at: never} }

func (Env) Go(func()) bool { return false }

type timer struct {
	Env
	wake func()
	at   int64 // the deadline it is set for
}

func (t *timer) Reset(d time.Duration) bool {
	at := t.K.Now + max(int64(d), 0)
	t.at = at
	t.K.After(t.PID, at, func() {
		if t.at == at {
			t.at = never
			t.wake()
		}
	})
	return true
}

func (t *timer) Stop() bool {
	t.at = never
	return true
}

// link is a process's network binding of one channel.
type link struct {
	s  *Sim
	p  *Proc
	ch router.Channel
}

func (n link) Send(to ids.ProcessID, payload []byte) { n.s.send(n.p, n.ch, to, payload) }
func (n link) Multisend(payload []byte)              { n.s.send(n.p, n.ch, ids.Nobody, payload) }

// send puts one layer's frame on the network: to one other process, or
// (Nobody) to every other process. No layer addresses itself.
func (s *Sim) send(p *Proc, ch router.Channel, to ids.ProcessID, body []byte) {
	if to == p.PID {
		s.Fail("p%d sent itself a frame", p.PID)
		return
	}
	switch ch {
	case router.ChanCore:
		s.Note(p.PID, "send to "+to.String(), 0, body)
	case router.ChanConsensus:
		accept, k, b, v := consensus.ReadFrame(body)
		s.Note(p.PID, "cons send to "+to.String(), k, body)
		if accept {
			s.Accepts = append(s.Accepts, Accept{p.PID, k, b})
			// The sender's own lease ballot, held as the step that sent
			// the accept began or as it ended.
			lease := b == p.leaseB || b == p.Lease()
			if err := s.oracle.Accept(k, b, v, lease); err != nil {
				s.Fail("%v", err)
			}
		}
	}
	frame := append([]byte{byte(ch)}, body...)
	for q := range ids.ProcessID(len(s.Procs)) {
		if q != p.PID && (to == ids.Nobody || to == q) && (ch != router.ChanCore || s.CoreLink == nil || s.CoreLink(p.PID, q, body)) {
			s.Send(p.PID, q, frame)
		}
	}
}

// receive is a frame reaching an up process.
func (s *Sim) receive(to, from ids.ProcessID, frame []byte) {
	p := s.Procs[to]
	if len(frame) == 0 || !p.Up() {
		return
	}
	body := frame[1:]
	switch router.Channel(frame[0]) {
	case router.ChanCore:
		s.Note(to, "recv core from p"+strconv.Itoa(int(from)), 0, body)
		p.Core.OnMessage(from, body)
	case router.ChanConsensus:
		s.Note(to, "recv cons from p"+strconv.Itoa(int(from)), 0, body)
		p.eng.OnMessage(from, body)
	case router.ChanFD:
		p.FD.OnMessage(from, body)
	}
}

// ---- the store ----

// store is a process's simulated disk as its loop's store: reads see what
// is durable, and each asynchronous write is a kernel write whose
// resolution resolves its completion. The layers write nothing
// synchronously, and the kernel's one thread cannot wait for a barrier.
type store struct {
	*storage.Mem
	s *Sim
	p *Proc
}

func (st store) Sync() error { return errors.ErrUnsupported }

func (st store) DeleteAsync(key string) *storage.Completion {
	return st.s.write(st.p, &sim.Write{Op: sim.Delete, Key: key})
}

func (st store) PutAsync(key string, val []byte) *storage.Completion {
	return st.s.write(st.p, &sim.Write{Op: sim.Put, Key: key, Val: bytes.Clone(val)})
}

func (st store) AppendAsync(key string, rec []byte) *storage.Completion {
	return st.s.write(st.p, &sim.Write{Op: sim.Append, Key: key, Val: bytes.Clone(rec)})
}

func (st store) DeleteRangeAsync(from, to string) *storage.Completion {
	return st.s.write(st.p, &sim.Write{Op: sim.DeleteRange, Key: from, End: to})
}

// write issues w on p's disk, and checks the write-order rules at its
// issue: no consensus discard past the floor the core asked for, and the
// Unordered rewrite right before the log delete.
func (s *Sim) write(p *Proc, w *sim.Write) *storage.Completion {
	s.Note(p.PID, "write "+w.Key, 0, w.Val)
	k, proposal, cons := consensus.Instance(w.Key)
	switch {
	case w.Op == sim.DeleteRange:
		if end, _, _ := consensus.Instance(w.End); end > p.floor {
			s.Fail("p%d discards its consensus cells below %d, past the floor %d the core asked for", p.PID, end, p.floor)
		}
	case !cons:
		if w.Op == sim.Delete && w.Key == core.KeyUnordLog && p.lastKey != core.KeyUnord {
			s.Fail("p%d deletes the Unordered log right after writing %q, not the set's rewrite", p.PID, p.lastKey)
		}
		p.lastKey = w.Key
		if s.Opts.Core.BatchedBroadcast {
			s.carry(p, w)
		}
	}
	if proposal {
		w.Applied = func() { s.oracle.Logged(k, w.Val) }
	}
	c := storage.NewCompletion()
	w.Done = c.Resolve
	s.Write(p.PID, w)
	return c
}

// carry records the messages whose Unordered record w carries.
func (s *Sim) carry(p *Proc, w *sim.Write) {
	r := wire.NewReader(w.Val)
	switch w.Key {
	case core.KeyUnordLog:
		if m := msg.DecodeMessage(r); r.Done() == nil {
			p.carried[m.ID] = append(p.carried[m.ID], w)
		}
	case core.KeyUnord:
		if set := msg.DecodeSet(r); r.Done() == nil {
			for m := range set.All() {
				p.carried[m.ID] = append(p.carried[m.ID], w)
			}
		}
	}
}

// ---- the consensus box the core drives ----

// box is the consensus box as the core drives it, watched by the oracle:
// what the core proposes, what consensus decides, and the discards the
// core asks for.
type box struct {
	consensus.Box
	s *Sim
	p *Proc
}

func (b box) Propose(k uint64, v []byte, now int64) error {
	b.s.Note(b.p.PID, "propose", k, v)
	b.s.oracle.Proposed(k, v)
	return b.Box.Propose(k, v, now)
}

func (b box) Settle() (uint64, []byte, bool, bool) {
	k, v, decided, ok := b.Box.Settle()
	switch {
	case !ok:
	case decided:
		b.s.Note(b.p.PID, "decided", k, v)
		if err := b.s.oracle.Decided(b.p.PID, k, v); err != nil {
			b.s.Fail("%v", err)
		}
	default:
		b.s.Note(b.p.PID, "forgotten", k, nil)
	}
	return k, v, decided, ok
}

func (b box) DiscardBelow(k uint64) {
	b.s.Note(b.p.PID, "discard below", k, nil)
	b.s.checkDiscard(b.p, k)
	b.p.floor = k
	b.Box.DiscardBelow(k)
}

// ---- the oracle's hooks ----

// hooks sets the oracle's upcalls on cfg for p's incarnation.
func (s *Sim) hooks(p *Proc, cfg *core.Config) {
	deliver, restore := s.Rec.OnDeliver(p.PID), s.Rec.OnRestore(p.PID)
	cfg.OnDeliver = func(d core.Delivery) {
		deliver(d)
		p.Lives[len(p.Lives)-1] = append(p.Lives[len(p.Lives)-1], d)
	}
	cfg.OnRound = func(_ ids.GroupID, k uint64, _ []core.Delivery) {
		s.Note(p.PID, "round", k, nil)
		if k != p.nextRound {
			s.Fail("p%d committed round %d, its next round is %d", p.PID, k, p.nextRound)
		}
		p.nextRound = k + 1
	}
	cfg.OnRoundSkip = func(_ ids.GroupID, k uint64) {
		s.Note(p.PID, "skip to", k, nil)
		if k < p.nextRound {
			s.Fail("p%d skipped back to round %d from %d", p.PID, k, p.nextRound)
		}
		p.nextRound = k
	}
	cfg.OnRestore = func(snap core.Snapshot) {
		restore(snap)
		p.nextRound = 0
	}
}

// released reads the release of the pending Broadcast calls, and the
// lease each process holds, after every step of the kernel.
func (s *Sim) released() {
	for _, p := range s.Procs {
		p.leaseB = p.Lease()
		keep := p.pending[:0]
		for _, b := range p.pending {
			done, err := b.Poll()
			if !done {
				keep = append(keep, b)
				continue
			}
			s.Note(p.PID, "release "+b.ID.String(), 0, nil)
			if err == nil {
				s.checkRelease(p, b.ID)
				s.Rec.MarkReturned(b.ID)
				s.Back[b.ID] = true
			}
		}
		clear(p.pending[len(keep):])
		p.pending = keep
	}
}

// checkRelease: a returning Broadcast's message is in the Agreed queue
// (basic protocol), or (BatchedBroadcast) a write carrying its Unordered
// record reached the disk and was reported, and the disk still holds the
// record: only a checkpoint's rewrite after its delivery may take it off.
func (s *Sim) checkRelease(p *Proc, id ids.MsgID) {
	if !s.Opts.Core.BatchedBroadcast {
		if !p.Core.Delivered(id) {
			s.Fail("p%d released the Broadcast of %v before delivering it", p.PID, id)
		}
		return
	}
	if !slices.ContainsFunc(p.carried[id], func(w *sim.Write) bool { return w.Durable && w.Reported }) {
		s.Fail("p%d returned from the Broadcast of %v before a write of its Unordered record was durable and reported", p.PID, id)
		return
	}
	if p.Core.Delivered(id) {
		return
	}
	if cell, ok, _ := p.Disk.Get(core.KeyUnord); ok {
		r := wire.NewReader(cell)
		if set := msg.DecodeSet(r); r.Done() == nil && set.Contains(id) {
			return
		}
	}
	recs, _ := p.Disk.Records(core.KeyUnordLog)
	for _, rec := range recs {
		r := wire.NewReader(rec)
		if m := msg.DecodeMessage(r); r.Done() == nil && m.ID == id {
			return
		}
	}
	s.Fail("p%d returned from the Broadcast of %v, undelivered, with its Unordered record off the disk", p.PID, id)
}

// checkDiscard: the checkpoint cell and the GC-floor cell that cover a
// discard are durable before it.
func (s *Sim) checkDiscard(p *Proc, k uint64) {
	f, okF, _ := p.Disk.Get(core.KeyGCFloor)
	c, okC, _ := p.Disk.Get(core.KeyCkpt)
	if !okF || !okC || wire.NewReader(f).U64() < k || wire.NewReader(c).U64() < k {
		s.Fail("p%d discards below %d before its checkpoint and GC-floor cells cover it", p.PID, k)
	}
}

// ---- the schedule's steps ----

// Crash loses pid's volatile state and its writes not yet durable.
func (s *Sim) Crash(pid ids.ProcessID) {
	p := s.Procs[pid]
	if !p.Up() {
		return
	}
	s.Note(pid, "crash", 0, nil)
	s.Kernel.Crash(pid)
	s.Crashes++
	p.lost, p.leaseB = p.LeasesLost(), 0
	p.l.Stop()
	p.fdl.Stop()
	p.Core, p.FD, p.eng, p.box, p.l, p.fdl = nil, nil, nil, consensus.Box{}, nil, nil
	clear(p.pending)
	p.pending = p.pending[:0]
}

// Recover boots a new incarnation of pid from its disk, as node.Start
// does: a new epoch, its detector, then node.Assemble's layers (consensus
// restored from its cells, the core's retrieve, which hands consensus its
// floor) and their start, the core's replay phase last.
func (s *Sim) Recover(pid ids.ProcessID) {
	p := s.Procs[pid]
	if p.Up() {
		return
	}
	s.Start(pid)
	inc := s.Inc(pid)
	epoch := uint32(inc + 1)
	s.Note(pid, "recover", uint64(epoch), nil)
	s.Rec.StartSession(pid)
	p.Lives = append(p.Lives, nil)
	p.nextRound, p.lastKey = 0, ""

	e := Env{K: s.Kernel, PID: pid}
	net := func(ch router.Channel) router.Net { return link{s, p, ch} }
	fdl := loop.NewIn(nil, e)
	det := fd.NewOn(fdl, pid, s.Opts.N, epoch, fd.Options{Heartbeat: fdHeartbeat, Timeout: FDTimeout}, net(router.ChanFD))
	cfg := node.Config{PID: pid, N: s.Opts.N, Core: s.Opts.Core, Consensus: s.Opts.Consensus}
	cfg.Consensus.Seed = s.seed*131 + uint64(pid)*17 + uint64(inc)
	s.hooks(p, &cfg.Core)
	l := loop.NewIn(store{p.Disk, s, p}, e)
	ly, err := node.Assemble(l, cfg, epoch, det, net, func(b consensus.Box) core.Consensus {
		p.box = b
		return box{b, s, p}
	})
	if err != nil {
		s.Fail("p%d recover: %v", pid, err)
		return
	}
	p.Core, p.FD, p.eng, p.l, p.fdl = ly.Proto, det, ly.Eng, l, fdl
	ctx := context.Background()
	det.Start(ctx)
	if err := ly.Start(ctx); err != nil {
		s.Fail("p%d recover: %v", pid, err)
	}
}

// Broadcast is a client's Broadcast (async: BroadcastAsync) at pid; it
// returns the message's identity, zero when the process refused the call.
func (s *Sim) Broadcast(pid ids.ProcessID, async bool) ids.MsgID {
	return s.BroadcastPayload(pid, []byte("m"+strconv.Itoa(s.bcasts+1)), async)
}

// BroadcastPayload is Broadcast of a payload of the caller's.
func (s *Sim) BroadcastPayload(pid ids.ProcessID, payload []byte, async bool) ids.MsgID {
	p := s.Procs[pid]
	if !p.Up() || p.Core.Replaying() && !async && !s.Opts.Core.BatchedBroadcast {
		return ids.MsgID{} // the process answers as down
	}
	s.bcasts++
	var id ids.MsgID
	var err error
	if async {
		id, err = p.Core.BroadcastAsync(payload)
	} else {
		var b core.Pending
		if b, err = p.Core.Submit(payload); err == nil {
			p.pending = append(p.pending, b)
		}
		id = b.ID
	}
	if err == nil {
		s.Note(pid, "broadcast "+id.String(), 0, payload)
		s.Rec.RecordBroadcast(id, payload)
	}
	return id
}

// Isolate cuts pid off from every other process for d.
func (s *Sim) Isolate(pid ids.ProcessID, d int64) {
	s.Note(pid, "isolated", uint64(d), nil)
	s.Kernel.Isolate(pid, true)
	s.Isolations++
	s.At(s.Now+d, func() { s.Kernel.Isolate(pid, false) })
}

// Heal ends every fault and recovers every process that is down.
func (s *Sim) Heal() {
	s.Logf(-1, "heal")
	s.Kernel.Heal()
	for _, p := range s.Procs {
		s.Recover(p.PID)
	}
}

// Terminated reports Termination: every process is up and past its
// replay, every detector trusts every process at its current epoch (the
// detector's eventual accuracy, which consensus's termination rests on),
// and every message a Broadcast returned for or anyone delivered is in
// every process's delivery sequence.
func (s *Sim) Terminated() bool { return s.termination() == nil }

func (s *Sim) termination() error {
	var finals []check.Final
	for _, p := range s.Procs {
		if !p.Up() || p.Core.Replaying() {
			return fmt.Errorf("p%d is down or replaying", p.PID)
		}
		for _, q := range s.Procs {
			if e := q.FD.SelfEpoch(); p.FD.Epoch(q.PID) != e || p.FD.Suspects(q.PID) {
				return fmt.Errorf("p%d's detector sees p%d at epoch %d (suspected %v), which runs epoch %d",
					p.PID, q.PID, p.FD.Epoch(q.PID), p.FD.Suspects(q.PID), e)
			}
		}
		base, suffix := p.Core.Sequence()
		finals = append(finals, check.NewFinal(p.PID, base, suffix))
	}
	must := append(s.Rec.DeliveredAnywhere(), s.Rec.ReturnedBroadcasts()...)
	return check.VerifyTermination(must, finals)
}

// AwaitTermination runs until Terminated holds, checked every 5ms of
// virtual time, within d; then the recorder's Validity, Integrity and
// Total Order. It reports the first violation into Failure.
func (s *Sim) AwaitTermination(d int64) {
	for deadline := s.Now + d; s.Failure == ""; {
		err := s.termination()
		if err == nil {
			break
		}
		if s.Now >= deadline {
			s.Fail("Termination, %dms after the heal: %v", d/ms, err)
			break
		}
		next := s.Now + 5*ms
		s.Settle(5 * ms)
		s.Now = max(s.Now, next)
	}
	if err := s.Rec.Verify(); err != nil {
		s.Fail("%v", err)
	}
}
