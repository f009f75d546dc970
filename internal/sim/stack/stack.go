// Package stack is the full-stack process model of the simulator: every
// simulated process runs the real core, consensus and failure-detector
// machines over one simulated disk, on the kernel's virtual clock
// (internal/sim), wired as the production adapters wire them: consensus's
// decided and forgotten effects are core inputs in the same step; core's
// propose, learn and discard effects are consensus inputs; the FD machine
// answers consensus's Suspector at virtual now, so lease timers, suspicion
// and the leader hint run on the one clock; recovery restores consensus
// from its cells and runs core's retrieve and replay phase.
//
// One oracle watches the run: internal/check's Validity, Integrity and
// Total Order, and Termination once the schedule heals; the core's
// ordering rules (OnRound in round order, a BatchedBroadcast released only
// once its record is durable, the checkpoint and GC-floor cells durable
// before a discard, the Unordered rewrite issued right before the log
// delete); and sim.ConsensusOracle across incarnations.
package stack

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wire"
)

const ms = sim.Ms

// never is the deadline of a timer that is not armed.
const never = math.MaxInt64

// Frame channel tags: every frame on the simulated network starts with the
// layer it is for.
const (
	chCore byte = iota + 1
	chCons
	chFD
)

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
	N         int
	Core      core.Config // PID, N and Incarnation are filled per process
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

// Proc is one simulated process: its machines (nil while down), its disk,
// and what the oracle tracks of it.
type Proc struct {
	PID  ids.ProcessID
	Core *core.Machine
	Cons *consensus.Machine
	FD   *fd.Machine
	Disk *storage.Mem // what survives a crash
	// Lives is the OnDeliver stream of each incarnation.
	Lives [][]core.Delivery
	// LeasesLost counts the lease-lost effects of every incarnation.
	LeasesLost int
	// LeaseB is the ballot of the lease this incarnation holds, 0 if none.
	LeaseB uint64

	replay    *core.Replay // nil while down
	wallAt    int64        // the one timer the core machine armed
	nextRound uint64       // the round its next OnRound must carry
	lastKey   string       // the key of the last core write issued
	floor     uint64       // the last floor the core discarded below
}

// Up reports whether p has a live incarnation.
func (p *Proc) Up() bool { return p.Core != nil }

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
	s.Deliver, s.Kill = s.receive, s.Crash
	for p := range opts.N {
		s.Disks[p].Persist = [2]int64{ms / 2, 2 * ms}
		s.Procs = append(s.Procs, &Proc{PID: ids.ProcessID(p), Disk: s.Disks[p].Mem})
	}
	return s
}

// Boot recovers every process.
func (s *Sim) Boot() {
	for p := range s.Procs {
		s.Recover(ids.ProcessID(p))
	}
}

// suspector answers consensus's Suspector from p's FD machine at the
// kernel's now.
type suspector struct {
	s *Sim
	p *Proc
}

func (v suspector) Suspects(q ids.ProcessID) bool { return v.p.FD.Suspects(v.s.Now, q) }
func (v suspector) Leader() ids.ProcessID         { return v.p.FD.Leader(v.s.Now) }

// receive is a frame reaching an up process.
func (s *Sim) receive(to, from ids.ProcessID, frame []byte) {
	p := s.Procs[to]
	if len(frame) == 0 {
		return
	}
	body := frame[1:]
	switch frame[0] {
	case chCore:
		s.Note(to, "recv core from p"+strconv.Itoa(int(from)), 0, body)
		p.Core.Receive(s.Now, from, body)
	case chCons:
		s.Note(to, "recv cons from p"+strconv.Itoa(int(from)), 0, body)
		p.Cons.Receive(from, body)
	case chFD:
		if epoch, ok := fd.DecodeHeartbeat(body); ok {
			p.FD.Heartbeat(s.Now, from, epoch)
		}
	}
	s.drain(p)
}

// send puts one layer's frame on the network: to one other process, or
// (Nobody) to every other process. No layer addresses itself.
func (s *Sim) send(p *Proc, ch byte, to ids.ProcessID, body []byte) {
	if to == p.PID {
		s.Fail("p%d sent itself a frame", p.PID)
		return
	}
	frame := append([]byte{ch}, body...)
	for q := range ids.ProcessID(len(s.Procs)) {
		if q != p.PID && (to == ids.Nobody || to == q) && (ch != chCore || s.CoreLink == nil || s.CoreLink(p.PID, q, body)) {
			s.Send(p.PID, q, frame)
		}
	}
}

// drain carries out the effects of p's last input, and of the inputs they
// cause in turn: a machine's effects that are another machine's inputs are
// stepped at once, and their effects carried out in the next pass.
func (s *Sim) drain(p *Proc) {
	for p.Up() {
		fe, ke, ce := p.FD.Effects(), p.Cons.Effects(), p.Core.Effects()
		if len(fe)+len(ke)+len(ce) == 0 {
			return
		}
		for _, ef := range fe {
			s.fdEffect(p, ef)
		}
		for i := range ke {
			s.consEffect(p, &ke[i])
		}
		for _, ef := range ce {
			s.coreEffect(p, ef)
		}
	}
}

func (s *Sim) fdEffect(p *Proc, ef fd.Effect) {
	switch ef.Op {
	case fd.OpBeat:
		w := wire.NewWriter(8)
		fd.EncodeHeartbeat(w, ef.Epoch)
		s.send(p, chFD, ids.Nobody, w.Bytes())
	case fd.OpTick:
		s.After(p.PID, ef.At, func() {
			p.FD.Tick(s.Now)
			s.drain(p)
		})
	case fd.OpSuspect:
		s.Note(p.PID, "suspect", uint64(ef.Peer), nil)
	case fd.OpTrust:
		s.Note(p.PID, "trust", uint64(ef.Peer), nil)
	}
}

func (s *Sim) consEffect(p *Proc, ef *consensus.Effect) {
	switch ef.Op {
	case consensus.OpSend:
		s.Note(p.PID, "cons send to "+ef.To.String(), ef.K, ef.Frame)
		if ef.Accept {
			s.Accepts = append(s.Accepts, Accept{p.PID, ef.K, ef.Ballot})
			if err := s.oracle.Accept(ef.K, ef.Ballot, ef.Val, ef.Ballot == p.LeaseB); err != nil {
				s.Fail("%v", err)
			}
		}
		s.send(p, chCons, ef.To, ef.Frame)
	case consensus.OpPut:
		s.Note(p.PID, "cons write "+ef.Key, ef.K, ef.Val)
		eff := *ef
		s.Write(p.PID, &sim.Write{Op: sim.Put, Key: ef.Key, Val: ef.Val, Done: func(err error) {
			if err == nil && eff.Proposal {
				s.oracle.Logged(eff.K, eff.Val)
			}
			p.Cons.Persisted(&eff, err)
			s.drain(p)
		}})
	case consensus.OpDiscard:
		s.Note(p.PID, "cons discard "+ef.Key+" to "+ef.End, ef.K, nil)
		if ef.K > p.floor {
			s.Fail("p%d discards its consensus cells below %d, past the floor %d the core asked for", p.PID, ef.K, p.floor)
		}
		s.Write(p.PID, &sim.Write{Op: sim.DeleteRange, Key: ef.Key, End: ef.End})
	case consensus.OpArm:
		eff := *ef
		s.After(p.PID, s.Now+ef.After, func() {
			p.Cons.Fire(&eff)
			s.drain(p)
		})
	case consensus.OpDecided:
		s.Note(p.PID, "decided", ef.K, ef.Val)
		if err := s.oracle.Decided(p.PID, ef.K, ef.Val); err != nil {
			s.Fail("%v", err)
		}
		p.Core.Decided(s.Now, ef.K, ef.Val)
		p.replay.Settled(s.Now, ef.K, true)
	case consensus.OpForgot:
		s.Note(p.PID, "forgotten", ef.K, nil)
		p.Core.Forgotten(s.Now, ef.K)
		p.replay.Settled(s.Now, ef.K, false)
	case consensus.OpLeaseAcquired:
		s.Note(p.PID, "lease acquired", ef.Ballot, nil)
		p.LeaseB = ef.Ballot
	case consensus.OpLeaseLost:
		s.Note(p.PID, "lease lost", ef.Ballot, nil)
		p.LeaseB = 0
		p.LeasesLost++
	}
}

func (s *Sim) coreEffect(p *Proc, ef core.Effect) {
	switch ef.Op {
	case core.OpSend:
		s.Note(p.PID, "send to "+ef.To.String(), 0, ef.Bytes)
		s.send(p, chCore, ef.To, ef.Bytes)
	case core.OpPut, core.OpAppend, core.OpDelete:
		s.Note(p.PID, "write "+ef.Key, 0, ef.Bytes)
		if ef.Op == core.OpDelete && ef.Key == core.KeyUnordLog && p.lastKey != core.KeyUnord {
			s.Fail("p%d deletes the Unordered log right after writing %q, not the set's rewrite", p.PID, p.lastKey)
		}
		p.lastKey = ef.Key
		op := sim.Put
		switch ef.Op {
		case core.OpAppend:
			op = sim.Append
		case core.OpDelete:
			op = sim.Delete
		}
		s.Write(p.PID, &sim.Write{Op: op, Key: ef.Key, Val: ef.Bytes, Done: func(err error) {
			p.Core.Persisted(s.Now, ef, err)
			s.drain(p)
		}})
	case core.OpPropose:
		s.Note(p.PID, "propose", ef.K, ef.Bytes)
		s.oracle.Proposed(ef.K, ef.Bytes)
		// It fails only below the consensus floor: the adapter drops it.
		_ = p.Cons.Propose(ef.K, ef.Bytes, s.Now)
	case core.OpLearn:
		if v, ok := p.Cons.DecidedLocal(ef.K); ok {
			p.Core.Decided(s.Now, ef.K, v)
		}
	case core.OpDiscard:
		s.Note(p.PID, "discard below", ef.K, nil)
		s.checkDiscard(p, ef.K)
		p.floor = ef.K
		p.Cons.DiscardBelow(ef.K)
		p.replay.Discarded(s.Now)
	case core.OpArm:
		if ef.At < p.wallAt {
			p.wallAt = ef.At
			at := ef.At
			s.After(p.PID, at, func() {
				if p.wallAt == at {
					p.wallAt = never
					p.Core.Fire(s.Now)
					s.drain(p)
				}
			})
		}
	case core.OpRelease:
		s.Note(p.PID, "release "+ef.ID.String(), 0, nil)
		if ef.Err == nil {
			s.checkRelease(p, ef.ID)
			s.Rec.MarkReturned(ef.ID)
			s.Back[ef.ID] = true
		}
	case core.OpRestore:
		s.Rec.OnRestore(p.PID)(ef.Snap)
		p.nextRound = 0
	case core.OpDeliver, core.OpRound:
		if ef.Op == core.OpRound {
			s.Note(p.PID, "round", ef.K, nil)
			if ef.K != p.nextRound {
				s.Fail("p%d committed round %d, its next round is %d", p.PID, ef.K, p.nextRound)
			}
			p.nextRound = ef.K + 1
		}
		for _, d := range ef.Ds {
			s.Rec.OnDeliver(p.PID)(d)
		}
		p.Lives[len(p.Lives)-1] = append(p.Lives[len(p.Lives)-1], ef.Ds...)
	case core.OpSkip:
		s.Note(p.PID, "skip to", ef.K, nil)
		if ef.K < p.nextRound {
			s.Fail("p%d skipped back to round %d from %d", p.PID, ef.K, p.nextRound)
		}
		p.nextRound = ef.K
	case core.OpCheckpointDue:
		p.Core.Checkpoint(s.Now, false)
	}
}

// checkRelease: a returning Broadcast's message is in the Agreed queue
// (basic protocol), or its Unordered record is durable (BatchedBroadcast).
func (s *Sim) checkRelease(p *Proc, id ids.MsgID) {
	if !s.Opts.Core.BatchedBroadcast {
		if !p.Core.Delivered(id) {
			s.Fail("p%d released the Broadcast of %v before delivering it", p.PID, id)
		}
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
	s.Fail("p%d returned from the Broadcast of %v before its Unordered record was durable", p.PID, id)
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

// Crash loses pid's volatile state and its writes not yet durable.
func (s *Sim) Crash(pid ids.ProcessID) {
	p := s.Procs[pid]
	if !p.Up() {
		return
	}
	s.Note(pid, "crash", 0, nil)
	s.Kernel.Crash(pid)
	s.Crashes++
	p.Core, p.Cons, p.FD, p.replay, p.LeaseB = nil, nil, nil, nil, 0
}

// Recover boots a new incarnation of pid from its disk, as node.Start
// does: a new epoch, the detector, consensus restored from its cells,
// core's retrieve (which hands consensus its floor), consensus started,
// then core's replay phase.
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
	p.wallAt, p.nextRound, p.lastKey = never, 0, ""

	p.FD = fd.NewMachine(pid, s.Opts.N, epoch, fd.Options{Heartbeat: fdHeartbeat, Timeout: FDTimeout})
	ccfg := s.Opts.Consensus
	ccfg.PID, ccfg.N, ccfg.Seed = pid, s.Opts.N, s.seed*131+uint64(pid)*17+uint64(inc)
	cons, err := consensus.NewMachine(ccfg, suspector{s, p}, p.Disk)
	if err != nil {
		s.Fail("p%d recover: %v", pid, err)
		return
	}
	cfg := s.Opts.Core
	cfg.PID, cfg.N, cfg.Incarnation = pid, s.Opts.N, epoch
	p.Core, p.Cons = core.NewMachine(cfg, cons), cons
	p.replay = core.NewReplay(p.Core, cons)

	p.FD.Start(s.Now)
	if err := p.Core.Recover(p.Disk); err != nil {
		s.Fail("p%d recover: %v", pid, err)
		return
	}
	s.drain(p) // consensus gets its floor back before it starts
	p.Cons.Start()
	p.replay.Begin(s.Now)
	s.drain(p)
}

// Broadcast is a client's Broadcast (async: BroadcastAsync) at pid; it
// returns the message's identity, zero when the process refused the call.
func (s *Sim) Broadcast(pid ids.ProcessID, async bool) ids.MsgID {
	return s.BroadcastPayload(pid, []byte("m"+strconv.Itoa(s.bcasts+1)), async)
}

// BroadcastPayload is Broadcast of a payload of the caller's.
func (s *Sim) BroadcastPayload(pid ids.ProcessID, payload []byte, async bool) ids.MsgID {
	p := s.Procs[pid]
	if !p.Up() || p.replay.On() && !async && !s.Opts.Core.BatchedBroadcast {
		return ids.MsgID{} // the process answers as down
	}
	s.bcasts++
	id, err := p.Core.Broadcast(s.Now, payload, async)
	if err == nil {
		s.Note(pid, "broadcast "+id.String(), 0, payload)
		s.Rec.RecordBroadcast(id, payload)
	}
	s.drain(p)
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
		if !p.Up() || p.replay.On() {
			return fmt.Errorf("p%d is down or replaying", p.PID)
		}
		for _, q := range s.Procs {
			if e := q.FD.SelfEpoch(); p.FD.Epoch(q.PID) != e || p.FD.Suspects(s.Now, q.PID) {
				return fmt.Errorf("p%d's detector sees p%d at epoch %d (suspected %v), which runs epoch %d",
					p.PID, q.PID, p.FD.Epoch(q.PID), p.FD.Suspects(s.Now, q.PID), e)
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
