// Package fd implements an unreliable failure detector for the
// crash-recovery model, in the style of Aguilera, Chen and Toueg (the
// paper's reference [1]): its output is unbounded — alongside suspicions it
// exports, for every process, the incarnation (epoch) counter the process
// logged at its last recovery. Consensus uses it both for suspicion-driven
// coordinator hand-off and for an Ω-style eventual-leader hint.
//
// Per the paper's claim C2, the atomic broadcast layer never touches this
// package; only the consensus engine does (§3.5).
//
// The detector is a step machine (Machine) and its adapter (Detector). The
// machine's inputs are a heartbeat (from, epoch) and a tick, each at a
// time now, and suspicion is a function of now; its effects are the
// heartbeat multisend, the next tick and the suspect/trust and epoch
// transitions. Detector runs it on a loop of its own (internal/loop), its
// tick a loop timer, with the transitions in the flight recorder: New on
// the wall clock, NewOn on a given loop, which the full-stack simulator
// (internal/sim/stack) runs in its kernel's virtual time.
//
// The detector's scope is one *process incarnation*, not one ordering
// group: §3.5's liveness oracle answers "is process q alive at epoch e",
// which is the same question for every group a sharded process hosts
// (groups of one process crash and recover together). A sharded deployment
// therefore runs ONE Detector per process and hands it to every group's
// consensus engine — G heartbeat streams per peer collapse to one, with
// identical suspicion output.
package fd

import (
	"context"
	"time"

	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/wire"
)

// Options configures a Detector.
type Options struct {
	// Heartbeat is the interval between heartbeats (default 15ms).
	Heartbeat time.Duration
	// Timeout is the silence after which a process is suspected
	// (default 4x Heartbeat).
	Timeout time.Duration
	// Obs is the process's observability plane: suspicion/trust
	// transitions and peer epoch changes land in its flight recorder, and
	// the current suspicion count becomes a scrape metric. May be nil.
	Obs *obs.Plane
}

func (o *Options) fill() {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 4 * o.Heartbeat
	}
}

// Effect kinds: what a step asks its runner to do, in order.
const (
	OpBeat    uint8 = iota + 1 // multisend a heartbeat carrying Epoch
	OpTick                     // call Tick at At
	OpSuspect                  // Peer (last seen at Epoch) is now suspected
	OpTrust                    // Peer is trusted again
	OpEpoch                    // Peer recovered: its epoch went from Prev to Epoch
)

// Effect is one output of a step.
type Effect struct {
	Op    uint8
	Peer  ids.ProcessID
	Epoch uint32
	Prev  uint32
	At    int64
}

// Machine is the detector of one process incarnation (pid of n, at epoch)
// as a step machine. Times are ns on the runner's clock.
type Machine struct {
	pid      ids.ProcessID
	n        int
	epoch    uint32
	interval int64
	timeout  int64

	startAt  int64   // Start's now: a peer not heard since is silent from then
	lastSeen []int64 // when p's last heartbeat arrived, 0 if none did
	epochs   []uint32
	// suspected is the suspicion last published per peer, so a tick emits
	// transitions only (suspicion itself is derived from lastSeen on every
	// read).
	suspected []bool
	out       []Effect
}

// NewMachine returns the machine of process pid (of n) running incarnation
// epoch.
func NewMachine(pid ids.ProcessID, n int, epoch uint32, opts Options) *Machine {
	opts.fill()
	m := &Machine{
		pid:       pid,
		n:         n,
		epoch:     epoch,
		interval:  int64(opts.Heartbeat),
		timeout:   int64(opts.Timeout),
		lastSeen:  make([]int64, n),
		epochs:    make([]uint32, n),
		suspected: make([]bool, n),
	}
	m.epochs[pid] = epoch
	return m
}

// Effects returns the effects of the steps since the last call, in order.
// The slice is reused by the next step.
func (m *Machine) Effects() []Effect {
	out := m.out
	m.out = m.out[:0]
	return out
}

// Start is the incarnation's first heartbeat; the grace a peer gets
// before its first heartbeat runs from now.
func (m *Machine) Start(now int64) {
	m.startAt = now
	m.out = append(m.out, Effect{Op: OpBeat, Epoch: m.epoch}, Effect{Op: OpTick, At: now + m.interval})
}

// Tick is the heartbeat timer: a heartbeat goes out, and suspicion flips
// since the last tick are published, so a suspicion is timestamped within
// one interval.
func (m *Machine) Tick(now int64) {
	m.out = append(m.out, Effect{Op: OpBeat, Epoch: m.epoch})
	for p := range ids.ProcessID(m.n) {
		if p == m.pid {
			continue
		}
		if s := m.Suspects(now, p); s != m.suspected[p] {
			m.suspected[p] = s
			op := OpTrust
			if s {
				op = OpSuspect
			}
			m.out = append(m.out, Effect{Op: op, Peer: p, Epoch: m.epochs[p]})
		}
	}
	m.out = append(m.out, Effect{Op: OpTick, At: now + m.interval})
}

// Heartbeat is a heartbeat of process from, at epoch, arriving at now.
func (m *Machine) Heartbeat(now int64, from ids.ProcessID, epoch uint32) {
	if from < 0 || int(from) >= m.n {
		return
	}
	m.lastSeen[from] = now
	if prev := m.epochs[from]; epoch > prev {
		m.epochs[from] = epoch
		if prev != 0 || epoch > 1 {
			// A jump past the first observation: the peer recovered into a
			// new incarnation while we watched.
			m.out = append(m.out, Effect{Op: OpEpoch, Peer: from, Epoch: epoch, Prev: prev})
		}
	}
}

// Suspects reports whether p is suspected at now: silent for longer than
// the timeout since its last heartbeat, or, if none arrived in this
// incarnation, since the incarnation's start (so a peer that is down when
// a process recovers is suspected after one timeout). A process never
// suspects itself.
func (m *Machine) Suspects(now int64, p ids.ProcessID) bool {
	return p != m.pid && now-max(m.lastSeen[p], m.startAt) > m.timeout
}

// Trusted returns the processes not suspected at now, in pid order.
func (m *Machine) Trusted(now int64) []ids.ProcessID {
	out := make([]ids.ProcessID, 0, m.n)
	for p := range ids.ProcessID(m.n) {
		if !m.Suspects(now, p) {
			out = append(out, p)
		}
	}
	return out
}

// Leader returns the Ω-style eventual leader hint at now: the lowest-id
// trusted process. With accurate-enough timeouts all good processes
// eventually agree on it.
func (m *Machine) Leader(now int64) ids.ProcessID {
	for p := range ids.ProcessID(m.n) {
		if !m.Suspects(now, p) {
			return p
		}
	}
	return m.pid
}

// Epoch returns the highest incarnation number observed for p.
func (m *Machine) Epoch(p ids.ProcessID) uint32 { return m.epochs[p] }

// SelfEpoch returns this incarnation's epoch.
func (m *Machine) SelfEpoch() uint32 { return m.epoch }

// EncodeHeartbeat writes the heartbeat frame of an incarnation at epoch.
func EncodeHeartbeat(w *wire.Writer, epoch uint32) { w.U64(uint64(epoch)) }

// DecodeHeartbeat reads a heartbeat frame; ok is false for a malformed one.
func DecodeHeartbeat(payload []byte) (epoch uint32, ok bool) {
	r := wire.NewReader(payload)
	epoch = uint32(r.U64())
	return epoch, r.Err() == nil
}

// Detector is the machine's adapter for one process incarnation: the
// machine run on a loop of its own (internal/loop) over the FD channel and
// the wall clock, its tick a loop timer. Its lock is a leaf: consensus
// reads the detector under the lock of its own loop, and the detector
// never calls up.
type Detector struct {
	l   *loop.Loop
	net router.Net
	fl  *obs.Recorder
	m   *Machine
}

// New creates a detector for process pid (of n) running incarnation epoch,
// on a wall-clock loop of its own. net must be bound to the FD channel.
func New(pid ids.ProcessID, n int, epoch uint32, opts Options, net router.Net) *Detector {
	return NewOn(loop.New(nil), pid, n, epoch, opts, net)
}

// NewOn creates the detector New does on l, a loop it binds and nothing
// else runs on: its lock stays a leaf.
func NewOn(l *loop.Loop, pid ids.ProcessID, n int, epoch uint32, opts Options, net router.Net) *Detector {
	opts.fill()
	d := &Detector{
		l:   l,
		net: net,
		fl:  opts.Obs.Flight(),
		m:   NewMachine(pid, n, epoch, opts),
	}
	d.l.Bind(d.flush, nil)
	opts.Obs.Reg().Func("abcast.fd.suspected", func() int64 {
		return int64(n - len(d.Trusted()))
	})
	return d
}

// Start sends the first heartbeat and arms the tick; the detector stops
// when ctx is cancelled, or at Stop. A Start after Stop does nothing.
func (d *Detector) Start(ctx context.Context) {
	d.l.Start(ctx)
	if d.l.Enter() {
		d.m.Start(d.l.Now())
		d.l.Exit()
	}
}

// Stop ends the detector: it refuses inputs and arms no tick any more; a
// heartbeat a step queued before it may still be leaving.
func (d *Detector) Stop() { d.l.Stop() }

// flush is the loop's drain: the transitions go into the flight recorder,
// the heartbeat onto the network after the lock, the next tick on the
// loop's timer queue.
func (d *Detector) flush() {
	for _, ef := range d.m.Effects() {
		switch ef.Op {
		case OpBeat:
			w := wire.GetWriter(8)
			EncodeHeartbeat(w, ef.Epoch)
			d.l.Send(d.net, ids.Nobody, w)
		case OpTick:
			d.l.Arm(d, ef.At, loop.Token{})
		case OpSuspect:
			d.fl.Event(obs.EvSuspect, 0, uint64(ef.Epoch), int64(ef.Peer), 0, "")
		case OpTrust:
			d.fl.Event(obs.EvTrust, 0, uint64(ef.Epoch), int64(ef.Peer), 0, "")
		case OpEpoch:
			d.fl.Event(obs.EvEpochChange, 0, uint64(ef.Epoch), int64(ef.Peer), int64(ef.Prev), "peer incarnation advanced")
		}
	}
}

// Persisted implements loop.Layer; the detector writes nothing.
func (d *Detector) Persisted(int64, error) {}

// Fire implements loop.Layer: the heartbeat tick.
func (d *Detector) Fire(now int64, _ loop.Token) { d.m.Tick(now) }

// Live implements loop.Layer: one tick is armed at a time.
func (d *Detector) Live(loop.Token) bool { return true }

// OnMessage is the router handler for FD heartbeats.
func (d *Detector) OnMessage(from ids.ProcessID, payload []byte) {
	if epoch, ok := DecodeHeartbeat(payload); ok && d.l.Enter() {
		d.m.Heartbeat(d.l.Now(), from, epoch)
		d.l.Exit()
	}
}

// Suspects reports whether p is currently suspected.
func (d *Detector) Suspects(p ids.ProcessID) bool {
	d.l.Lock()
	defer d.l.Unlock()
	return d.m.Suspects(d.l.Now(), p)
}

// Trusted returns the processes currently not suspected, in pid order.
func (d *Detector) Trusted() []ids.ProcessID {
	d.l.Lock()
	defer d.l.Unlock()
	return d.m.Trusted(d.l.Now())
}

// Leader returns the Ω-style eventual-leader hint.
func (d *Detector) Leader() ids.ProcessID {
	d.l.Lock()
	defer d.l.Unlock()
	return d.m.Leader(d.l.Now())
}

// Epoch returns the highest incarnation observed for p.
func (d *Detector) Epoch(p ids.ProcessID) uint32 {
	d.l.Lock()
	defer d.l.Unlock()
	return d.m.Epoch(p)
}

// SelfEpoch returns the observing incarnation's own epoch.
func (d *Detector) SelfEpoch() uint32 { return d.m.SelfEpoch() }
