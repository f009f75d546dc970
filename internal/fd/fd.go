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
// The detector's scope is one *process incarnation*, not one ordering
// group: §3.5's liveness oracle answers "is process q alive at epoch e",
// which is the same question for every group a sharded process hosts
// (groups of one process crash and recover together). A sharded deployment
// therefore runs ONE Detector per process and hands each group's consensus
// engine a View facade — G heartbeat streams per peer collapse to one,
// with identical suspicion output.
package fd

import (
	"context"
	"sync"
	"time"

	"repro/internal/ids"
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

// API is the detector interface the rest of the stack programs against —
// satisfied by both a Detector and a per-group View over a shared one. It
// is a superset of consensus.Suspector.
type API interface {
	// Suspects reports whether p is currently suspected.
	Suspects(p ids.ProcessID) bool
	// Leader returns the Ω-style eventual-leader hint.
	Leader() ids.ProcessID
	// Trusted returns the processes currently not suspected, in pid order.
	Trusted() []ids.ProcessID
	// Epoch returns the highest incarnation observed for p.
	Epoch(p ids.ProcessID) uint32
	// SelfEpoch returns the observing incarnation's own epoch.
	SelfEpoch() uint32
}

// Detector is a heartbeat failure detector for one process incarnation.
type Detector struct {
	pid   ids.ProcessID
	n     int
	epoch uint32
	opts  Options
	net   router.Net
	clock func() time.Time

	mu       sync.Mutex
	lastSeen []time.Time
	epochs   []uint32
	// suspected caches the last published suspicion per peer, so the
	// heartbeat task can emit flight-recorder events only on transitions
	// (suspicion itself stays derived from lastSeen on every read).
	suspected []bool
	fl        *obs.Recorder
	stopped   bool // Stop ran: a racing Start launches nothing

	wg sync.WaitGroup
}

var _ API = (*Detector)(nil)

// New creates a detector for process pid (of n) running incarnation epoch.
// net must be bound to the FD channel.
func New(pid ids.ProcessID, n int, epoch uint32, opts Options, net router.Net) *Detector {
	opts.fill()
	d := &Detector{
		pid:       pid,
		n:         n,
		epoch:     epoch,
		opts:      opts,
		net:       net,
		clock:     time.Now,
		lastSeen:  make([]time.Time, n),
		epochs:    make([]uint32, n),
		suspected: make([]bool, n),
		fl:        opts.Obs.Flight(),
	}
	d.epochs[pid] = epoch
	opts.Obs.Reg().Func("abcast.fd.suspected", func() int64 {
		return int64(d.n - len(d.Trusted()))
	})
	return d
}

// SetClock overrides the time source (tests only).
func (d *Detector) SetClock(clock func() time.Time) { d.clock = clock }

// Start launches the heartbeat task. It returns immediately; the task stops
// when ctx is cancelled. Wait for it with Stop.
func (d *Detector) Start(ctx context.Context) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ticker := time.NewTicker(d.opts.Heartbeat)
		defer ticker.Stop()
		d.beat()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				d.beat()
				d.scanTransitions()
			}
		}
	}()
}

// Stop waits for the heartbeat task to exit (cancel the Start context
// first).
func (d *Detector) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.wg.Wait()
}

// scanTransitions compares the derived suspicion state against the last
// published one and records a flight-recorder event per flip. Runs on the
// heartbeat cadence, so a suspicion is timestamped within one interval.
func (d *Detector) scanTransitions() {
	if d.fl == nil {
		return
	}
	now := d.clock()
	d.mu.Lock()
	for p := 0; p < d.n; p++ {
		if ids.ProcessID(p) == d.pid {
			continue
		}
		last := d.lastSeen[p]
		s := !last.IsZero() && now.Sub(last) > d.opts.Timeout
		if s == d.suspected[p] {
			continue
		}
		d.suspected[p] = s
		kind := obs.EvTrust
		if s {
			kind = obs.EvSuspect
		}
		d.fl.Event(kind, 0, uint64(d.epochs[p]), int64(p), 0, "")
	}
	d.mu.Unlock()
}

func (d *Detector) beat() {
	w := wire.GetWriter(8)
	w.U64(uint64(d.epoch))
	d.net.Multisend(w.Bytes())
	wire.PutWriter(w)
}

// OnMessage is the router handler for FD heartbeats.
func (d *Detector) OnMessage(from ids.ProcessID, payload []byte) {
	r := wire.NewReader(payload)
	epoch := uint32(r.U64())
	if r.Err() != nil || from < 0 || int(from) >= d.n {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastSeen[from] = d.clock()
	if epoch > d.epochs[from] {
		prev := d.epochs[from]
		d.epochs[from] = epoch
		if prev != 0 || epoch > 1 {
			// A jump past the first observation: the peer recovered into a
			// new incarnation while we watched.
			d.fl.Event(obs.EvEpochChange, 0, uint64(epoch), int64(from), int64(prev), "peer incarnation advanced")
		}
	}
}

// Suspects reports whether p is currently suspected. A process never
// suspects itself.
func (d *Detector) Suspects(p ids.ProcessID) bool {
	if p == d.pid {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	last := d.lastSeen[p]
	if last.IsZero() {
		// Never heard from p this incarnation: give it one timeout of
		// grace from our own start rather than suspecting instantly.
		return false
	}
	return d.clock().Sub(last) > d.opts.Timeout
}

// Trusted returns the processes currently not suspected, in pid order.
func (d *Detector) Trusted() []ids.ProcessID {
	out := make([]ids.ProcessID, 0, d.n)
	for p := 0; p < d.n; p++ {
		if !d.Suspects(ids.ProcessID(p)) {
			out = append(out, ids.ProcessID(p))
		}
	}
	return out
}

// Leader returns the Ω-style eventual leader hint: the lowest-id trusted
// process. With accurate-enough timeouts all good processes eventually
// agree on it.
func (d *Detector) Leader() ids.ProcessID {
	for p := 0; p < d.n; p++ {
		if !d.Suspects(ids.ProcessID(p)) {
			return ids.ProcessID(p)
		}
	}
	return d.pid
}

// Epoch returns the highest incarnation number observed for p.
func (d *Detector) Epoch(p ids.ProcessID) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epochs[p]
}

// SelfEpoch returns this incarnation's epoch.
func (d *Detector) SelfEpoch() uint32 { return d.epoch }

// View is one ordering group's facade over a process-level Detector shared
// by every group of a sharded process. All facades of one process expose
// the same suspicions and epochs — correct per §3.5, because the groups of
// one process share its crash/recovery lifecycle: a process that recovers
// at a higher epoch is re-trusted by every group's facade at once. The
// Group tag exists purely for observability (logs, tests).
type View struct {
	d     *Detector
	group ids.GroupID
}

var _ API = View{}

// View returns group g's facade over the shared detector.
func (d *Detector) View(g ids.GroupID) View { return View{d: d, group: g} }

// InertView returns a facade over a detector that was never started and
// never hears a heartbeat: it trusts everyone (the never-heard grace rule)
// and reports epoch 0. Owners of a shared detector hand it out in the
// window where no live detector exists (process torn down or still
// booting) so a racing reader gets a safe, never-nil oracle instead of a
// crash.
func InertView(pid ids.ProcessID, n int, opts Options, g ids.GroupID) View {
	return New(pid, n, 0, opts, nil).View(g)
}

// Group returns the ordering group this facade was handed to.
func (v View) Group() ids.GroupID { return v.group }

// Detector returns the shared process-level detector behind the facade.
func (v View) Detector() *Detector { return v.d }

// Suspects implements API.
func (v View) Suspects(p ids.ProcessID) bool { return v.d.Suspects(p) }

// Leader implements API.
func (v View) Leader() ids.ProcessID { return v.d.Leader() }

// Trusted implements API.
func (v View) Trusted() []ids.ProcessID { return v.d.Trusted() }

// Epoch implements API.
func (v View) Epoch(p ids.ProcessID) uint32 { return v.d.Epoch(p) }

// SelfEpoch implements API.
func (v View) SelfEpoch() uint32 { return v.d.SelfEpoch() }
