// Package node hosts one process of the group: it wires the transport
// endpoint, stable storage, failure detector, consensus engine and atomic
// broadcast protocol into a single lifecycle with crash and recover
// transitions. An incarnation runs consensus and the broadcast core on one
// loop (internal/loop): one lock, one timer queue, one write queue and one
// upcall goroutine, so a decision is the core's input in the step that
// learns it. A detector runs on a loop of its own, which a sharded
// process's groups share.
//
// A crash destroys the incarnation: every task stops, the endpoint detaches
// (messages arriving while down are lost, §2.1), and all volatile state is
// dropped. Recover starts a fresh incarnation from stable storage: the node
// logs a new epoch (the incarnation counter that qualifies message
// identities and failure-detector heartbeats), restores the consensus log,
// and runs the broadcast protocol's replay procedure.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/loop"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ErrDown is returned by operations that need a live incarnation.
var ErrDown = errors.New("node: process is down")

const keyEpoch = "node/epoch"

// Config assembles the per-layer configurations. PID, N, Group and
// incarnation numbers are filled into the layer configs by the node
// (Core.Group in particular is overwritten with Config.Group — set the
// group here, not on the core config).
type Config struct {
	PID ids.ProcessID
	N   int
	// Group tags this node's ordering group in a sharded multi-group
	// deployment (see internal/group); 0 for an unsharded process.
	Group     ids.GroupID
	Core      core.Config
	Consensus consensus.Config
	FD        fd.Options
	// Obs is the process's observability plane: the node threads it into
	// every layer it builds per incarnation (core, consensus, its own FD),
	// wires the storage stack's latency probes, and stamps incarnation
	// starts into the flight recorder. Nil disables all instrumentation.
	Obs *obs.Plane
	// SharedFD, when set, is called at every incarnation start and must
	// return the process-level failure detector this node's consensus
	// engine should use (see SharedFD / StartSharedFD). The node
	// then runs no detector of its own: it sends no heartbeats and ignores
	// the FD channel — the process-level service owns both. Nil keeps the
	// classic one-detector-per-node wiring.
	SharedFD func() *fd.Detector
}

// Node is one process. The stable store and the network outlive
// incarnations; everything else is rebuilt by Start.
type Node struct {
	cfg   Config
	store storage.Stable
	net   transport.Network

	mu  sync.Mutex
	inc *incarnation
	// down is closed once the last crashed incarnation is torn down: its
	// endpoint stays attached until then, so Start waits for it.
	down chan struct{}
}

// incarnation is the volatile half of a process.
type incarnation struct {
	epoch  uint32
	cancel context.CancelFunc
	rt     *router.Router
	det    *fd.Detector // own detector or the shared process-level one
	own    *fd.Detector // non-nil only when this node runs its own detector
	proto  *core.Protocol
	// ready is set once proto.Start returned: until then the incarnation
	// exists only for Crash to tear down, and the accessors report the
	// node as down.
	ready bool
}

// New creates a node. store must be the process's stable storage (it
// survives crashes); net the shared network.
func New(cfg Config, store storage.Stable, net transport.Network) *Node {
	return &Node{cfg: cfg, store: store, net: net}
}

// Start boots a new incarnation: it logs the incremented epoch, rebuilds
// the stack from stable storage, and blocks until the broadcast replay
// phase completes. It is both "initialization" and "recovery" (Fig. 2).
// A Crash still tearing the last incarnation down delays it until the
// endpoint is detached.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.inc != nil {
		n.mu.Unlock()
		return fmt.Errorf("node %v: already up", n.cfg.PID)
	}
	down := n.down
	n.mu.Unlock()
	if down != nil {
		select {
		case <-down:
		case <-ctx.Done():
			return fmt.Errorf("node %v: %w", n.cfg.PID, ctx.Err())
		}
	}

	epoch, err := n.nextEpoch()
	if err != nil {
		return err
	}

	ep, err := n.net.Attach(n.cfg.PID)
	if err != nil {
		return fmt.Errorf("node %v: attach: %w", n.cfg.PID, err)
	}
	rt := router.New(ep)

	// The liveness oracle: this node's own detector, or the process-level
	// one shared by every group of a sharded process (then this node sends
	// no heartbeats at all).
	var det, own *fd.Detector
	if n.cfg.SharedFD != nil {
		det = n.cfg.SharedFD()
	} else {
		fdOpts := n.cfg.FD
		fdOpts.Obs = n.cfg.Obs
		own = fd.New(n.cfg.PID, n.cfg.N, epoch, fdOpts, rt.Bound(router.ChanFD))
		det = own
	}

	// One loop runs the incarnation's consensus and broadcast machines.
	ly, err := Assemble(loop.New(n.store), n.cfg, epoch, det, rt.Bound, nil)
	if err != nil {
		rt.Stop()
		return fmt.Errorf("node %v: %w", n.cfg.PID, err)
	}

	if own != nil {
		rt.Handle(router.ChanFD, own.OnMessage)
	}
	rt.Handle(router.ChanConsensus, ly.Eng.OnMessage)
	rt.Handle(router.ChanCore, ly.Proto.OnMessage)

	ictx, cancel := context.WithCancel(ctx)
	inc := &incarnation{
		epoch:  epoch,
		cancel: cancel,
		rt:     rt,
		det:    det,
		own:    own,
		proto:  ly.Proto,
	}
	// Published before the layers start, so a Crash racing this Start
	// finds the incarnation and tears it down; the accessors keep
	// answering "down" until ready.
	n.mu.Lock()
	n.inc = inc
	n.mu.Unlock()

	// Wire the storage stack's latency probes (idempotent per engine) and
	// stamp the incarnation start before any layer produces events.
	obsWireStorage(n.store, n.cfg.Obs)
	n.cfg.Obs.Flight().Event(obs.EvNodeStart, n.cfg.Group, uint64(epoch), 0, 0, "incarnation started")

	rt.Start(ictx)
	if own != nil {
		own.Start(ictx)
	}
	err = ly.Start(ictx)
	if err == nil {
		err = ly.Proto.AwaitReplay(ictx)
	}
	if err != nil {
		// Recovery was aborted (crash during replay or storage death).
		n.Crash()
		return fmt.Errorf("node %v: recovery: %w", n.cfg.PID, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inc != inc {
		return fmt.Errorf("node %v: crashed during start", n.cfg.PID)
	}
	inc.ready = true
	return nil
}

// Layers are the machines of one process incarnation on its loop: the
// consensus engine and the broadcast core that drives it.
type Layers struct {
	Eng   *consensus.Engine
	Proto *core.Protocol
}

// Assemble builds an incarnation's layers on l, whose store is the
// process's stable storage: consensus restored from its cells, the
// broadcast core on the same loop driving the engine's box, then the
// core's retrieve, which hands consensus its GC floor back before any
// frame reaches the engine. net binds a channel; box, when set, is handed
// the engine's box and returns what the core drives (the simulator's
// oracle watches it). Start and the simulator both boot an incarnation
// with it, then Layers.Start.
func Assemble(l *loop.Loop, cfg Config, epoch uint32, det consensus.Suspector, net func(router.Channel) router.Net, box func(consensus.Box) core.Consensus) (Layers, error) {
	ccfg := cfg.Consensus
	ccfg.PID = cfg.PID
	ccfg.N = cfg.N
	ccfg.Group = cfg.Group
	ccfg.Obs = cfg.Obs
	if ccfg.Seed == 0 {
		ccfg.Seed = uint64(cfg.PID)<<32 | uint64(epoch)
	}
	eng, err := consensus.NewOn(l, ccfg, net(router.ChanConsensus), det)
	if err != nil {
		return Layers{}, fmt.Errorf("consensus: %w", err)
	}
	var cons core.Consensus = eng.Box()
	if box != nil {
		cons = box(eng.Box())
	}

	pcfg := cfg.Core
	pcfg.PID = cfg.PID
	pcfg.N = cfg.N
	pcfg.Incarnation = epoch
	pcfg.Group = cfg.Group
	pcfg.Obs = cfg.Obs
	proto := core.New(pcfg, l, cons, net(router.ChanCore))
	// Consensus keeps no GC floor across a crash; core's retrieve hands it
	// back, before the caller lets a frame reach the engine.
	if err := proto.Recover(); err != nil {
		l.Stop()
		return Layers{}, fmt.Errorf("recovery: %w", err)
	}
	return Layers{Eng: eng, Proto: proto}, nil
}

// Start starts the layers on ctx, which ends the incarnation: consensus's
// drivers and its logged, undecided instances, then the core's replay
// phase (core.Protocol.Begin), whose end Proto.AwaitReplay waits for.
func (ly Layers) Start(ctx context.Context) error {
	ly.Eng.Start(ctx)
	return ly.Proto.Begin(ctx)
}

// nextEpoch increments and logs the incarnation counter — the single
// node-layer log write per recovery.
func (n *Node) nextEpoch() (uint32, error) {
	epoch, err := nextEpochCell(n.store, keyEpoch, "node")
	if err != nil {
		return 0, fmt.Errorf("node %v: %w", n.cfg.PID, err)
	}
	return epoch, nil
}

// Crash kills the incarnation: all volatile state is lost; stable storage
// survives. Crashing a down node is a no-op. The node reads as down from
// the start of the teardown, and a Start waits for its end.
func (n *Node) Crash() {
	n.mu.Lock()
	inc := n.inc
	n.inc = nil
	if inc != nil {
		n.down = make(chan struct{})
		defer close(n.down)
	}
	n.mu.Unlock()
	if inc == nil {
		return
	}
	inc.cancel()
	inc.rt.Stop()    // closes the endpoint: packets now dropped
	inc.proto.Stop() // stops the loop consensus shares
	if inc.own != nil {
		inc.own.Stop() // a shared detector outlives the group node
	}
}

// Up reports whether the process currently has a live incarnation.
func (n *Node) Up() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inc != nil
}

// Epoch returns the current incarnation number (0 if down).
func (n *Node) Epoch() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inc == nil {
		return 0
	}
	return n.inc.epoch
}

// Proto returns the live broadcast protocol, or nil if the node is down
// or its recovery has not finished.
func (n *Node) Proto() *core.Protocol {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inc == nil || !n.inc.ready {
		return nil
	}
	return n.inc.proto
}

// Detector returns the live failure detector (the node's own, or the
// shared process-level one), or nil if the node is down.
func (n *Node) Detector() *fd.Detector {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inc == nil {
		return nil
	}
	return n.inc.det
}

// Broadcast submits a payload through the live incarnation.
func (n *Node) Broadcast(ctx context.Context, payload []byte) (ids.MsgID, error) {
	p := n.Proto()
	if p == nil {
		return ids.MsgID{}, ErrDown
	}
	return p.Broadcast(ctx, payload)
}

// PID returns the node's process id.
func (n *Node) PID() ids.ProcessID { return n.cfg.PID }

// obsWireStorage walks the storage chain and attaches the plane's latency
// probes to every layer that supports them. Wrappers (Faulty, Accounted,
// Prefixed) expose Inner; the walk stops at the first opaque engine.
func obsWireStorage(st storage.Stable, p *obs.Plane) {
	if p == nil {
		return
	}
	for st != nil {
		switch s := st.(type) {
		case *storage.Faulty:
			s.SetObs(p)
			st = s.Inner()
		case *storage.WAL:
			s.SetObs(p)
			return
		case interface{ Inner() storage.Stable }:
			st = s.Inner()
		default:
			return
		}
	}
}
