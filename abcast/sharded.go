package abcast

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/storage"
)

// GroupID identifies one ordering group of a sharded process (0..G-1).
type GroupID = ids.GroupID

// Router places broadcast keys onto ordering groups; see NewHashRouter.
type Router = group.Router

// RouterFunc adapts a function as a Router (explicit custom placement).
type RouterFunc = group.RouterFunc

// NewHashRouter returns the default deterministic consistent-hash router:
// every process maps a key to the same group without coordination, and
// regrowing the group count moves only ~1/G of the keyspace.
func NewHashRouter(groups int) Router { return group.NewHashRouter(groups) }

// NewRoundRobinRouter spreads keys evenly regardless of content (placement
// is per-router-instance, not cluster-deterministic).
func NewRoundRobinRouter(groups int) Router { return group.NewRoundRobinRouter(groups) }

// ShardedNetwork multiplexes one Network among G ordering groups: frames
// are tagged with their GroupID and demultiplexed to the owning group, so
// all groups share one connection set. Like the Network it wraps, one
// ShardedNetwork is shared by every process of the cluster.
type ShardedNetwork = group.Mux

// ShardedNetOptions tunes the sharded network's write-coalescing pipeline:
// with FlushDelay > 0, small frames submitted by any of a process's groups
// within the delay window are packed into one length-delimited transport
// write (flushed earlier once FlushBytes are queued) — the network twin of
// the WAL's group-commit triggers.
type ShardedNetOptions = group.MuxOptions

// NewShardedNetwork wraps net for groups ordering groups, without write
// coalescing.
func NewShardedNetwork(net Network, groups int) *ShardedNetwork {
	return group.NewMux(net, groups)
}

// NewShardedNetworkOpts wraps net for groups ordering groups with the
// given coalescing policy.
func NewShardedNetworkOpts(net Network, groups int, opts ShardedNetOptions) *ShardedNetwork {
	return group.NewMuxOpts(net, groups, opts)
}

// ShardedConfig assembles one sharded process: G independent ordering
// groups behind one API, one transport connection set, and one stable
// store.
type ShardedConfig struct {
	// PID and N identify the process within the static group; they are
	// shared by every ordering group (each group is the same Π).
	PID ProcessID
	N   int

	// Protocol and Policy configure every group identically (groups are
	// interchangeable shards, not heterogeneous deployments).
	Protocol ProtocolOptions
	Policy   ConsensusPolicy

	// FD tunes the process-level failure detector shared by every group:
	// a sharded process sends ONE heartbeat stream per peer, whatever G
	// is, because the paper's liveness oracle is per process (§3.5) and
	// all groups of a process crash and recover together. Zero values use
	// the library defaults.
	FD FDOptions

	// Router places Broadcast keys onto groups; nil defaults to the
	// deterministic consistent-hash router. Keys that must be mutually
	// ordered must route to the same group.
	Router Router

	// MergedDelivery declares that this process consumes the merged
	// cross-group sequence (Merged or MergeCursor) and makes application
	// checkpointing compose with it: every group's checkpoint folds only
	// rounds below the process-wide merge frontier (the highest round
	// every group has committed), so per-round delivery metadata survives
	// until the merge has passed it and the interleave stays
	// reconstructible across checkpoints and recoveries. An idle group
	// does not pin the frontier: merged mode defaults
	// Protocol.IdleHeartbeat on (50ms unless the config sets its own
	// value; negative forces it off), so a quiescent group proposes empty
	// heartbeat rounds and the frontier — with every group's checkpoint
	// reclamation behind it — keeps advancing without traffic on every
	// group. Leave MergedDelivery false when only per-group orders are
	// consumed, so checkpoints fold eagerly.
	MergedDelivery bool

	// MergeFloorStaleness bounds how long a silent peer's gossiped merge
	// frontier keeps holding the cluster-wide GC floor down (see
	// ClusterFloor in internal/group): a crashed process that recovers
	// within the cap finds every round it is missing still gossipable — no
	// GC-forced state transfer — while a process dead longer than the cap
	// stops blocking garbage collection for everyone else. 0 selects the
	// default (10s); negative means reports never go stale (the floor
	// waits for every peer indefinitely).
	MergeFloorStaleness time.Duration

	// Obs, when set, is the process's observability plane: it is threaded
	// into every group node (metrics, traces, flight recorder), the shared
	// failure detector, the merge stream, and the resharding machinery
	// ("abcast.reshard.*" counters and EvReshard* flight events).
	Obs *obs.Plane

	// OnDeliver receives every A-delivered message of every group, tagged
	// with its owning group (Delivery.Group). Within a group, calls are
	// ordered; across groups they interleave arbitrarily — use Merged for
	// one deterministic global sequence.
	//
	// Live resharding orders its SEAL/JOIN topology markers through the
	// groups themselves, so marker payloads appear in the delivery stream
	// (and in Merged output) like any agreed message — identically
	// positioned at every process, which is what makes the topology switch
	// deterministic. Applications that reshard should skip payloads for
	// which IsReshardMarker reports true.
	OnDeliver func(Delivery)
	// OnRestore is invoked when group g adopts a checkpoint or state
	// transfer instead of replaying.
	OnRestore func(GroupID, Snapshot)
}

// Validate rejects nonsensical sharded configurations with explicit errors
// instead of silent misbehavior, mirroring ProtocolOptions.Validate (which
// it includes). NewSharded calls it; constraints that involve NewSharded's
// arguments (the store, the group count) stay in NewSharded.
func (c ShardedConfig) Validate() error {
	var errs []error
	if c.N <= 0 {
		errs = append(errs, fmt.Errorf("abcast: sharded config needs N > 0"))
	}
	if c.PID < 0 || (c.N > 0 && int(c.PID) >= c.N) {
		errs = append(errs, fmt.Errorf("abcast: PID %v out of range [0,%d)", c.PID, c.N))
	}
	if err := c.Protocol.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ErrSealed is returned by Broadcast/BroadcastTo when the target group has
// been sealed for retirement. A rejection at entry admitted nothing — the
// caller can safely re-route the key (Broadcast does this itself when the
// default router is in use). A call that was already waiting when the seal
// cut the drain may instead report ErrSealed without the message having
// been ordered — the same may-or-may-not outcome as a crash mid-call.
var ErrSealed = core.ErrSealed

// IsReshardMarker reports whether an A-delivered payload is a live-
// resharding topology marker (SEAL/JOIN) rather than application content.
// Markers ride the agreed order itself — that is what coordinates the
// topology switch — so they appear in OnDeliver and Merged output; skip
// them in application logic.
func IsReshardMarker(p []byte) bool { return group.IsMarker(p) }

// defaultFloorStaleness is the MergeFloorStaleness applied when the config
// leaves it zero.
const defaultFloorStaleness = 10 * time.Second

// Keys of the process-level resharding cells, stored in the epoch store
// (outside every group's namespace).
const (
	keyTopo   = "abcast/topo"
	keyReaped = "abcast/reaped"
)

// Sharded is a process running G independent ordering groups — the paper's
// protocol instantiated G times — behind one API. Each group delivers its
// own total order with the full Atomic Broadcast guarantees; across groups
// there is no ordering unless the merged sequence is consumed. Start,
// Crash and recovery act on the whole process: a crash loses every group's
// volatile state at once, exactly like an unsharded crash.
//
// The group set is live: AddGroup splices a fresh group into the merged
// order and RetireGroup drains one out of it, both coordinated purely by
// markers ordered through the groups themselves (see internal/group). The
// node slice is indexed by GroupID and only ever grows — a retired group's
// slot goes nil once reaped, and GroupIDs are never reused.
type Sharded struct {
	cfg    ShardedConfig
	net    *ShardedNetwork
	shared Storage       // every group's namespace plus the process-level cells
	stream *group.Stream // per-round fan-out driving Merged/MergeCursor
	floors *group.FloorTracker
	peers  []ids.ProcessID // every process but this one
	rm     reshardMetrics

	// ns is the copy-on-write (nodes, stores) pair, swapped under mu;
	// router/topoEnc are the broadcast hot path's view of the topology,
	// swapped by the stream's topology hook.
	ns      atomic.Pointer[nodeSet]
	router  atomic.Pointer[routerEpoch]
	topoEnc atomic.Pointer[topoDescriptor]

	mu       sync.Mutex
	up       bool
	startCtx context.Context // last Start context, for nodes spliced in live
	startAt  time.Time       // last Start: floor reports since then are this incarnation's news
	sfd      *node.SharedFD  // live process-level failure detector (nil when down)
	reaped   map[GroupID]bool
	seen     map[GroupID]group.Span // last observed topology (edge-detects seals/joins)
	seenAt   uint64                 // its epoch

	// reshardMu serializes AddGroup / RetireGroup / ReapRetired. It is
	// never taken by the topology hook, which runs on delivery goroutines
	// while a reshard call may be blocked broadcasting a marker.
	reshardMu sync.Mutex
}

// nodeSet is the immutable (nodes, stores) snapshot read by every hot
// path; mutations copy and swap under Sharded.mu. Index is the GroupID;
// nil entries are reaped groups.
type nodeSet struct {
	nodes  []*node.Node
	stores []Storage
}

// routerEpoch pairs the live router with the topology epoch it was built
// from (the "swap under an epoch number" of live resharding).
type routerEpoch struct {
	r     Router
	epoch uint64
}

// topoDescriptor caches the encoded topology the floor gossip carries.
type topoDescriptor struct {
	epoch uint64
	enc   []byte
}

// reshardMetrics are the "abcast.reshard.*" registry entries (all nil
// without an Obs plane).
type reshardMetrics struct {
	drainNS       *obs.Counter
	orphans       *obs.Counter
	migratedKeys  *obs.Counter
	migratedBytes *obs.Counter
	epoch         *obs.Gauge
}

// flight returns the flight recorder (nil-safe: obs.Recorder methods
// no-op on nil).
func (s *Sharded) flight() *obs.Recorder {
	if s.cfg.Obs == nil {
		return nil
	}
	return s.cfg.Obs.Flight()
}

// NewSharded builds a sharded process over the given stable store and
// sharded network. st is the process's one shared store: group g runs in
// its "g<g>/" namespace of it (storage.Prefixed), so on a group-commit WAL
// engine all groups share fsyncs. The same store must be passed again
// after a crash for recovery, and the same ShardedNetwork must be shared
// by the whole cluster.
func NewSharded(cfg ShardedConfig, st Storage, net *ShardedNetwork) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.Groups() < 1 {
		return nil, fmt.Errorf("abcast: sharded process needs at least one ordering group")
	}
	if st == nil {
		return nil, fmt.Errorf("abcast: sharded process needs a store")
	}
	if cfg.MergedDelivery && cfg.Protocol.IdleHeartbeat == 0 {
		// Merged mode needs idle groups to keep their round counters
		// moving or the merge frontier (and every group's checkpoint
		// reclamation) pins on the first quiescent group. A negative
		// IdleHeartbeat opts out explicitly (coreConfig clamps it to 0).
		cfg.Protocol.IdleHeartbeat = 50 * time.Millisecond
	}
	s := &Sharded{
		cfg:    cfg,
		net:    net,
		shared: st,
		reaped: make(map[GroupID]bool),
		seen:   make(map[GroupID]group.Span),
	}
	for p := 0; p < cfg.N; p++ {
		if pid := ids.ProcessID(p); pid != cfg.PID {
			s.peers = append(s.peers, pid)
		}
	}

	// Restore the persisted topology (a resharded deployment restarting)
	// or fall back to the static epoch-0 shape of the network mux. The
	// reaped set tells which retired groups' nodes are NOT rebuilt.
	topo := group.NewStaticTopology(net.Groups())
	if enc, ok, err := s.shared.Get(keyTopo); err != nil {
		return nil, fmt.Errorf("abcast: read persisted topology: %w", err)
	} else if ok {
		t, err := group.DecodeTopology(enc)
		if err != nil {
			return nil, fmt.Errorf("abcast: persisted topology: %w", err)
		}
		topo = t
	}
	if enc, ok, err := s.shared.Get(keyReaped); err != nil {
		return nil, fmt.Errorf("abcast: read reaped set: %w", err)
	} else if ok {
		gs, err := decodeReaped(enc)
		if err != nil {
			return nil, fmt.Errorf("abcast: reaped set: %w", err)
		}
		for _, g := range gs {
			s.reaped[g] = true
		}
	}
	s.stream = group.NewStreamTopology(topo)
	s.stream.SetObs(cfg.Obs)
	s.floors = group.NewFloorTracker(s.stream.Frontier, floorCap(cfg.MergeFloorStaleness))
	if cfg.Obs != nil {
		reg := cfg.Obs.Reg()
		s.rm = reshardMetrics{
			drainNS:       reg.Counter("abcast.reshard.drain_ns"),
			orphans:       reg.Counter("abcast.reshard.orphans"),
			migratedKeys:  reg.Counter("abcast.reshard.migrated_keys"),
			migratedBytes: reg.Counter("abcast.reshard.migrated_bytes"),
			epoch:         reg.Gauge("abcast.reshard.epoch"),
		}
		s.rm.epoch.Set(int64(topo.Epoch))
	}

	// Build one node per known, unreaped group. The mux may predate a
	// restored topology that grew: raise its lane count first.
	maxG := net.Groups()
	for g := range topo.Spans {
		if int(g)+1 > maxG {
			maxG = int(g) + 1
		}
	}
	net.Grow(maxG)
	ns := &nodeSet{nodes: make([]*node.Node, maxG), stores: make([]Storage, maxG)}
	for g := 0; g < maxG; g++ {
		gid := GroupID(g)
		if s.reaped[gid] {
			// Reaped groups never replay, so their decided counters must
			// be pinned past their final round by hand or they would gate
			// the merge frontier at their offset forever.
			if sp, ok := topo.Spans[gid]; ok && sp.Sealed {
				s.stream.NoteSkip(gid, sp.Final+1)
			}
			continue
		}
		ns.stores[g], ns.nodes[g] = s.buildGroup(gid)
	}
	s.ns.Store(ns)
	for g, sp := range topo.Spans {
		s.seen[g] = sp
	}
	s.seenAt = topo.Epoch
	s.installTopology(topo)
	s.stream.SetOnTopology(s.onTopology)
	return s, nil
}

// floorCap normalizes the MergeFloorStaleness knob into the tracker's cap
// (0 there means "never stale").
func floorCap(d time.Duration) time.Duration {
	if d == 0 {
		return defaultFloorStaleness
	}
	if d < 0 {
		return 0
	}
	return d
}

// encodeReaped serializes the reaped-group set (ascending).
func encodeReaped(gs []GroupID) []byte {
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	buf := binary.AppendUvarint(nil, uint64(len(gs)))
	for _, g := range gs {
		buf = binary.AppendUvarint(buf, uint64(g))
	}
	return buf
}

// decodeReaped parses an encodeReaped result.
func decodeReaped(b []byte) ([]GroupID, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	b = b[n:]
	if cnt > uint64(len(b)) { // a group ID is a uvarint of at least a byte
		return nil, fmt.Errorf("%d groups in %d bytes", cnt, len(b))
	}
	out := make([]GroupID, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("truncated")
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("group %d out of range", v)
		}
		out = append(out, GroupID(v))
		b = b[n:]
	}
	return out, nil
}

// buildGroup constructs group gid's store and node (the per-group loop
// body of NewSharded, reused by live AddGroup splices).
func (s *Sharded) buildGroup(gid GroupID) (Storage, *node.Node) {
	cfg := s.cfg
	gst := storage.NewPrefixed(s.shared, group.StoreNamespace(gid))

	coreCfg := cfg.Protocol.coreConfig()
	coreCfg.OnDeliver = cfg.OnDeliver
	if restore := cfg.OnRestore; restore != nil {
		coreCfg.OnRestore = func(sn Snapshot) { restore(gid, sn) }
	}
	// Every group feeds the process's per-round stream (it also tracks
	// the decided counters Merged and MergeCursor use); the merge floor
	// gates checkpoint folds only when the merged sequence is declared
	// consumed, so an idle group cannot pin reclamation of processes that
	// never merge. The floor is the CLUSTER-wide minimum (gossiped on the
	// digest lane, bounded by the staleness cap), localized to this
	// group's span. OnRound lends each round's deliveries for the call;
	// the stream copies what it keeps.
	coreCfg.OnRound = s.stream.NoteRound
	coreCfg.OnRoundSkip = s.stream.NoteSkip
	if cfg.MergedDelivery {
		coreCfg.MergeFloor = func() uint64 {
			return s.stream.LocalFloor(gid, s.floors.ClusterFloor(s.peers))
		}
	}
	// Checkpoint discards wait for the cluster-wide durable floor: a
	// checkpoint still logs locally at full speed, but Consensus state a
	// slow or crashed peer may need to re-learn its rounds survives until
	// every process's own recoverable prefix (gossiped via FloorSelf) has
	// passed them. This is what makes a lagging recoverer catch up through
	// ordinary Consensus instead of a GC-forced state transfer.
	coreCfg.OnCheckpoint = func(k uint64) { s.stream.NoteDurable(gid, k) }
	coreCfg.DiscardFloor = func() uint64 {
		return s.stream.LocalFloor(gid, s.floors.ClusterFloor(s.peers))
	}
	// Every group gossips the process-wide merge frontier and topology
	// descriptor on its digest lane, and folds peers' reports into the
	// floor tracker; a peer that slept through a reshard resynchronizes
	// its epoch from the descriptor instead of replaying markers.
	coreCfg.FloorSelf = s.floorSelf
	coreCfg.OnPeerFloor = s.onPeerFloor

	ncfg := node.Config{
		PID:       cfg.PID,
		N:         cfg.N,
		Group:     gid,
		Core:      coreCfg,
		Consensus: consensus.Config{Policy: cfg.Policy},
		FD:        cfg.FD,
		Obs:       cfg.Obs,
		// Every group's consensus engine reads the one process-level
		// detector; the group nodes send no heartbeats of their own.
		SharedFD: s.liveFD,
	}
	return gst, node.New(ncfg, gst, s.net.Net(gid))
}

// floorSelf is every group's core.Config.FloorSelf hook: the process-wide
// merge frontier plus the cached topology descriptor.
func (s *Sharded) floorSelf() (uint64, uint64, []byte) {
	td := s.topoEnc.Load()
	// The gossiped floor is the DURABLE frontier — the prefix this
	// process recovers from its own storage after a crash. Reporting the
	// in-memory frontier would let peers discard rounds committed here
	// since the last checkpoint, which a crash sends this process right
	// back to needing.
	return s.stream.DurableFrontier(), td.epoch, td.enc
}

// onPeerFloor is every group's core.Config.OnPeerFloor hook. A newer
// topology is adopted before the report counts, so a view judged once a
// peer has reported (RetireGroup) is no older than that peer's.
func (s *Sharded) onPeerFloor(from ids.ProcessID, floor uint64, epoch uint64, topo []byte) {
	if epoch > s.stream.Epoch() && len(topo) > 0 {
		if t, err := group.DecodeTopology(topo); err == nil {
			s.stream.AdoptTopology(t)
		}
	}
	s.floors.Report(from, floor)
}

// installTopology refreshes the hot-path topology views: the router ring
// (unless the config pinned a custom router) and the encoded descriptor
// the floor gossip carries.
func (s *Sharded) installTopology(t *group.Topology) {
	r := s.cfg.Router
	if r == nil {
		r = group.NewHashRouterOver(t.Active())
	}
	s.router.Store(&routerEpoch{r: r, epoch: t.Epoch})
	s.topoEnc.Store(&topoDescriptor{epoch: t.Epoch, enc: t.Encode()})
	if s.rm.epoch != nil {
		s.rm.epoch.Set(int64(t.Epoch))
	}
}

// onTopology runs (outside the stream lock, on a delivery or gossip
// goroutine) after every topology transition: it swaps the router under
// the new epoch, persists the topology, seals the protocols of newly
// sealed groups, splices in nodes for newly joined groups, and stamps the
// flight recorder. It must never take reshardMu (a reshard call may be
// blocked broadcasting the very marker that triggered it).
func (s *Sharded) onTopology(t *group.Topology) {
	// Two delivery goroutines may hand over their snapshots out of epoch
	// order: an older one must not roll back the router, the persisted
	// topology or the observed spans (the newer one's seal would then be
	// seen, and stamped, a second time). s.mu orders the swap, the write
	// and the edge detection.
	s.mu.Lock()
	if t.Epoch < s.seenAt {
		s.mu.Unlock()
		return
	}
	s.seenAt = t.Epoch
	s.installTopology(t)
	if err := s.shared.Put(keyTopo, t.Encode()); err != nil {
		s.flight().Event(obs.EvViolation, -1, 0, 0, 0, "persist topology: "+err.Error())
	}

	// Edge-detect transitions against the last observed spans.
	var sealed, joined []GroupID
	for g, sp := range t.Spans {
		prev, known := s.seen[g]
		if !known {
			joined = append(joined, g)
		}
		if sp.Sealed && (!known || !prev.Sealed) {
			sealed = append(sealed, g)
		}
		s.seen[g] = sp
	}
	s.mu.Unlock()
	sort.Slice(joined, func(i, j int) bool { return joined[i] < joined[j] })

	for _, g := range sealed {
		sp := t.Spans[g]
		s.flight().Event(obs.EvReshardSeal, g, sp.Final, int64(t.Epoch), 0, "")
		if p := s.protoAt(g); p != nil {
			p.Seal(sp.Final)
		}
	}
	for _, g := range joined {
		sp := t.Spans[g]
		s.flight().Event(obs.EvReshardJoin, g, 0, int64(g), int64(sp.Offset), "")
	}
	if len(joined) > 0 {
		s.ensureGroups(t)
	}
}

// nodeAt returns group g's node (nil when reaped or unknown).
func (s *Sharded) nodeAt(g GroupID) *node.Node {
	ns := s.ns.Load()
	if g < 0 || int(g) >= len(ns.nodes) {
		return nil
	}
	return ns.nodes[g]
}

// protoAt returns group g's live protocol (nil when reaped, unknown or
// down).
func (s *Sharded) protoAt(g GroupID) *core.Protocol {
	n := s.nodeAt(g)
	if n == nil {
		return nil
	}
	return n.Proto()
}

// ensureGroups builds and installs a node for every group the topology
// knows that this process has none for — the heal path for a process that
// slept through an AddGroup (crashed during the reshard, or recovering
// with a stale persisted topology). New nodes are started asynchronously
// when the process is up: this runs on delivery/gossip goroutines and a
// node Start blocks through replay.
func (s *Sharded) ensureGroups(t *group.Topology) {
	type started struct {
		n   *node.Node
		ctx context.Context
	}
	var boot []started
	s.mu.Lock()
	ns := s.ns.Load()
	maxG := len(ns.nodes)
	for g := range t.Spans {
		if int(g)+1 > maxG {
			maxG = int(g) + 1
		}
	}
	if maxG > len(ns.nodes) {
		s.net.Grow(maxG)
		grown := &nodeSet{nodes: make([]*node.Node, maxG), stores: make([]Storage, maxG)}
		copy(grown.nodes, ns.nodes)
		copy(grown.stores, ns.stores)
		ns = grown
	}
	changed := maxG > len(s.ns.Load().nodes)
	for g := range t.Spans {
		if ns.nodes[g] != nil || s.reaped[g] {
			continue
		}
		if sp := t.Spans[g]; sp.Sealed && s.stream.Drained(g) {
			continue // fully drained before we ever hosted it: nothing to order
		}
		gst, n := s.buildGroup(g)
		ns.nodes[g], ns.stores[g] = n, gst
		changed = true
		if s.up {
			boot = append(boot, started{n: n, ctx: s.startCtx})
		}
	}
	if changed {
		s.ns.Store(ns)
	}
	s.mu.Unlock()
	for _, b := range boot {
		go func(b started) {
			if err := b.n.Start(b.ctx); err != nil {
				return // already-up or crashed-meanwhile: the next Start heals
			}
			s.applySeals()
			s.mu.Lock()
			up := s.up
			s.mu.Unlock()
			if !up {
				b.n.Crash() // the process crashed while we were booting
			}
		}(b)
	}
}

// applySeals re-applies the topology's seals to the live protocol
// incarnations. A protocol is a per-incarnation object: a crash between a
// SEAL marker's delivery and the drain loses the in-memory seal, and the
// replaying incarnation re-delivers the marker into a stream that already
// knows it (inert), so the sharded layer re-arms the seal explicitly after
// every boot.
func (s *Sharded) applySeals() {
	t := s.stream.Topology()
	for g, sp := range t.Spans {
		if !sp.Sealed {
			continue
		}
		if p := s.protoAt(g); p != nil {
			p.Seal(sp.Final)
		}
	}
}

// liveFD returns the live shared detector, which every group's engine
// reads. Group nodes only start after Start boots the detector, so a nil
// here means a torn-down process — return a detector that was never
// started rather than nil (it trusts everyone for the grace of one
// timeout), so a racing start cannot panic (it will be crashed anyway).
func (s *Sharded) liveFD() *fd.Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sfd == nil {
		return fd.New(s.cfg.PID, s.cfg.N, 0, s.cfg.FD, nil)
	}
	return s.sfd.Detector()
}

// Groups returns the number of ordering groups ever hosted (GroupIDs are
// dense and never reused, so this is max GroupID + 1; retired and even
// reaped groups count).
func (s *Sharded) Groups() int { return len(s.ns.Load().nodes) }

// ActiveGroups returns the unsealed groups new keys may route to,
// ascending.
func (s *Sharded) ActiveGroups() []GroupID { return s.stream.Topology().Active() }

// Epoch returns the topology epoch the live router was built under; it
// bumps on every seal or join.
func (s *Sharded) Epoch() uint64 { return s.router.Load().epoch }

// InTopology reports whether this process's topology knows group g — its
// span is spliced into the global round numbering (sealed groups
// included). A process that slept through a reshard learns the group late,
// from the ordered JOIN marker or the floor gossip's topology descriptor;
// an operator sequencing a retirement across processes should wait for
// this before asking the process to retire g.
func (s *Sharded) InTopology(g GroupID) bool {
	_, ok := s.stream.Topology().Spans[g]
	return ok
}

// Start boots the process (initialization or recovery): it logs the
// process-level epoch, starts the shared failure detector, then boots
// every group concurrently and blocks until all replay phases complete.
// On any failure every group is crashed again, so the process is either
// fully up or fully down.
func (s *Sharded) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return fmt.Errorf("abcast: sharded process %v already up", s.cfg.PID)
	}
	s.up = true
	s.startCtx, s.startAt = ctx, time.Now()
	s.mu.Unlock()

	// The process-level liveness service comes up first so every group's
	// consensus engine starts against a live oracle: one epoch log write
	// and one heartbeat stream for the whole process.
	epoch, err := node.NextProcEpoch(s.shared)
	if err != nil {
		s.Crash()
		return fmt.Errorf("abcast: sharded process %v: %w", s.cfg.PID, err)
	}
	fdOpts := s.cfg.FD
	fdOpts.Obs = s.cfg.Obs // the live detector's alone: liveFD's placeholder stays off the plane
	sfd, err := node.StartSharedFD(ctx, s.cfg.PID, s.cfg.N, epoch, fdOpts, s.net.ProcNet())
	if err != nil {
		s.Crash()
		return fmt.Errorf("abcast: sharded process %v: %w", s.cfg.PID, err)
	}
	s.mu.Lock()
	s.sfd = sfd
	s.mu.Unlock()

	// Splice in any groups a newer topology knows that this instance has
	// no node for yet (a recovery that learned of a reshard through the
	// persisted topology happens in NewSharded; this covers in-process
	// crash/recover cycles that slept through a live AddGroup).
	s.ensureGroups(s.stream.Topology())

	ns := s.ns.Load()
	errs := make([]error, len(ns.nodes))
	var wg sync.WaitGroup
	for g, n := range ns.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(g int, n *node.Node) {
			defer wg.Done()
			errs[g] = n.Start(ctx)
		}(g, n)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			s.Crash()
			return fmt.Errorf("abcast: sharded group %d: %w", g, err)
		}
	}
	// Re-arm the retirement seals on the fresh incarnations (the stream
	// outlives incarnations, the protocols do not).
	s.applySeals()
	return nil
}

// Crash kills every group of the process (and the shared failure
// detector), losing all volatile state; the stable store(s) survive. Call
// Start to recover.
func (s *Sharded) Crash() {
	s.mu.Lock()
	s.up = false
	sfd := s.sfd
	s.sfd = nil
	s.mu.Unlock()
	for _, n := range s.ns.Load().nodes {
		if n != nil {
			n.Crash()
		}
	}
	if sfd != nil {
		sfd.Stop()
	}
}

// Up reports whether every (unreaped) group of the process answers: its
// node is running and done with its recovery replay. A group spliced in
// live boots asynchronously, so Up can turn false without a crash.
func (s *Sharded) Up() bool {
	live := 0
	for _, n := range s.ns.Load().nodes {
		if n == nil {
			continue
		}
		if n.Proto() == nil {
			return false
		}
		live++
	}
	return live > 0
}

// Route returns the group the live router places key on (the configured
// Router, or the default consistent-hash ring over the currently active
// groups).
func (s *Sharded) Route(key []byte) GroupID { return s.router.Load().r.Route(key) }

// FD returns the live process-level failure detector shared by every
// group (nil when the process is down). Every group's engine reads it, so
// one query answers for the whole process.
func (s *Sharded) FD() *fd.Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sfd == nil {
		return nil
	}
	return s.sfd.Detector()
}

// Broadcast routes key to its group and A-broadcasts payload there. It
// returns the owning group and the message identity (unique within that
// group). A custom Router that places the key outside the known groups is
// an error, not a panic.
//
// A broadcast in flight while its group is sealed for retirement is
// bounced with ErrSealed; when the default router is in use the call
// re-routes the key on the post-seal ring (the seal swapped the router
// before the protocol started bouncing) and retries with a fresh message
// identity, so callers only ever see ErrSealed with a custom Router that
// keeps placing the key on the sealed group.
func (s *Sharded) Broadcast(ctx context.Context, key, payload []byte) (GroupID, MsgID, error) {
	last := GroupID(-1)
	for {
		g := s.router.Load().r.Route(key)
		if err := s.checkGroup(g); err != nil {
			return g, MsgID{}, fmt.Errorf("abcast: router returned unknown group %v (groups=%d)", g, s.Groups())
		}
		n := s.nodeAt(g)
		if n == nil {
			return g, MsgID{}, fmt.Errorf("abcast: router returned retired group %v", g)
		}
		id, err := n.Broadcast(ctx, payload)
		if !errors.Is(err, ErrSealed) || g == last {
			return g, id, err
		}
		// Sealed under us: the topology moved and the router with it —
		// re-route and retry. ErrSealed guarantees the message was NOT
		// delivered, so the fresh identity cannot duplicate it. One equal
		// re-route means the router is pinned (custom): surface the error.
		last = g
	}
}

// BroadcastTo A-broadcasts payload on an explicitly chosen group. A sealed
// group returns ErrSealed (the explicit choice is not re-routed).
func (s *Sharded) BroadcastTo(ctx context.Context, g GroupID, payload []byte) (MsgID, error) {
	if err := s.checkGroup(g); err != nil {
		return MsgID{}, err
	}
	n := s.nodeAt(g)
	if n == nil {
		return MsgID{}, fmt.Errorf("abcast: group %v retired", g)
	}
	return n.Broadcast(ctx, payload)
}

// BroadcastToAsync submits payload on group g without waiting for
// ordering (open-loop load generation).
func (s *Sharded) BroadcastToAsync(g GroupID, payload []byte) (MsgID, error) {
	if err := s.checkGroup(g); err != nil {
		return MsgID{}, err
	}
	p := s.protoAt(g)
	if p == nil {
		return MsgID{}, node.ErrDown
	}
	return p.BroadcastAsync(payload)
}

func (s *Sharded) checkGroup(g GroupID) error {
	if n := s.Groups(); g < 0 || int(g) >= n {
		return fmt.Errorf("abcast: group %v out of range [0,%d)", g, n)
	}
	return nil
}

// Delivered reports whether id is in group g's delivery sequence.
func (s *Sharded) Delivered(g GroupID, id MsgID) bool {
	p := s.protoAt(g)
	return p != nil && p.Delivered(id)
}

// Sequence returns group g's A-deliver-sequence (base snapshot plus
// explicit suffix).
func (s *Sharded) Sequence(g GroupID) (Snapshot, []Delivery) {
	p := s.protoAt(g)
	if p == nil {
		return Snapshot{}, nil
	}
	return p.Sequence()
}

// CheckpointNow forces one checkpoint on every group of the process
// (Fig. 4 lines (b)/(c)), the sharded counterpart of
// Process.CheckpointNow. With MergedDelivery set, each group's fold
// stops at the process-wide merge frontier, so forcing checkpoints never
// destroys rounds a merge consumer still needs.
func (s *Sharded) CheckpointNow() error {
	for g, n := range s.ns.Load().nodes {
		if n == nil {
			continue // reaped
		}
		p := n.Proto()
		if p == nil {
			return fmt.Errorf("abcast: group %d is down", g)
		}
		if err := p.CheckpointNow(); err != nil {
			return fmt.Errorf("abcast: checkpoint group %d: %w", g, err)
		}
	}
	// Folds just advanced the merge base: a drained retired group may now
	// be reapable. Opportunistic only — never block a checkpoint behind a
	// reshard in progress.
	if s.reshardMu.TryLock() {
		s.reapLocked()
		s.reshardMu.Unlock()
	}
	return nil
}

// Round returns group g's round counter (its next Consensus instance).
func (s *Sharded) Round(g GroupID) uint64 {
	p := s.protoAt(g)
	if p == nil {
		return 0
	}
	return p.Round()
}

// UnorderedLen returns the size of group g's Unordered set
// (observability: a non-empty set means ordering work is pending).
func (s *Sharded) UnorderedLen(g GroupID) int {
	p := s.protoAt(g)
	if p == nil {
		return 0
	}
	return p.UnorderedLen()
}

// Merged returns the deterministic cross-group interleave of this
// process's delivery sequences: rounds in increasing number, groups in
// increasing GroupID within a round. Any two processes' merges agree on
// the rounds both cover, so the result is one global total order over all
// groups, each Delivery tagged with its owning Group ((Group, Msg.ID) is
// the global identity — MsgIDs are unique only per group).
//
// The output covers rounds [from, rounds): rounds is the merge frontier
// (rounds every group has decided here), from the highest round
// checkpointing has folded into a base snapshot. With MergedDelivery set,
// folds stop at the merge frontier, so successive Merged calls (and any
// MergeCursor) always see a contiguous sequence across checkpoints; the
// folded prefix itself is represented by the groups' base snapshots
// (Sequence). ok is false only while the process is down. For online
// consumption without the per-call recompute, use MergeCursor.
func (s *Sharded) Merged() (merged []Delivery, from, rounds uint64, ok bool) {
	seqs, err := s.sequences()
	if err != nil {
		return nil, 0, 0, false
	}
	merged, from, rounds = group.MergeT(seqs, s.stream.Topology())
	return merged, from, rounds, true
}

// sequences snapshots every group's delivery sequence (MergeT input).
// Reaped groups are omitted — MergeT treats an absent sealed group as
// fully decided, and the reap gate guarantees every consumer has already
// passed its final round.
func (s *Sharded) sequences() ([]group.Sequence, error) {
	ns := s.ns.Load()
	seqs := make([]group.Sequence, 0, len(ns.nodes))
	for g, n := range ns.nodes {
		if n == nil {
			continue // reaped
		}
		p := n.Proto()
		if p == nil {
			return nil, fmt.Errorf("abcast: group %d is down", g)
		}
		// Round is read before Sequence: between the two reads more
		// rounds may commit, which only under-reports the frontier —
		// never claims a round the sequence does not yet cover.
		rounds := p.Round()
		base, suffix := p.Sequence()
		seqs = append(seqs, group.Sequence{
			Group:      GroupID(g),
			Base:       base,
			Deliveries: suffix,
			Rounds:     rounds,
		})
	}
	return seqs, nil
}

// MergeCursor is a streaming subscription to the merged cross-group
// sequence: per-group round frontiers plus a buffer of complete rounds,
// advanced as groups commit. Drain it with Next; see Sharded.MergeCursor.
type MergeCursor = group.Cursor

// MergeCursor subscribes a streaming cursor to this process's merged
// cross-group sequence. The cursor's Next output begins at the current
// merge base (everything older is represented by the groups' base
// snapshots) and is byte-identical to what batch Merged computes from
// that base on — delivered online and incrementally instead of recomputed
// per call. Each round advances in O(groups log groups); a Next poll that
// finds no new complete round allocates nothing.
//
// The cursor keeps working across crash/recovery of this process's groups
// (recovery replay deduplicates), but a Δ-triggered state transfer that
// skips rounds leaves it permanently lagged (ErrMergeCursorLagged from
// Next) — resynchronize by adopting the base snapshots and resubscribing.
// Processes running checkpointing in merged mode should set
// ShardedConfig.MergedDelivery so checkpoint folds never outrun the
// merge. Close the cursor when done to stop buffering.
func (s *Sharded) MergeCursor() (*MergeCursor, error) {
	return s.stream.Subscribe(s.sequences)
}

// MergeFrontier returns the process-wide merge frontier: the highest
// round every group of this process has committed, i.e. how far Merged /
// MergeCursor output can extend right now.
func (s *Sharded) MergeFrontier() uint64 { return s.stream.Frontier() }

// ErrMergeCursorLagged is returned by MergeCursor.Next after a state
// transfer skipped rounds the cursor never saw; resubscribe to recover.
var ErrMergeCursorLagged = group.ErrCursorLagged

// syncCounter is implemented by engines that count their fsyncs
// (storage.WAL); the stats rollup uses it to report shared-WAL syncs once.
type syncCounter interface {
	SyncCount() int64
}

// ShardedStats is the cross-group stats rollup of one sharded process.
type ShardedStats struct {
	// PerGroup holds each group's protocol counters, indexed by GroupID.
	PerGroup []Stats
	// Total is the field-wise aggregation over all groups (sums;
	// RecoveredFromCkpt is OR-ed).
	Total Stats
	// WALSyncs counts the fsyncs of the underlying group-commit
	// engine under every group, read once. 0 when the engine exposes no
	// sync count.
	WALSyncs int64
}

// Stats returns the per-group and rolled-up counters of the live process.
// Reaped groups report zero counters.
func (s *Sharded) Stats() ShardedStats {
	ns := s.ns.Load()
	st := ShardedStats{PerGroup: make([]Stats, len(ns.nodes))}
	for g, n := range ns.nodes {
		if n == nil {
			continue
		}
		p := n.Proto()
		if p == nil {
			continue
		}
		st.PerGroup[g] = p.Stats()
		addStats(&st.Total, st.PerGroup[g])
	}
	if sc, ok := s.shared.(syncCounter); ok {
		st.WALSyncs = sc.SyncCount()
	}
	return st
}

// addStats accumulates o into t field-wise.
func addStats(t *Stats, o Stats) {
	t.Rounds += o.Rounds
	t.EmptyRounds += o.EmptyRounds
	t.Delivered += o.Delivered
	t.Broadcasts += o.Broadcasts
	t.GossipSent += o.GossipSent
	t.GossipReceived += o.GossipReceived
	t.DigestsSent += o.DigestsSent
	t.PullsSent += o.PullsSent
	t.PullsServed += o.PullsServed
	t.StateSent += o.StateSent
	t.StateAdopted += o.StateAdopted
	t.Checkpoints += o.Checkpoints
	t.ReplayedRounds += o.ReplayedRounds
	t.RecoveredFromCkpt = t.RecoveredFromCkpt || o.RecoveredFromCkpt
	t.RecoveredUnordered += o.RecoveredUnordered
	t.ProposalsSubmitted += o.ProposalsSubmitted
	t.PipelinedProposals += o.PipelinedProposals
	t.ProposedMessages += o.ProposedMessages
	t.DeliveredByTransfer += o.DeliveredByTransfer
	t.HeartbeatRounds += o.HeartbeatRounds
	t.BatchFullSeals += o.BatchFullSeals
	t.BatchTimerSeals += o.BatchTimerSeals
	t.StateSentGCForced += o.StateSentGCForced
}

// drainWindow is the W carried in SEAL markers: the depth of the proposal
// pipeline every process runs, so a proposer whose window reaches past
// round r_s+W must have committed — and therefore delivered — the seal at
// r_s, and proposes no application content.
func (s *Sharded) drainWindow() uint64 {
	return uint64(max(1, s.cfg.Protocol.PipelineDepth))
}

// remapOrphanSeq tags an orphan's sequence number with its retiring
// group's identity, making the re-injected identity disjoint from the
// successor group's native ones: per-group sequence counters are
// independent, so the original (sender, incarnation, seq) may already name
// a different message in the successor, and the dedup that makes the
// injection idempotent would then silently swallow the orphan. GroupIDs
// are never reused and native counters stay far below 2^48, so the tag is
// collision-free (an orphan re-orphaned through a chain of retirements
// keeps only the most recent tag, which stays deterministic because every
// process walks the same chain).
func remapOrphanSeq(retiring GroupID, seq uint64) uint64 {
	return uint64(retiring+1)<<48 | seq&(1<<48-1)
}

// retiredNamespace is the namespace inside the successor's store that a
// retired group's sealed history is archived under.
func retiredNamespace(g GroupID) string {
	return fmt.Sprintf("retired/g%d/", g)
}

// AddGroup splices one fresh ordering group into the live deployment and
// returns its GroupID. Call it on ONE process per scale-out (each call
// mints a new group; reshard operations must be serialized cluster-wide
// by the operator): the caller builds and boots its local member node,
// then announces a JOIN marker in the anchor group, whose agreed delivery
// position fixes the new group's offset in the global round space. Every
// other process splices its own member node in when the marker reaches it
// (or when the floor gossip's topology descriptor does) — no call needed
// there, including processes that were down during the reshard. The call
// returns once the local topology includes the group and the local node
// is up; from that point the default router places ~1/G of the keyspace
// on it.
func (s *Sharded) AddGroup(ctx context.Context) (GroupID, error) {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()

	s.mu.Lock()
	up := s.up
	s.mu.Unlock()
	if !up {
		return 0, fmt.Errorf("abcast: sharded process %v is down", s.cfg.PID)
	}

	// The agreed new GroupID: one past every group ever hosted. Serialized
	// resharding makes this the same number at every process.
	gid := GroupID(s.Groups())
	if sp := s.stream.Topology().Spans; len(sp) > int(gid) {
		for g := range sp {
			if g >= gid {
				gid = g + 1
			}
		}
	}
	s.net.Grow(int(gid) + 1)

	// Build, install and boot the local member node before announcing:
	// the group must be able to order the moment the marker lands.
	s.mu.Lock()
	ns := s.ns.Load()
	if int(gid) >= len(ns.nodes) {
		grown := &nodeSet{nodes: make([]*node.Node, gid+1), stores: make([]Storage, gid+1)}
		copy(grown.nodes, ns.nodes)
		copy(grown.stores, ns.stores)
		ns = grown
	}
	n := ns.nodes[gid]
	if n == nil {
		ns.stores[gid], n = s.buildGroup(gid)
		ns.nodes[gid] = n
		s.ns.Store(ns)
	}
	bootCtx := s.startCtx
	s.mu.Unlock()
	if !n.Up() {
		// Boot under the process's Start context, not the caller's: the
		// node outlives this call, and a caller timeout must not take the
		// freshly minted group's incarnation down with it.
		if err := n.Start(bootCtx); err != nil {
			return gid, fmt.Errorf("abcast: start group %v: %w", gid, err)
		}
	}

	// Announce until the marker (ours or a peer's) lands. A sealed anchor
	// means a retirement raced the join: re-read the topology for the new
	// anchor and announce there.
	for {
		if _, known := s.stream.Topology().Spans[gid]; known {
			break
		}
		anchor, ok := s.stream.Topology().Anchor()
		if !ok {
			return gid, fmt.Errorf("abcast: no active anchor group to order the join")
		}
		_, err := s.BroadcastTo(ctx, anchor, group.EncodeJoinMarker(gid))
		if err == nil || errors.Is(err, ErrSealed) {
			// Delivered locally (the broadcast waits for it) or bounced
			// by a racing seal; either way re-check the topology.
			if _, known := s.stream.Topology().Spans[gid]; known {
				break
			}
			if errors.Is(err, ErrSealed) {
				continue // pick the post-seal anchor
			}
			// Delivered but the topology hook lags the commit by a
			// goroutine handoff: poll it in.
			if err := await(ctx, func() bool { return s.InTopology(gid) }); err != nil {
				return gid, err
			}
			break
		}
		if ctx.Err() != nil {
			return gid, ctx.Err()
		}
		return gid, fmt.Errorf("abcast: announce join of %v: %w", gid, err)
	}
	return gid, nil
}

// await polls until cond holds or ctx ends.
func await(ctx context.Context, cond func() bool) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// RetireGroup drains ordering group g out of the live deployment. Every
// process calls RetireGroup for the same logical scale-in (serialized
// cluster-wide by the operator); each announces the SEAL marker in g
// itself — idempotent, the first one ordered fixes the drain boundary —
// then waits for the group's sequence to seal shut at its final round,
// re-injects the drained group's leftover unordered messages into the
// active groups (identity-remapped, deduplicated, so all processes doing
// the same is idempotent), and archives the group's namespace into the
// anchor group's store under "retired/g<g>/".
//
// The retired node stays alive and quiescent (no proposals, no new
// admissions) until every merge consumer — local and, via the gossiped
// cluster floor, remote — has passed its final round; ReapRetired then
// stops it and purges its namespace. The call is idempotent: crashed mid-
// retirement, call it again. It judges g on a view no older than a
// majority's: a recovered process restores a topology that can be epochs
// behind, so it first waits for floor reports (each brings its sender's
// topology, onPeerFloor) from a majority of the processes since Start.
func (s *Sharded) RetireGroup(ctx context.Context, g GroupID) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()

	if err := s.checkGroup(g); err != nil {
		return err
	}
	if s.nodeAt(g) == nil {
		return fmt.Errorf("abcast: group %v already retired and reaped", g)
	}
	s.mu.Lock()
	since := s.startAt
	s.mu.Unlock()
	if err := await(ctx, func() bool { return 1+s.floors.HeardSince(s.peers, since) > s.cfg.N/2 }); err != nil {
		return err
	}
	topo := s.stream.Topology()
	sp, known := topo.Spans[g]
	if !known {
		return fmt.Errorf("abcast: group %v not in the topology", g)
	}
	if !sp.Sealed {
		if len(topo.Active()) <= 1 {
			return fmt.Errorf("abcast: cannot retire the last active group %v", g)
		}
		if _, err := s.BroadcastTo(ctx, g, group.EncodeSealMarker(s.drainWindow())); err != nil && !errors.Is(err, ErrSealed) {
			// ErrSealed is success: a peer's marker won the race (or the
			// drain cut our waiter) — the group IS sealed.
			return fmt.Errorf("abcast: announce seal of %v: %w", g, err)
		}
	}

	// Wait for the drain through the stream, not the protocol: the stream
	// outlives incarnations, so the wait survives crash/recovery of the
	// group under it.
	start := time.Now()
	if err := await(ctx, func() bool { return s.stream.Drained(g) }); err != nil {
		return err
	}
	drainNS := time.Since(start).Nanoseconds()

	// The stream runs its topology hook after it unlocks, so Drained can
	// turn true before the hook has swapped the router: run the hook here
	// too (it is idempotent per epoch), so the router and Epoch show the
	// seal once RetireGroup returns.
	topo = s.stream.Topology()
	s.onTopology(topo)
	sp = topo.Spans[g]
	p := s.protoAt(g)
	if p == nil {
		return fmt.Errorf("abcast: group %v is down; recover and retry", g)
	}

	// Orphans: admitted before the seal, never ordered by the drain
	// rounds. Every process re-injects its leftovers into the active
	// groups — identity-remapped so the successor's dedup distinguishes
	// them from its native messages, routed deterministically so every
	// process picks the same successor. Marker payloads never cross
	// groups (a re-injected SEAL would seal the successor).
	orphans := 0
	for _, m := range p.TakeOrphans() {
		if group.IsMarker(m.Payload) {
			continue
		}
		succ := s.orphanSuccessor(topo, m.Payload)
		spProto := s.protoAt(succ)
		if spProto == nil {
			return fmt.Errorf("abcast: successor group %v is down; recover and retry", succ)
		}
		m.ID.Seq = remapOrphanSeq(g, m.ID.Seq)
		if spProto.Inject(m) {
			orphans++
		}
	}
	s.rm.addOrphans(int64(orphans))
	s.flight().Event(obs.EvReshardDrain, g, sp.Final+1, int64(orphans), drainNS, "")

	// Archive the sealed namespace into the anchor's store: on a shared
	// WAL engine the export enumerates exactly the live index, reads each
	// value back from its record, and lands as ordinary writes the next
	// commit group fsyncs.
	anchor, ok := topo.Anchor()
	if !ok {
		return fmt.Errorf("abcast: no active group to archive %v into", g)
	}
	ns := s.ns.Load()
	src, dst := ns.stores[g], ns.stores[anchor]
	if src != nil && dst != nil {
		keys, bytes, err := storage.ExportNamespace(src, storage.NewPrefixed(dst, retiredNamespace(g)))
		if err != nil {
			return fmt.Errorf("abcast: archive group %v: %w", g, err)
		}
		s.rm.addMigrated(int64(keys), bytes)
		s.flight().Event(obs.EvReshardMigrate, g, 0, int64(keys), bytes, "")
	}

	s.rm.addDrain(drainNS)
	s.reapLocked() // usually too early (consumers lag), but free to try
	return nil
}

// orphanSuccessor picks the active group an orphan payload is re-injected
// into: the live router's placement when it lands on an active group, the
// anchor otherwise. Both are pure functions of (payload, topology), so
// every process picks the same successor.
func (s *Sharded) orphanSuccessor(topo *group.Topology, payload []byte) GroupID {
	g := s.router.Load().r.Route(payload)
	if sp, ok := topo.Spans[g]; ok && !sp.Sealed {
		return g
	}
	if anchor, ok := topo.Anchor(); ok {
		return anchor
	}
	return g
}

// ReapRetired stops and purges retired groups whose sealed history no
// consumer can still need: the group is drained, the local merge base
// (checkpoint folds) has passed its final round, and the gossiped
// cluster-wide floor says every fresh peer's merge has too. It returns how
// many groups were reaped. CheckpointNow calls it opportunistically; call
// it directly to reclaim eagerly.
func (s *Sharded) ReapRetired() int {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	return s.reapLocked()
}

func (s *Sharded) reapLocked() int {
	topo := s.stream.Topology()
	seqs, err := s.sequences()
	if err != nil {
		return 0 // some group down: cannot assess the merge base
	}
	base := group.MergeBaseT(seqs, topo)
	floor := s.floors.ClusterFloor(s.peers)
	reaped := 0
	for g, sp := range topo.Spans {
		if !sp.Sealed || s.nodeAt(g) == nil || !s.stream.Drained(g) {
			continue
		}
		final := sp.Offset + sp.Final
		if base < final+1 || floor < final+1 {
			continue
		}
		s.mu.Lock()
		ns := s.ns.Load()
		n, st := ns.nodes[g], ns.stores[g]
		next := &nodeSet{nodes: make([]*node.Node, len(ns.nodes)), stores: make([]Storage, len(ns.stores))}
		copy(next.nodes, ns.nodes)
		copy(next.stores, ns.stores)
		next.nodes[g], next.stores[g] = nil, nil
		s.ns.Store(next)
		s.reaped[g] = true
		gs := make([]GroupID, 0, len(s.reaped))
		for rg := range s.reaped {
			gs = append(gs, rg)
		}
		s.mu.Unlock()
		if err := s.shared.Put(keyReaped, encodeReaped(gs)); err != nil {
			s.flight().Event(obs.EvViolation, g, 0, 0, 0, "persist reaped set: "+err.Error())
		}
		n.Crash()
		if _, err := storage.PurgeNamespace(st); err != nil {
			s.flight().Event(obs.EvViolation, g, 0, 0, 0, "purge namespace: "+err.Error())
		}
		reaped++
	}
	return reaped
}

// addDrain/addOrphans/addMigrated are nil-safe metric helpers.
func (m *reshardMetrics) addDrain(ns int64) {
	if m.drainNS != nil {
		m.drainNS.Add(uint64(ns))
	}
}

func (m *reshardMetrics) addOrphans(n int64) {
	if m.orphans != nil {
		m.orphans.Add(uint64(n))
	}
}

func (m *reshardMetrics) addMigrated(keys, bytes int64) {
	if m.migratedKeys != nil {
		m.migratedKeys.Add(uint64(keys))
		m.migratedBytes.Add(uint64(bytes))
	}
}
