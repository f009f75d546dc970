package group

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tagLen is the per-frame tag: a little-endian u16. 2 bytes of overhead
// buys maxGroups groups per connection set plus the reserved lanes below.
const tagLen = 2

// Reserved frame tags above the group range.
const (
	// procTag marks the process-level lane: one virtual network shared by
	// process-scoped services (the shared failure detector) rather than by
	// one ordering group. It is refcounted with the group endpoints, so a
	// whole-process crash closes it like any group endpoint.
	procTag uint16 = 0xFFFF
	// coalTag marks a coalesced frame: a batch of length-delimited tagged
	// frames packed into one transport write by the write-coalescing mux.
	coalTag uint16 = 0xFFFE
)

// maxGroups is the highest usable group count: group tags stay below
// 0xFFFD, clear of the reserved lanes.
const maxGroups = 0xFFFD

// MuxOptions tunes the mux's write-coalescing pipeline — the network twin
// of the storage engine's group-commit triggers (SyncEvery/MaxSyncDelay)
// and the proposal batching triggers (MaxBatchBytes/MaxBatchDelay): small
// frames submitted concurrently by different groups of one process are
// packed into one length-delimited transport write.
type MuxOptions struct {
	// FlushDelay enables coalescing when positive: a queued frame waits at
	// most this long before its batch is written out. Zero disables
	// coalescing (every frame is its own transport write).
	FlushDelay time.Duration
	// FlushBytes flushes a destination's queue as soon as it holds this
	// many bytes (default 16KiB when coalescing is enabled). It must stay
	// well under transport.MaxFrame.
	FlushBytes int
}

func (o *MuxOptions) fill() {
	if o.FlushDelay > 0 && o.FlushBytes <= 0 {
		o.FlushBytes = 16 << 10
	}
}

// enabled reports whether the options turn coalescing on.
func (o MuxOptions) enabled() bool { return o.FlushDelay > 0 }

// MuxStats counts multiplexer-level events (observability and tests).
type MuxStats struct {
	Tagged           int64 // frames sent through a virtual endpoint
	Demuxed          int64 // frames delivered to a virtual endpoint
	DroppedMalformed int64 // frames too short to carry a group tag
	DroppedUnknown   int64 // tag outside [0, Groups) and not a reserved lane
	DroppedDetached  int64 // owning group down (its endpoint detached)
	DroppedOverrun   int64 // virtual inbox full
	CoalescedWrites  int64 // transport writes that carried >= 2 frames
	CoalescedFrames  int64 // frames that rode a coalesced write
}

// Mux multiplexes one transport.Network among G ordering groups: Net(g)
// is a virtual Network for group g whose endpoints tag every outgoing
// frame with g and receive exactly the frames tagged g. All groups of one
// process share one real endpoint — one listener and one connection per
// peer on TCP, one inbox on Mem — attached when the process's first group
// attaches and closed when its last group detaches. ProcNet is one more
// virtual lane of the same endpoint for process-scoped services (the
// shared failure detector).
//
// Crash semantics are preserved per group: frames addressed to a detached
// group are dropped (§2.1 — messages that arrive while the process is
// down are lost), even while other groups of the same process are up.
//
// With coalescing enabled (NewMuxOpts), small frames submitted by any of
// the process's groups within FlushDelay of each other are packed into one
// length-delimited transport write — G groups' gossip, heartbeats and
// ballot messages cost one syscall-sized write instead of G.
//
// The Mux is shared by the whole cluster, exactly like the Network it
// wraps.
type Mux struct {
	inner  transport.Network
	groups atomic.Int32 // raised by Grow during live scale-out
	opts   MuxOptions

	mu    sync.Mutex
	procs map[ids.ProcessID]*procMux

	tagged, demuxed, malformed, unknown, detached, overrun atomic.Int64
	coalWrites, coalFrames                                 atomic.Int64
}

// NewMux wraps inner for groups ordering groups, without write coalescing.
func NewMux(inner transport.Network, groups int) *Mux {
	return NewMuxOpts(inner, groups, MuxOptions{})
}

// NewMuxOpts wraps inner for groups ordering groups with the given
// coalescing policy.
func NewMuxOpts(inner transport.Network, groups int, opts MuxOptions) *Mux {
	if groups < 1 {
		groups = 1
	}
	if groups > maxGroups {
		groups = maxGroups
	}
	opts.fill()
	m := &Mux{
		inner: inner,
		opts:  opts,
		procs: make(map[ids.ProcessID]*procMux),
	}
	m.groups.Store(int32(groups))
	return m
}

// Groups returns the number of ordering groups the mux serves.
func (m *Mux) Groups() int { return int(m.groups.Load()) }

// Grow raises the number of group lanes the mux serves to at least groups
// — the live scale-out path. Existing lanes, attachments and in-flight
// frames are untouched; frames tagged with a lane at or above the current
// count stop being dropped as unknown the moment Grow returns. Shrinking
// is not supported: a retired group's lane simply goes quiet once its
// nodes detach.
func (m *Mux) Grow(groups int) {
	if groups > maxGroups {
		groups = maxGroups
	}
	for {
		cur := m.groups.Load()
		if int32(groups) <= cur {
			return
		}
		if m.groups.CompareAndSwap(cur, int32(groups)) {
			return
		}
	}
}

// Inner returns the wrapped network.
func (m *Mux) Inner() transport.Network { return m.inner }

// SetObs exports the multiplexer counters as read-on-scrape metrics under
// "abcast.mux.<name>". The mux is cluster-wide, so wire it to one plane
// (conventionally process 0's). Nil is a no-op.
func (m *Mux) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	reg := p.Reg()
	reg.Func("abcast.mux.tagged", m.tagged.Load)
	reg.Func("abcast.mux.demuxed", m.demuxed.Load)
	reg.Func("abcast.mux.dropped_malformed", m.malformed.Load)
	reg.Func("abcast.mux.dropped_unknown", m.unknown.Load)
	reg.Func("abcast.mux.dropped_detached", m.detached.Load)
	reg.Func("abcast.mux.dropped_overrun", m.overrun.Load)
	reg.Func("abcast.mux.coalesced_writes", m.coalWrites.Load)
	reg.Func("abcast.mux.coalesced_frames", m.coalFrames.Load)
}

// Stats returns a snapshot of the multiplexer counters.
func (m *Mux) Stats() MuxStats {
	return MuxStats{
		Tagged:           m.tagged.Load(),
		Demuxed:          m.demuxed.Load(),
		DroppedMalformed: m.malformed.Load(),
		DroppedUnknown:   m.unknown.Load(),
		DroppedDetached:  m.detached.Load(),
		DroppedOverrun:   m.overrun.Load(),
		CoalescedWrites:  m.coalWrites.Load(),
		CoalescedFrames:  m.coalFrames.Load(),
	}
}

// Net returns the virtual Network of group g. Each group's node attaches
// to its own virtual network exactly as an unsharded node attaches to the
// real one.
func (m *Mux) Net(g ids.GroupID) transport.Network {
	return groupNet{m: m, g: g}
}

type groupNet struct {
	m *Mux
	g ids.GroupID
}

var _ transport.Network = groupNet{}

func (n groupNet) N() int { return n.m.inner.N() }

func (n groupNet) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	if n.g < 0 || int(n.g) >= n.m.Groups() {
		return nil, fmt.Errorf("group: gid %v out of range [0,%d)", n.g, n.m.Groups())
	}
	return n.m.attach(uint16(n.g), pid)
}

// ProcNet returns the process-level virtual Network: the lane shared by
// process-scoped services of a sharded process (one shared failure
// detector instead of one per group). It shares the real endpoint with the
// group lanes — attaching it does not open new connections, and a
// whole-process crash (all lanes closed) drops its frames exactly like a
// group's.
func (m *Mux) ProcNet() transport.Network { return procNet{m: m} }

type procNet struct{ m *Mux }

var _ transport.Network = procNet{}

func (n procNet) N() int { return n.m.inner.N() }

func (n procNet) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	return n.m.attach(procTag, pid)
}

// procMux is one process's shared real endpoint plus the registry of its
// live virtual endpoints, keyed by frame tag (group id or the proc lane).
type procMux struct {
	m   *Mux
	pid ids.ProcessID
	ep  transport.Endpoint

	mu   sync.Mutex
	veps map[uint16]*muxEndpoint

	coal *coalescer // nil when coalescing is disabled
}

func (m *Mux) attach(tag uint16, pid ids.ProcessID) (transport.Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pm := m.procs[pid]
	if pm == nil {
		ep, err := m.inner.Attach(pid)
		if err != nil {
			return nil, err
		}
		pm = &procMux{m: m, pid: pid, ep: ep, veps: make(map[uint16]*muxEndpoint)}
		if m.opts.enabled() {
			pm.coal = newCoalescer(pm, m.opts)
		}
		m.procs[pid] = pm
		go pm.recvLoop()
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.veps[tag] != nil {
		return nil, fmt.Errorf("%w: %v lane %#x", transport.ErrDetached, pid, tag)
	}
	vep := &muxEndpoint{
		pm:    pm,
		tag:   tag,
		inbox: make(chan transport.Packet, 4096),
		done:  make(chan struct{}),
	}
	pm.veps[tag] = vep
	return vep, nil
}

// recvLoop demultiplexes the real endpoint's packets to the owning lane's
// virtual inbox, unpacking coalesced frames. It exits when the real
// endpoint closes (last lane detached, or the inner network shut down).
func (pm *procMux) recvLoop() {
	for {
		pkt, err := pm.ep.Recv(context.Background())
		if err != nil {
			return
		}
		if len(pkt.Data) < tagLen {
			pm.m.malformed.Add(1)
			continue
		}
		tag := binary.LittleEndian.Uint16(pkt.Data)
		if tag == coalTag {
			pm.splitCoalesced(pkt.From, pkt.Data[tagLen:])
			continue
		}
		pm.dispatch(pkt.From, tag, pkt.Data[tagLen:])
	}
}

// splitCoalesced unpacks a batched write: a sequence of uvarint-length-
// prefixed tagged frames. Nested coalescing is rejected as malformed.
func (pm *procMux) splitCoalesced(from ids.ProcessID, rest []byte) {
	for len(rest) > 0 {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			pm.m.malformed.Add(1)
			return
		}
		frame := rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
		if len(frame) < tagLen {
			pm.m.malformed.Add(1)
			continue
		}
		tag := binary.LittleEndian.Uint16(frame)
		if tag == coalTag {
			pm.m.malformed.Add(1)
			continue
		}
		pm.dispatch(from, tag, frame[tagLen:])
	}
}

// dispatch routes one demultiplexed frame to its lane's inbox.
func (pm *procMux) dispatch(from ids.ProcessID, tag uint16, payload []byte) {
	if tag != procTag && int(tag) >= pm.m.Groups() {
		pm.m.unknown.Add(1)
		return
	}
	pm.mu.Lock()
	vep := pm.veps[tag]
	pm.mu.Unlock()
	if vep == nil {
		// The lane is down at this process: its packets are lost,
		// exactly as §2.1 prescribes for a down process.
		pm.m.detached.Add(1)
		return
	}
	select {
	case vep.inbox <- transport.Packet{From: from, Data: payload}:
		pm.m.demuxed.Add(1)
	default:
		pm.m.overrun.Add(1) // buffer overrun; fair-lossy permits it
	}
}

// tagged prepends a lane tag to data in pooled scratch; the caller releases
// it once the inner endpoint's send, which borrows it, has returned.
func tagged(tag uint16, data []byte) *wire.Writer {
	w := wire.GetWriter(tagLen + len(data))
	appendTag(w, tag)
	w.Raw(data)
	return w
}

func appendTag(w *wire.Writer, tag uint16) {
	w.U8(uint8(tag))
	w.U8(uint8(tag >> 8))
}

// send transmits data on lane tag to one process, through the coalescer
// when enabled. data is borrowed for the call on either path.
func (pm *procMux) send(to ids.ProcessID, tag uint16, data []byte) {
	if pm.coal != nil {
		pm.coal.submit(to, tag, data)
		return
	}
	w := tagged(tag, data)
	pm.ep.Send(to, w.Bytes())
	wire.PutWriter(w)
}

// multisend transmits data on lane tag to every process, through the
// coalescer when enabled.
func (pm *procMux) multisend(tag uint16, data []byte) {
	if pm.coal != nil {
		pm.coal.submit(ids.Nobody, tag, data)
		return
	}
	w := tagged(tag, data)
	pm.ep.Multisend(w.Bytes())
	wire.PutWriter(w)
}

// detach removes the lane's virtual endpoint; when it was the last one the
// shared real endpoint closes too (and the recvLoop exits). The real close
// completes before detach returns, so a full process crash (all lanes
// closed) leaves the pid immediately re-attachable.
func (pm *procMux) detach(tag uint16, vep *muxEndpoint) {
	m := pm.m
	m.mu.Lock()
	pm.mu.Lock()
	if pm.veps[tag] != vep {
		pm.mu.Unlock()
		m.mu.Unlock()
		return
	}
	delete(pm.veps, tag)
	last := len(pm.veps) == 0
	if last && m.procs[pm.pid] == pm {
		delete(m.procs, pm.pid)
	}
	pm.mu.Unlock()
	if last {
		// Holding m.mu serializes the real close against a concurrent
		// re-attach of the same pid (the close path never takes m.mu
		// again, so this cannot deadlock). Pending coalesced frames are
		// dropped — a crash loses in-flight traffic, as §2.1 permits.
		if pm.coal != nil {
			pm.coal.close()
		}
		pm.ep.Close()
	}
	m.mu.Unlock()
}

// muxEndpoint is one lane's virtual endpoint at one process: Send/Multisend
// tag frames, Recv reads the demultiplexed inbox.
type muxEndpoint struct {
	pm    *procMux
	tag   uint16
	inbox chan transport.Packet
	done  chan struct{}

	closeOnce sync.Once
}

var _ transport.Endpoint = (*muxEndpoint)(nil)

func (e *muxEndpoint) Local() ids.ProcessID { return e.pm.pid }

func (e *muxEndpoint) Send(to ids.ProcessID, data []byte) {
	if transport.ToSelf(e.pm.pid, to) {
		return
	}
	select {
	case <-e.done:
		return // closed endpoints transmit nothing
	default:
	}
	e.pm.m.tagged.Add(1)
	e.pm.send(to, e.tag, data)
}

func (e *muxEndpoint) Multisend(data []byte) {
	select {
	case <-e.done:
		return
	default:
	}
	e.pm.m.tagged.Add(1)
	e.pm.multisend(e.tag, data)
}

func (e *muxEndpoint) Recv(ctx context.Context) (transport.Packet, error) {
	select {
	case pkt := <-e.inbox:
		return pkt, nil
	case <-e.done:
		return transport.Packet{}, transport.ErrClosed
	case <-ctx.Done():
		return transport.Packet{}, ctx.Err()
	}
}

func (e *muxEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.pm.detach(e.tag, e)
	})
	return nil
}

// coalescer packs the frames all lanes of one process submit within a
// FlushDelay window into single transport writes: one per-destination queue
// for unicast frames, one queue for multisends. A queue flushes as soon as
// it holds FlushBytes (size trigger) or when the shared timer fires (delay
// trigger) — the same two-trigger shape as proposal batching and the WAL's
// group commit. Frames inside one coalesced write keep their submission
// order, but writes themselves may reorder (a size-trigger flush can
// overtake a timer flush already past the lock, and unicast/multisend
// queues are independent) — reordering the fair-lossy transport contract
// already permits and every protocol layer tolerates. Do not build
// anything on cross-write FIFO here.
type coalescer struct {
	pm   *procMux
	opts MuxOptions

	mu         sync.Mutex
	uni        map[ids.ProcessID]*sendQueue
	multi      sendQueue
	timerArmed bool
	closed     bool
}

// sendQueue is one destination's coalesced frame under construction, in a
// pooled writer: [coalTag] then, per queued frame, [uvarint len][tag][data].
// Frames are copied in as they are submitted (the submitter's buffer is only
// borrowed), so a flush is one send of the writer and its release.
type sendQueue struct {
	w      *wire.Writer // nil while empty
	frames int
	first  int // offset of the first frame's tag: a lone frame goes out bare
}

func (q *sendQueue) take() sendQueue {
	out := *q
	*q = sendQueue{}
	return out
}

func newCoalescer(pm *procMux, opts MuxOptions) *coalescer {
	return &coalescer{pm: pm, opts: opts, uni: make(map[ids.ProcessID]*sendQueue)}
}

// submit queues data, tagged, for to (ids.Nobody = multisend) and applies
// the flush triggers.
func (c *coalescer) submit(to ids.ProcessID, tag uint16, data []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	q := &c.multi
	if to != ids.Nobody {
		q = c.uni[to]
		if q == nil {
			q = &sendQueue{}
			c.uni[to] = q
		}
	}
	if q.w == nil {
		q.w = wire.GetWriter(c.opts.FlushBytes)
		appendTag(q.w, coalTag)
	}
	q.w.U64(uint64(tagLen + len(data)))
	if q.frames == 0 {
		q.first = q.w.Len()
	}
	appendTag(q.w, tag)
	q.w.Raw(data)
	q.frames++
	if q.w.Len() >= c.opts.FlushBytes {
		batch := q.take()
		c.mu.Unlock()
		c.write(to, batch)
		return
	}
	if !c.timerArmed {
		c.timerArmed = true
		time.AfterFunc(c.opts.FlushDelay, c.onTimer)
	}
	c.mu.Unlock()
}

// onTimer flushes every queue when the delay trigger fires.
func (c *coalescer) onTimer() {
	type flush struct {
		to    ids.ProcessID
		batch sendQueue
	}
	var out []flush
	c.mu.Lock()
	c.timerArmed = false
	if c.closed {
		c.mu.Unlock()
		return
	}
	for to, q := range c.uni {
		if q.frames > 0 {
			out = append(out, flush{to, q.take()})
		}
	}
	if c.multi.frames > 0 {
		out = append(out, flush{ids.Nobody, c.multi.take()})
	}
	c.mu.Unlock()
	for _, f := range out {
		c.write(f.to, f.batch)
	}
}

// write performs one transport write for the batch and releases its
// buffer: a lone frame goes out as-is, several as one coalesced frame.
func (c *coalescer) write(to ids.ProcessID, batch sendQueue) {
	out := batch.w.Bytes()
	if batch.frames == 1 {
		out = out[batch.first:]
	} else {
		c.pm.m.coalWrites.Add(1)
		c.pm.m.coalFrames.Add(int64(batch.frames))
	}
	if to == ids.Nobody {
		c.pm.ep.Multisend(out)
	} else {
		c.pm.ep.Send(to, out)
	}
	wire.PutWriter(batch.w)
}

// close drops all pending frames; further submissions are ignored.
func (c *coalescer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.uni = make(map[ids.ProcessID]*sendQueue)
	c.multi = sendQueue{}
}
