package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// MaxFrame caps one frame's payload; a peer announcing a larger frame is
// treated as corrupt or hostile and its connection is dropped (the length
// prefix would otherwise let one bad frame command an arbitrary
// allocation).
const MaxFrame = 64 << 20

// readBufSize is the per-connection read buffer: room for a few hundred
// ballot-sized frames per read syscall.
const readBufSize = 16 << 10

// maxPooledFrame caps the buffers the frame pool retains: anything larger
// is allocated (and freed) directly, so a burst of 1MiB payloads cannot
// pin megabytes of idle pool memory forever.
const maxPooledFrame = 256 << 10

// framePool recycles the write path's frame buffers: Send and Multisend
// assemble header + payload in one, write it, and return it before they
// return — the borrower provably finishes inside the call. Received frames
// never come from here (see readLoop). Stored as *[]byte to avoid the
// allocation of boxing a slice header per Put.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// getFrame returns a pooled buffer of length n (contents undefined).
func getFrame(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putFrame recycles a buffer obtained from getFrame. Oversized buffers are
// dropped for the GC instead of retained.
func putFrame(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	wire.Poison(*bp)
	framePool.Put(bp)
}

// The reconnect policy (see TCP).
const (
	dialTimeout  = 500 * time.Millisecond
	writeTimeout = time.Second
	minBackoff   = time.Millisecond
	maxBackoff   = 50 * time.Millisecond
	maxPending   = 32
)

// dialTCP opens one outbound connection. Tests replace it with a dialer
// that blocks, refuses or counts.
var dialTCP = func(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// TCP is a socket-based Network for real deployments: every process listens
// on one address and keeps one outbound connection to each peer, so each
// direction between two processes has its own connection. Delivery is
// best-effort — a frame the network cannot take at once is dropped, which is
// all the fair-lossy contract requires (the protocol's gossip retransmits
// forever).
//
// Reconnecting never blocks a sender. A Send or Multisend to a peer with no
// connection starts one dial goroutine for it; frames sent while that dial
// is in flight wait for it (a few dozen per peer at most) and are written
// once it connects. Until a peer has been connected once, it may simply not
// listen yet: a failed dial keeps the frames queued and the dial goroutine
// retries, 1 ms later doubling up to 50 ms. Once a peer has been connected,
// a failed dial drops the queued frames and backs the peer off on the same
// schedule, and frames to a peer in backoff are dropped at once, with no
// syscall and no allocation. An endpoint dials every peer as it attaches,
// and every accepted connection redials each peer it has no connection to
// (or wakes its retry): a process that comes back connects to its peers at
// once, and they to it, without waiting out a backoff or for either side's
// next frame. A write error drops the connection; the next frame dials
// again.
//
// The one place a sender still blocks is the write itself: a write to a
// connected peer whose socket buffer is full waits up to a 1 s write
// deadline before the connection is dropped.
//
// Frames are length-prefixed: [sender i32][len u32][payload].
type TCP struct {
	addrs []string // index = ProcessID

	mu  sync.Mutex
	eps map[ids.ProcessID]*tcpEndpoint
}

var _ Network = (*TCP)(nil)

// NewTCP creates a TCP network where process i listens on addrs[i].
func NewTCP(addrs []string) *TCP {
	cp := make([]string, len(addrs))
	copy(cp, addrs)
	return &TCP{addrs: cp, eps: make(map[ids.ProcessID]*tcpEndpoint)}
}

// N implements Network.
func (t *TCP) N() int { return len(t.addrs) }

// Attach implements Network. It binds pid's listener.
func (t *TCP) Attach(pid ids.ProcessID) (Endpoint, error) {
	if pid < 0 || int(pid) >= len(t.addrs) {
		return nil, fmt.Errorf("transport: pid %v out of range", pid)
	}
	t.mu.Lock()
	if _, live := t.eps[pid]; live {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrDetached, pid)
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", t.addrs[pid])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", t.addrs[pid], err)
	}
	ep := &tcpEndpoint{
		net:      t,
		pid:      pid,
		ln:       ln,
		inbox:    make(chan Packet, 4096),
		done:     make(chan struct{}),
		links:    make([]link, len(t.addrs)),
		inbound:  make(map[net.Conn]struct{}),
		accepted: make(chan struct{}),
	}
	ep.dialCtx, ep.cancelDials = context.WithCancel(context.Background())
	t.mu.Lock()
	t.eps[pid] = ep
	t.mu.Unlock()
	ep.wg.Add(1)
	go ep.acceptLoop()
	ep.dialIdle()
	return ep, nil
}

// Addr returns the listen address of pid (useful when using ":0" ports is
// not possible; addresses are fixed up front).
func (t *TCP) Addr(pid ids.ProcessID) string { return t.addrs[pid] }

func (t *TCP) detach(pid ids.ProcessID, ep *tcpEndpoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.eps[pid] == ep {
		delete(t.eps, pid)
	}
}

type tcpEndpoint struct {
	net   *TCP
	pid   ids.ProcessID
	ln    net.Listener
	inbox chan Packet
	done  chan struct{}

	dialCtx     context.Context // cancelled by Close: aborts dials in flight
	cancelDials context.CancelFunc

	mu      sync.Mutex
	links   []link // index = peer ProcessID
	inbound map[net.Conn]struct{}
	// accepted is closed, and replaced, at each accepted connection: it
	// cuts short the retry waits of the dials to peers never connected.
	accepted chan struct{}

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// link is the endpoint's outbound state for one peer, guarded by
// tcpEndpoint.mu.
type link struct {
	conn net.Conn // nil while there is no connection
	// dialing: a dial goroutine owns the link, from the dial until it has
	// written every frame queued in pending; senders queue behind it.
	dialing bool
	pending []*[]byte     // pooled frames waiting for the dial, at most maxPending
	retryAt time.Time     // no dial before this
	backoff time.Duration // the last failed dial's backoff, 0 after a success
	// hadConn: the peer has been connected. Before that a failed dial
	// retries with its frames queued; after, it backs the peer off.
	hadConn bool
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) Local() ids.ProcessID { return e.pid }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.readLoop(conn)
		// Some peer has just come up, and which one only its first frame
		// would tell: redial them all.
		e.dialIdle()
	}
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	e.mu.Lock()
	e.inbound[conn] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	// One buffered reader per connection: headers and small frames come
	// out of its buffer (many per read syscall), a frame larger than the
	// buffer is read straight into its destination.
	br := bufio.NewReaderSize(conn, readBufSize)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		from := ids.ProcessID(int32(binary.LittleEndian.Uint32(hdr[0:4])))
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxFrame {
			return // oversized frame; drop connection
		}
		// A received frame is immutable and owned by the collector from
		// here on (the Endpoint contract): consumers alias it freely, so
		// it is an exact-size allocation and never a pooled buffer.
		data := make([]byte, n)
		if _, err := io.ReadFull(br, data); err != nil {
			return
		}
		select {
		case e.inbox <- Packet{From: from, Data: data}:
		case <-e.done:
			return
		default:
			// Inbox full: drop. Fair-lossy permits it.
		}
	}
}

// dialIdle starts a dial to every peer with neither a connection nor a
// dial in flight, backoff or not, and ends the retry waits of the dials in
// flight.
func (e *tcpEndpoint) dialIdle() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if closed(e.done) {
		return
	}
	close(e.accepted)
	e.accepted = make(chan struct{})
	for to := range ids.ProcessID(len(e.links)) {
		if l := &e.links[to]; to != e.pid && l.conn == nil && !l.dialing {
			e.dialLocked(to)
		}
	}
}

// dialLocked starts the dial goroutine of peer to. e.mu held, endpoint
// open (no wg.Add once Close may be waiting).
func (e *tcpEndpoint) dialLocked(to ids.ProcessID) {
	e.links[to].dialing = true
	e.wg.Add(1)
	go e.dial(to)
}

// route decides what becomes of a frame of data for peer to. It returns
// the connection to write it on; or nil when the frame has been queued
// for a dial in flight or retrying (a pooled copy), or dropped: the
// endpoint is closed, the peer is in backoff or its queue is full. A peer
// with neither a connection nor a backoff gets its dial goroutine here.
func (e *tcpEndpoint) route(to ids.ProcessID, data []byte) net.Conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if closed(e.done) {
		return nil
	}
	l := &e.links[to]
	if !l.dialing {
		if l.conn != nil {
			return l.conn
		}
		if time.Now().Before(l.retryAt) {
			return nil
		}
		e.dialLocked(to)
	}
	if len(l.pending) < maxPending {
		l.pending = append(l.pending, e.buildFrame(data))
	}
	return nil
}

// dial connects to peer to and writes the frames queued meanwhile, in
// order, before senders may write on the connection. If it fails and the
// peer has never been connected, it retries while frames are queued;
// otherwise it drops them, and backs the peer off if it had been
// connected.
func (e *tcpEndpoint) dial(to ids.ProcessID) {
	defer e.wg.Done()
	var wait time.Duration
	c, err := dialTCP(e.dialCtx, e.net.addrs[to])
	e.mu.Lock()
	l := &e.links[to]
	for err != nil && !l.hadConn && len(l.pending) > 0 && !closed(e.done) {
		wait = min(max(2*wait, minBackoff), maxBackoff)
		woken := e.accepted
		e.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-woken:
		case <-e.dialCtx.Done():
		}
		t.Stop()
		c, err = dialTCP(e.dialCtx, e.net.addrs[to])
		e.mu.Lock()
	}
	switch {
	case err != nil:
		if l.hadConn {
			l.backoff = min(max(2*l.backoff, minBackoff), maxBackoff)
			l.retryAt = time.Now().Add(l.backoff)
		}
	case closed(e.done):
		c.Close()
	default:
		l.conn, l.backoff, l.hadConn = c, 0, true
		for len(l.pending) > 0 {
			var batch [maxPending]*[]byte
			n := copy(batch[:], l.pending)
			clear(l.pending)
			l.pending = l.pending[:0]
			e.mu.Unlock()
			ok := true
			for _, bp := range batch[:n] {
				ok = ok && write(c, *bp)
				putFrame(bp)
			}
			e.mu.Lock()
			if !ok {
				if l.conn == c {
					l.conn = nil
				}
				c.Close()
				break
			}
		}
	}
	for _, bp := range l.pending {
		putFrame(bp)
	}
	clear(l.pending)
	l.pending = l.pending[:0]
	l.dialing = false
	e.mu.Unlock()
}

// write puts one frame on c, reporting whether the connection still works.
func write(c net.Conn, frame []byte) bool {
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.Write(frame)
	return err == nil
}

// writeTo writes one frame to peer to on its connection c, and drops the
// connection if the write fails: the next frame dials again.
func (e *tcpEndpoint) writeTo(to ids.ProcessID, c net.Conn, frame []byte) {
	if write(c, frame) {
		return
	}
	e.mu.Lock()
	if e.links[to].conn == c {
		e.links[to].conn = nil
	}
	e.mu.Unlock()
	c.Close()
}

func (e *tcpEndpoint) Send(to ids.ProcessID, data []byte) {
	if to < 0 || int(to) >= len(e.links) || ToSelf(e.pid, to) {
		return
	}
	c := e.route(to, data)
	if c == nil {
		return
	}
	bp := e.buildFrame(data)
	e.writeTo(to, c, *bp)
	putFrame(bp)
}

// buildFrame assembles one length-prefixed wire frame in a pooled buffer;
// the caller returns it with putFrame after the write(s).
func (e *tcpEndpoint) buildFrame(data []byte) *[]byte {
	bp := getFrame(8 + len(data))
	frame := *bp
	binary.LittleEndian.PutUint32(frame[0:4], uint32(int32(e.pid)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(data)))
	copy(frame[8:], data)
	return bp
}

// Multisend writes one frame assembly to every other connected process
// (and queues a copy for each peer whose dial is in flight).
func (e *tcpEndpoint) Multisend(data []byte) {
	var bp *[]byte
	for to := range ids.ProcessID(len(e.links)) {
		if to == e.pid {
			continue
		}
		c := e.route(to, data)
		if c == nil {
			continue
		}
		if bp == nil {
			bp = e.buildFrame(data)
		}
		e.writeTo(to, c, *bp)
	}
	if bp != nil {
		putFrame(bp)
	}
}

func (e *tcpEndpoint) Recv(ctx context.Context) (Packet, error) {
	select {
	case pkt := <-e.inbox:
		return pkt, nil
	case <-e.done:
		return Packet{}, ErrClosed
	case <-ctx.Done():
		return Packet{}, ctx.Err()
	}
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.cancelDials()
		e.ln.Close()
		e.mu.Lock()
		for i := range e.links {
			if c := e.links[i].conn; c != nil {
				c.Close() // a dial goroutine writing on it gives up
				e.links[i].conn = nil
			}
		}
		for c := range e.inbound {
			c.Close() // unblocks the readLoop goroutines
		}
		e.mu.Unlock()
		e.net.detach(e.pid, e)
		e.wg.Wait()
	})
	return nil
}
