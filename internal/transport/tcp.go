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

// TCP is a socket-based Network for real deployments: every process listens
// on one address and dials peers on demand. Delivery is best-effort — a
// failed dial or write simply drops the packet, which is all the fair-lossy
// contract requires (the protocol's gossip retransmits forever).
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
		net:     t,
		pid:     pid,
		ln:      ln,
		inbox:   make(chan Packet, 4096),
		done:    make(chan struct{}),
		conns:   make(map[ids.ProcessID]net.Conn),
		inbound: make(map[net.Conn]struct{}),
	}
	t.mu.Lock()
	t.eps[pid] = ep
	t.mu.Unlock()
	ep.wg.Add(1)
	go ep.acceptLoop()
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

	mu      sync.Mutex
	conns   map[ids.ProcessID]net.Conn
	inbound map[net.Conn]struct{}

	closeOnce sync.Once
	wg        sync.WaitGroup
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

// conn returns a cached or fresh connection to pid, or nil.
func (e *tcpEndpoint) conn(to ids.ProcessID) net.Conn {
	e.mu.Lock()
	c := e.conns[to]
	e.mu.Unlock()
	if c != nil {
		return c
	}
	d := net.Dialer{Timeout: 500 * time.Millisecond}
	c, err := d.Dial("tcp", e.net.addrs[to])
	if err != nil {
		return nil
	}
	e.mu.Lock()
	if old := e.conns[to]; old != nil {
		e.mu.Unlock()
		c.Close()
		return old
	}
	e.conns[to] = c
	e.mu.Unlock()
	return c
}

func (e *tcpEndpoint) dropConn(to ids.ProcessID, c net.Conn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.Close()
}

func (e *tcpEndpoint) Send(to ids.ProcessID, data []byte) {
	if to < 0 || int(to) >= len(e.net.addrs) || ToSelf(e.pid, to) || closed(e.done) {
		return
	}
	bp := e.buildFrame(data)
	e.writeFrame(to, *bp)
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

// writeFrame sends one assembled frame to a remote peer.
func (e *tcpEndpoint) writeFrame(to ids.ProcessID, frame []byte) {
	c := e.conn(to)
	if c == nil {
		return // peer unreachable; packet lost
	}
	c.SetWriteDeadline(time.Now().Add(time.Second))
	if _, err := c.Write(frame); err != nil {
		e.dropConn(to, c)
	}
}

// Multisend writes one frame assembly to every other process.
func (e *tcpEndpoint) Multisend(data []byte) {
	if closed(e.done) {
		return
	}
	bp := e.buildFrame(data)
	for to := range ids.ProcessID(len(e.net.addrs)) {
		if to != e.pid {
			e.writeFrame(to, *bp)
		}
	}
	putFrame(bp)
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
		e.ln.Close()
		e.mu.Lock()
		for to, c := range e.conns {
			c.Close()
			delete(e.conns, to)
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
