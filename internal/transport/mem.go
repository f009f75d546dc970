package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// MemOptions configures the simulated network.
type MemOptions struct {
	// Loss is the default per-packet drop probability in [0,1).
	Loss float64
	// Dup is the probability a delivered packet is duplicated once.
	Dup float64
	// MinDelay and MaxDelay bound the uniformly distributed delivery
	// delay. Zero means immediate in-order delivery per link.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Seed makes the loss/dup/delay sequence reproducible.
	Seed uint64
	// InboxSize is the per-process input buffer capacity (default 4096).
	// A full buffer drops packets, which fair-lossy channels permit.
	InboxSize int
}

// MemStats counts network-level events.
type MemStats struct {
	Sent       int64
	Dropped    int64 // lost, partitioned, down, or buffer-full
	Duplicated int64
	Delivered  int64
}

// Mem is the in-memory fair-lossy network. It is safe for concurrent use by
// all processes.
type Mem struct {
	n    int
	opts MemOptions

	mu       sync.Mutex
	rng      *rand.Rand
	eps      []*memEndpoint // nil while a process is down
	linkLoss map[[2]ids.ProcessID]float64
	cut      map[[2]ids.ProcessID]bool // severed links (partition)
	closed   bool

	sched *scheduler

	sent, dropped, duplicated, delivered atomic.Int64
}

var _ Network = (*Mem)(nil)

// NewMem creates a network for processes 0..n-1.
func NewMem(n int, opts MemOptions) *Mem {
	if opts.InboxSize <= 0 {
		opts.InboxSize = 4096
	}
	m := &Mem{
		n:        n,
		opts:     opts,
		rng:      rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15)),
		eps:      make([]*memEndpoint, n),
		linkLoss: make(map[[2]ids.ProcessID]float64),
		cut:      make(map[[2]ids.ProcessID]bool),
	}
	m.sched = newScheduler()
	return m
}

// N implements Network.
func (m *Mem) N() int { return m.n }

// Close stops the delivery scheduler. Endpoints become inert.
func (m *Mem) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.sched.stop()
}

// Stats returns a snapshot of the network counters.
func (m *Mem) Stats() MemStats {
	return MemStats{
		Sent:       m.sent.Load(),
		Dropped:    m.dropped.Load(),
		Duplicated: m.duplicated.Load(),
		Delivered:  m.delivered.Load(),
	}
}

// SetLinkLoss overrides the drop probability of the directed link from->to.
// Pass a negative value to restore the default.
func (m *Mem) SetLinkLoss(from, to ids.ProcessID, p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p < 0 {
		delete(m.linkLoss, [2]ids.ProcessID{from, to})
		return
	}
	m.linkLoss[[2]ids.ProcessID{from, to}] = p
}

// Partition severs every link between the two sides (both directions).
func (m *Mem) Partition(sideA, sideB []ids.ProcessID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range sideA {
		for _, b := range sideB {
			m.cut[[2]ids.ProcessID{a, b}] = true
			m.cut[[2]ids.ProcessID{b, a}] = true
		}
	}
}

// Heal removes all partitions.
func (m *Mem) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut = make(map[[2]ids.ProcessID]bool)
}

// Attach implements Network.
func (m *Mem) Attach(pid ids.ProcessID) (Endpoint, error) {
	if pid < 0 || int(pid) >= m.n {
		return nil, fmt.Errorf("transport: pid %v out of range [0,%d)", pid, m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.eps[pid] != nil {
		return nil, fmt.Errorf("%w: %v", ErrDetached, pid)
	}
	ep := &memEndpoint{
		net:   m,
		pid:   pid,
		inbox: make(chan Packet, m.opts.InboxSize),
		done:  make(chan struct{}),
	}
	m.eps[pid] = ep
	return ep, nil
}

// route decides the fate of one packet and schedules its delivery.
func (m *Mem) route(from, to ids.ProcessID, data []byte) {
	m.sent.Add(1)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.cut[[2]ids.ProcessID{from, to}] {
		m.mu.Unlock()
		m.dropped.Add(1)
		return
	}
	loss := m.opts.Loss
	if p, ok := m.linkLoss[[2]ids.ProcessID{from, to}]; ok {
		loss = p
	}
	drop := loss > 0 && m.rng.Float64() < loss
	dup := m.opts.Dup > 0 && m.rng.Float64() < m.opts.Dup
	var delay time.Duration
	if m.opts.MaxDelay > 0 {
		span := int64(m.opts.MaxDelay - m.opts.MinDelay)
		if span > 0 {
			delay = m.opts.MinDelay + time.Duration(m.rng.Int64N(span))
		} else {
			delay = m.opts.MinDelay
		}
	}
	m.mu.Unlock()

	if drop {
		m.dropped.Add(1)
		return
	}
	copies := 1
	if dup {
		copies = 2
		m.duplicated.Add(1)
	}
	for i := 0; i < copies; i++ {
		pkt := Packet{From: from, Data: data}
		if delay == 0 {
			m.deliver(to, pkt)
		} else {
			m.sched.after(delay, func() { m.deliver(to, pkt) })
		}
	}
}

// deliver places a packet in the destination's inbox if it is up.
func (m *Mem) deliver(to ids.ProcessID, pkt Packet) {
	m.mu.Lock()
	ep := m.eps[to]
	m.mu.Unlock()
	if ep == nil {
		// Destination is down: "the set of messages that arrive at a
		// process while it is down are lost" (§2.1).
		m.dropped.Add(1)
		return
	}
	select {
	case ep.inbox <- pkt:
		m.delivered.Add(1)
	default:
		m.dropped.Add(1) // buffer overrun; fair-lossy permits this
	}
}

// detach removes pid's endpoint (crash or shutdown).
func (m *Mem) detach(pid ids.ProcessID, ep *memEndpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eps[pid] == ep {
		m.eps[pid] = nil
	}
}

type memEndpoint struct {
	net       *Mem
	pid       ids.ProcessID
	inbox     chan Packet
	done      chan struct{}
	closeOnce sync.Once
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) Local() ids.ProcessID { return e.pid }

func (e *memEndpoint) Send(to ids.ProcessID, data []byte) {
	if to < 0 || int(to) >= e.net.n || ToSelf(e.pid, to) || closed(e.done) {
		return
	}
	// Copy: the caller may reuse its buffer; packets outlive the call.
	e.net.route(e.pid, to, bytes.Clone(data))
}

// Multisend routes one immutable copy to every other process.
func (e *memEndpoint) Multisend(data []byte) {
	if closed(e.done) {
		return
	}
	cp := bytes.Clone(data)
	for to := range ids.ProcessID(e.net.n) {
		if to != e.pid {
			e.net.route(e.pid, to, cp)
		}
	}
}

func (e *memEndpoint) Recv(ctx context.Context) (Packet, error) {
	select {
	case pkt := <-e.inbox:
		return pkt, nil
	case <-e.done:
		return Packet{}, ErrClosed
	case <-ctx.Done():
		return Packet{}, ctx.Err()
	}
}

func (e *memEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.net.detach(e.pid, e)
	})
	return nil
}
