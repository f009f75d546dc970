// Package router multiplexes one transport endpoint among the protocol
// layers of a process (failure detector, consensus, atomic broadcast). Each
// packet carries a one-byte channel tag; handlers are registered per
// channel before the router starts.
package router

import (
	"context"
	"sync"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Channel tags the protocol layer a packet belongs to.
type Channel uint8

// Channel assignments. They start at 1 so a zero byte is invalid.
const (
	ChanFD        Channel = 1 // failure-detector heartbeats
	ChanConsensus Channel = 2 // consensus engine messages
	ChanCore      Channel = 3 // atomic broadcast gossip/state messages
)

// Handler consumes one packet on a channel. Handlers run on the router's
// receive goroutine and must not block indefinitely. payload is part of a
// received frame: immutable, the handler's to keep and alias (see Net).
type Handler func(from ids.ProcessID, payload []byte)

// Router demultiplexes an endpoint. Create with New, register handlers,
// then Start. Stop closes the endpoint and waits for the receive loop.
type Router struct {
	ep transport.Endpoint

	mu       sync.Mutex
	handlers map[Channel]Handler
	started  bool
	stopped  bool               // a Start after Stop launches nothing
	cancel   context.CancelFunc // guarded by mu: Stop may race Start

	wg sync.WaitGroup
}

// New creates a router over ep.
func New(ep transport.Endpoint) *Router {
	return &Router{ep: ep, handlers: make(map[Channel]Handler)}
}

// Handle registers the handler for ch. It must be called before Start.
func (r *Router) Handle(ch Channel, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[ch] = h
}

// Start launches the receive loop. The loop ends when ctx is cancelled or
// the endpoint closes.
func (r *Router) Start(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return
	}
	r.started = true
	ctx, r.cancel = context.WithCancel(ctx)
	r.wg.Add(1)
	go r.recvLoop(ctx)
}

// Stop closes the endpoint and waits for the receive loop to exit. It may
// run concurrently with Start (a crash during boot).
func (r *Router) Stop() {
	r.mu.Lock()
	r.stopped = true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	r.ep.Close()
	r.wg.Wait()
}

func (r *Router) recvLoop(ctx context.Context) {
	defer r.wg.Done()
	for {
		pkt, err := r.ep.Recv(ctx)
		if err != nil {
			return
		}
		if len(pkt.Data) < 1 {
			continue
		}
		ch := Channel(pkt.Data[0])
		r.mu.Lock()
		h := r.handlers[ch]
		r.mu.Unlock()
		if h != nil {
			h(pkt.From, pkt.Data[1:])
		}
	}
}

// tagged prepends the channel tag to payload in pooled scratch; the caller
// releases it once the endpoint's send, which borrows it, has returned.
func tagged(ch Channel, payload []byte) *wire.Writer {
	w := wire.GetWriter(1 + len(payload))
	w.U8(uint8(ch))
	w.Raw(payload)
	return w
}

// Send transmits payload to one other process on channel ch.
func (r *Router) Send(ch Channel, to ids.ProcessID, payload []byte) {
	w := tagged(ch, payload)
	r.ep.Send(to, w.Bytes())
	wire.PutWriter(w)
}

// Multisend transmits payload to every other process on channel ch.
func (r *Router) Multisend(ch Channel, payload []byte) {
	w := tagged(ch, payload)
	r.ep.Multisend(w.Bytes())
	wire.PutWriter(w)
}

// Net is the per-channel sending interface handed to protocol layers. It
// keeps the transport's contract: no layer addresses itself, and Multisend
// reaches every other process. It keeps the module's buffer-ownership rule
// (wire.GetWriter): payload is borrowed for the call — copied or written
// out before Send/Multisend return, so the caller encodes into a pooled
// writer and releases it right after — and what a Handler receives is
// immutable and the handler's own.
type Net interface {
	Send(to ids.ProcessID, payload []byte)
	Multisend(payload []byte)
}

// Bound returns a Net that sends on channel ch.
func (r *Router) Bound(ch Channel) Net {
	return boundNet{r: r, ch: ch}
}

type boundNet struct {
	r  *Router
	ch Channel
}

func (b boundNet) Send(to ids.ProcessID, payload []byte) { b.r.Send(b.ch, to, payload) }
func (b boundNet) Multisend(payload []byte)              { b.r.Multisend(b.ch, payload) }
