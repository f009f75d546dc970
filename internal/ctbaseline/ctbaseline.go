// Package ctbaseline implements the Chandra–Toueg Atomic Broadcast for the
// crash-stop (no-recovery) model [3], the protocol the paper extends: a
// reliable broadcast disseminates messages, and consecutive Consensus
// instances order batches of them. There is no stable storage, no gossip,
// no replay — "when crashes are definitive, the protocol reduces to the
// Chandra-Toueg's Atomic Broadcast protocol" (§5.6).
//
// Experiment E7 runs this baseline against the crash-recovery protocol on
// identical fault-free workloads to measure the price of recoverability.
package ctbaseline

import (
	"context"
	"errors"
	"sync"

	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/router"
	"repro/internal/wire"
)

// ErrStopped is returned when the process stops mid-operation.
var ErrStopped = errors.New("ctbaseline: stopped")

// Delivery mirrors core.Delivery for the baseline.
type Delivery struct {
	Msg   msg.Message
	Round uint64
	Pos   uint64
}

// Config parameterizes one baseline process.
type Config struct {
	PID ids.ProcessID
	N   int
	// OnDeliver is invoked in delivery order.
	OnDeliver func(Delivery)
}

// Protocol is one crash-stop process. R-broadcast floods data messages;
// the sequencer runs the CT transformation.
type Protocol struct {
	cfg  Config
	cons *consensus.Engine
	net  router.Net

	mu         sync.Mutex
	k          uint64
	seq        uint64
	rDelivered *msg.Set // R-delivered, not yet A-delivered
	seen       *msg.Set // every R-delivered message (flood dedup)
	agreed     *msg.Queue
	waiters    map[ids.MsgID][]chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup
}

// New creates a baseline process over the given consensus engine and
// network binding (use router.ChanCore).
func New(cfg Config, cons *consensus.Engine, net router.Net) *Protocol {
	return &Protocol{
		cfg:        cfg,
		cons:       cons,
		net:        net,
		rDelivered: msg.NewSet(),
		seen:       msg.NewSet(),
		agreed:     msg.NewQueue(),
		waiters:    make(map[ids.MsgID][]chan struct{}),
		wake:       make(chan struct{}, 1),
	}
}

// Start forks the sequencer task.
func (p *Protocol) Start(ctx context.Context) {
	p.ctx, p.cancel = context.WithCancel(ctx)
	p.wg.Add(1)
	go p.sequencer()
}

// Stop halts the process (a crash-stop crash: it never comes back).
func (p *Protocol) Stop() {
	if p.cancel != nil {
		p.cancel()
	}
	p.wg.Wait()
}

// Broadcast R-broadcasts m and waits until it is A-delivered locally.
func (p *Protocol) Broadcast(ctx context.Context, payload []byte) (ids.MsgID, error) {
	p.mu.Lock()
	p.seq++
	m := msg.Message{
		ID:      ids.MsgID{Sender: p.cfg.PID, Incarnation: 1, Seq: p.seq},
		Payload: append([]byte(nil), payload...),
	}
	p.seen.Add(m)
	p.rDelivered.Add(m)
	ch := make(chan struct{})
	p.waiters[m.ID] = append(p.waiters[m.ID], ch)
	p.mu.Unlock()

	p.flood(m)
	p.poke()

	select {
	case <-ch:
		return m.ID, nil
	case <-ctx.Done():
		return m.ID, ctx.Err()
	case <-p.ctx.Done():
		return m.ID, ErrStopped
	}
}

// flood transmits a data message to everyone (reliable broadcast's eager
// push; receivers re-flood once).
func (p *Protocol) flood(m msg.Message) {
	w := wire.NewWriter(32 + len(m.Payload))
	m.Encode(w)
	p.net.Multisend(w.Bytes())
}

// OnMessage handles R-broadcast data packets.
func (p *Protocol) OnMessage(from ids.ProcessID, payload []byte) {
	r := wire.NewReader(payload)
	m := msg.DecodeMessage(r)
	if r.Done() != nil {
		return
	}
	p.mu.Lock()
	fresh := p.seen.Add(m)
	if fresh && !p.agreed.Contains(m.ID) {
		p.rDelivered.Add(m)
	}
	p.mu.Unlock()
	if fresh {
		// Relay once: with every correct process relaying, a message
		// received by any correct process reaches all of them.
		p.flood(m)
		p.poke()
	}
}

func (p *Protocol) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// sequencer is the CT ordering loop: propose the R-delivered-but-unordered
// set to Consensus instance k; A-deliver the decided batch canonically.
func (p *Protocol) sequencer() {
	defer p.wg.Done()
	for {
		// Wait for something to order.
		for {
			p.mu.Lock()
			ready := p.rDelivered.Len() > 0
			p.mu.Unlock()
			if ready {
				break
			}
			select {
			case <-p.ctx.Done():
				return
			case <-p.wake:
			}
		}
		p.mu.Lock()
		k := p.k
		batch := p.rDelivered.Slice()
		p.mu.Unlock()

		w := wire.NewWriter(64)
		msg.EncodeBatch(w, batch)
		if err := p.cons.Propose(k, w.Bytes()); err != nil {
			return
		}
		result, err := p.cons.WaitDecided(p.ctx, k)
		if err != nil {
			return
		}
		r := wire.NewReader(result)
		decided := msg.DecodeBatch(r)

		p.mu.Lock()
		appended := p.agreed.AppendBatch(decided)
		p.k = k + 1
		p.rDelivered.SubtractDelivered(p.agreed.Contains)
		deliveries := make([]Delivery, len(appended))
		for i, m := range appended {
			deliveries[i] = Delivery{
				Msg:   m,
				Round: k,
				Pos:   uint64(p.agreed.Position(m.ID)),
			}
			if chans, ok := p.waiters[m.ID]; ok {
				for _, ch := range chans {
					close(ch)
				}
				delete(p.waiters, m.ID)
			}
		}
		cb := p.cfg.OnDeliver
		p.mu.Unlock()

		if cb != nil {
			for _, d := range deliveries {
				cb(d)
			}
		}
	}
}

// Sequence returns the A-delivered messages in order.
func (p *Protocol) Sequence() []msg.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.agreed.Slice()
}

// Delivered reports whether id was A-delivered.
func (p *Protocol) Delivered(id ids.MsgID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.agreed.Contains(id)
}

// Round returns the current round counter.
func (p *Protocol) Round() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.k
}
