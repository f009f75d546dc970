package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"repro/abcast"
	"repro/internal/ids"
	"repro/internal/storage"
	"repro/internal/transport"
)

// tracer holds the benchmark-owned decorators around the two seams that
// can be wrapped from outside the program — abcast.Network and
// abcast.Storage — plus the spans they and the tracker record. Frames and
// log records are opaque here (each batches many operations), so transport
// and storage spans carry no operation id; the tracker's spans do.
//
// The decorators are installed for the whole traced run and switched on
// for its second half only: the first half, passing straight through, is
// the baseline that bench.trace_overhead_pct is measured against.
type tracer struct {
	on  atomic.Bool
	now func() int64

	sends, sendBytes, sendNS atomic.Int64 // frames put on the wire, their bytes, time inside Send/Multisend
	recvs                    atomic.Int64
	ops, opBytes, issueNS    atomic.Int64 // log operations, bytes logged, time inside the issuing call

	mu      sync.Mutex
	persist []int64 // issue → durable, per log operation
	spans   []span
	calls   uint64
}

// span is one traced interval on the run clock. Parent is the index of the
// causing span in the dump, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"` // operation id; -1 where the layer cannot see one
	Parent int    `json:"parent"`
	Proc   int    `json:"proc"`
	Bytes  int    `json:"bytes,omitempty"`
}

const (
	spanSampling = 64      // one call, and one operation, in 64 gets a span
	maxSpans     = 200_000 // bounds the dump
)

// traceCounts is a snapshot of the decorators' counters.
type traceCounts struct {
	sends, sendBytes, sendNS, recvs, ops, opBytes, issueNS int64
}

func (t *tracer) counts() traceCounts {
	return traceCounts{
		sends: t.sends.Load(), sendBytes: t.sendBytes.Load(), sendNS: t.sendNS.Load(), recvs: t.recvs.Load(),
		ops: t.ops.Load(), opBytes: t.opBytes.Load(), issueNS: t.issueNS.Load(),
	}
}

// record adds a span for one call in spanSampling.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.calls++
	if t.calls%spanSampling == 0 && len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// addOp adds the tracker's view of one operation: a root span from due to
// commit and, under it, the three intervals the commit latency is made of.
func (t *tracer) addOp(id uint64, op *opRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+4 > maxSpans {
		return
	}
	root := len(t.spans)
	t.spans = append(t.spans,
		span{Name: "op", Start: op.due, End: op.commit, Op: int64(id), Parent: -1, Proc: -1},
		span{Name: "abcast.broadcast_call", Start: op.due, End: op.sent, Op: int64(id), Parent: root, Proc: -1},
		span{Name: "abcast.first_deliver", Start: op.due, End: op.first, Op: int64(id), Parent: root, Proc: -1},
		span{Name: "abcast.deliver_skew", Start: op.first, End: op.commit, Op: int64(id), Parent: root, Proc: -1},
	)
}

// dump writes the spans as JSON.
func (t *tracer) dump(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Sampling int    `json:"sampling"`
		Spans    []span `json:"spans"`
	}{workload, seed, spanSampling, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- abcast.Network ---

type tracedNetwork struct {
	abcast.Network
	t *tracer
}

func (t *tracer) wrapNetwork(n abcast.Network) abcast.Network { return tracedNetwork{n, t} }

func (n tracedNetwork) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	ep, err := n.Network.Attach(pid)
	if err != nil {
		return nil, err
	}
	return tracedEndpoint{ep, n.t, n.N() - 1}, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	t     *tracer
	peers int
}

func (e tracedEndpoint) Send(to ids.ProcessID, data []byte) {
	if !e.t.on.Load() {
		e.Endpoint.Send(to, data)
		return
	}
	start := e.t.now()
	e.Endpoint.Send(to, data)
	if to != e.Local() {
		e.sent("transport.send", start, 1, len(data))
	}
}

func (e tracedEndpoint) Multisend(data []byte) {
	if !e.t.on.Load() {
		e.Endpoint.Multisend(data)
		return
	}
	start := e.t.now()
	e.Endpoint.Multisend(data)
	e.sent("transport.multisend", start, e.peers, len(data))
}

func (e tracedEndpoint) sent(name string, start int64, frames, size int) {
	end := e.t.now()
	e.t.sends.Add(int64(frames))
	e.t.sendBytes.Add(int64(frames * size))
	e.t.sendNS.Add(end - start)
	e.t.record(span{Name: name, Start: start, End: end, Op: -1, Parent: -1, Proc: int(e.Local()), Bytes: frames * size})
}

func (e tracedEndpoint) Recv(ctx context.Context) (transport.Packet, error) {
	pkt, err := e.Endpoint.Recv(ctx)
	if err == nil && e.t.on.Load() {
		e.t.recvs.Add(1)
	}
	return pkt, err
}

// --- abcast.Storage ---

// tracedStorage times every log operation twice: the issuing call (what
// the caller's goroutine pays) and issue → durable (what the protocol waits
// for before it may act, §2.1).
type tracedStorage struct {
	storage.AsyncStable
	t    *tracer
	proc int
}

func (t *tracer) wrapStorage(pid int, st abcast.Storage) abcast.Storage {
	return tracedStorage{storage.Async(st), t, pid}
}

// sync wraps a blocking log operation: issue and durability coincide.
func (s tracedStorage) sync(name string, size int, op func() error) error {
	if !s.t.on.Load() {
		return op()
	}
	start := s.t.now()
	err := op()
	end := s.t.now()
	s.issued(size, end-start)
	s.durable(name, start, end, size)
	return err
}

// async wraps an asynchronous log operation: the call returns at issue,
// the completion fires when durable.
func (s tracedStorage) async(name string, size int, op func() *storage.Completion) *storage.Completion {
	if !s.t.on.Load() {
		return op()
	}
	start := s.t.now()
	c := op()
	s.issued(size, s.t.now()-start)
	c.OnDone(func(error) { s.durable(name, start, s.t.now(), size) })
	return c
}

func (s tracedStorage) issued(size int, ns int64) {
	s.t.ops.Add(1)
	s.t.opBytes.Add(int64(size))
	s.t.issueNS.Add(ns)
}

func (s tracedStorage) durable(name string, start, end int64, size int) {
	s.t.mu.Lock()
	s.t.persist = append(s.t.persist, end-start)
	s.t.mu.Unlock()
	s.t.record(span{Name: name, Start: start, End: end, Op: -1, Parent: -1, Proc: s.proc, Bytes: size})
}

func (s tracedStorage) Put(key string, val []byte) error {
	return s.sync("storage.put", len(val), func() error { return s.AsyncStable.Put(key, val) })
}
func (s tracedStorage) Append(key string, rec []byte) error {
	return s.sync("storage.append", len(rec), func() error { return s.AsyncStable.Append(key, rec) })
}
func (s tracedStorage) Delete(key string) error {
	return s.sync("storage.delete", 0, func() error { return s.AsyncStable.Delete(key) })
}
func (s tracedStorage) PutAsync(key string, val []byte) *storage.Completion {
	return s.async("storage.put", len(val), func() *storage.Completion { return s.AsyncStable.PutAsync(key, val) })
}
func (s tracedStorage) AppendAsync(key string, rec []byte) *storage.Completion {
	return s.async("storage.append", len(rec), func() *storage.Completion { return s.AsyncStable.AppendAsync(key, rec) })
}
func (s tracedStorage) DeleteAsync(key string) *storage.Completion {
	return s.async("storage.delete", 0, func() *storage.Completion { return s.AsyncStable.DeleteAsync(key) })
}
