package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The micro set calls each layer's public functions directly, with no
// cluster around them: what a layer costs alone, to hold against what the
// traced run says it costs in place. testing.Benchmark sizes each loop; the
// short benchtime keeps the whole set to a few seconds, since it rides on
// every traced run.
const microBenchtime = "100ms"

func init() {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		panic(err)
	}
}

// microResult is one micro benchmark's line in the -layers table.
type microResult struct {
	name string
	r    testing.BenchmarkResult
}

// microMetrics runs the micro set, with files under dir, and fills the
// per-layer metrics it owns.
func microMetrics(out *outcome, dir string) error {
	v := out.values
	var table []microResult
	bench := func(name string, fn func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		table = append(table, microResult{name, r})
		return r
	}
	usPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) / 1e3 }
	mbPerS := func(r testing.BenchmarkResult) float64 {
		return ratio(float64(r.Bytes)*float64(r.N)/1e6, r.T.Seconds())
	}

	// transport and group: the same ping-pong over raw TCP endpoints and
	// over mux endpoints on TCP; the difference is the mux.
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	tcp := abcast.NewTCPNetwork(addrs)
	pp, err := newPingPong(tcp)
	if err != nil {
		return err
	}
	v["transport.tcp_rtt_us"] = usPerOp(bench("transport.tcp_rtt", pp.roundTrip(64)))
	v["transport.tcp_mb_s"] = mbPerS(bench("transport.tcp_stream", pp.stream(64<<10, 16)))
	pp.close()
	if pp.err != nil {
		return pp.err
	}
	if addrs, err = freeAddrs(2); err != nil {
		return err
	}
	pp, err = newPingPong(abcast.NewShardedNetwork(abcast.NewTCPNetwork(addrs), 1).Net(0))
	if err != nil {
		return err
	}
	v["group.mux_rtt_us"] = usPerOp(bench("group.mux_rtt", pp.roundTrip(64)))
	pp.close()
	if pp.err != nil {
		return pp.err
	}
	v["group.cursor_round_ns"] = 1e3 * usPerOp(bench("group.cursor_round", cursorRound))

	// storage: the WAL as the workloads open it.
	wal, err := abcast.NewWALStorage(filepath.Join(dir, "micro-append"), walOptions(0))
	if err != nil {
		return err
	}
	small, large := make([]byte, smallPayload), make([]byte, largePayload)
	var walErr error
	v["storage.wal_append_sync_us"] = usPerOp(bench("storage.wal_append_sync", func(b *testing.B) {
		for range b.N {
			if err := wal.Append("log", small); err != nil {
				walErr = err
			}
		}
	}))
	v["storage.wal_append_mb_s"] = mbPerS(bench("storage.wal_append_stream", func(b *testing.B) {
		const burst = 32
		b.SetBytes(burst * largePayload)
		for i := range b.N {
			// Overwrite a small ring of cells so the index stays small.
			for j := range burst {
				wal.PutAsync(fmt.Sprintf("cell/%d", (i*burst+j)%64), large)
			}
			if err := wal.Sync(); err != nil {
				walErr = err
			}
		}
	}))
	if err := wal.Close(); err != nil {
		return err
	}
	if walErr != nil {
		return walErr
	}
	if v["storage.wal_replay_ms"], err = walReplay(filepath.Join(dir, "micro-replay"), large); err != nil {
		return err
	}
	if v["storage.wal_compact_mb_s"], err = walCompact(filepath.Join(dir, "micro-compact"), large); err != nil {
		return err
	}

	// consensus: one decision at a time among three engines.
	cons, err := newConsensusTrio()
	if err != nil {
		return err
	}
	r := bench("consensus.decide", cons.decide)
	cons.stop()
	if cons.err != nil {
		return cons.err
	}
	v["consensus.decide_us"] = usPerOp(r)
	v["consensus.decide_allocs"] = float64(r.AllocsPerOp())

	// abcast: the single-node baseline, same protocol options.
	solo, err := newSolo()
	if err != nil {
		return err
	}
	v["abcast.n1_commit_us"] = usPerOp(bench("abcast.n1_commit", solo.commit))
	solo.p.Crash()
	if solo.err != nil {
		return solo.err
	}

	v["obs.mark_ns"] = 1e3 * usPerOp(bench("obs.mark", func(b *testing.B) {
		tr := obs.New(obs.Options{}).Trace()
		for i := range b.N {
			id := ids.MsgID{Sender: 1, Incarnation: 1, Seq: uint64(i)}
			tr.Mark(id, obs.StBroadcast)
			tr.Finish(id, obs.StDeliver)
		}
	}))

	out.notes = append(out.notes, "micro benchmarks (benchtime "+microBenchtime+"):")
	for _, m := range table {
		out.notes = append(out.notes, fmt.Sprintf("  %-28s %10d ns/op %8d B/op %6d allocs/op  (n=%d)",
			m.name, m.r.NsPerOp(), m.r.AllocedBytesPerOp(), m.r.AllocsPerOp(), m.r.N))
	}
	return nil
}

// pingPong is two endpoints of one network: p0 drives, p1 echoes.
type pingPong struct {
	a, b   transport.Endpoint
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

const microTimeout = 30 * time.Second

func newPingPong(network abcast.Network) (*pingPong, error) {
	a, err := network.Attach(0)
	if err != nil {
		return nil, err
	}
	b, err := network.Attach(1)
	if err != nil {
		a.Close()
		return nil, err
	}
	p := &pingPong{a: a, b: b, done: make(chan struct{})}
	p.ctx, p.cancel = context.WithTimeout(context.Background(), microTimeout)
	go func() {
		defer close(p.done)
		// p1 acknowledges every frame with its first byte: a 64 B ping
		// comes back as a pong, a streamed burst as one short ack per frame.
		for {
			pkt, err := b.Recv(p.ctx)
			if err != nil {
				return
			}
			b.Send(0, pkt.Data[:min(len(pkt.Data), smallPayload)])
		}
	}()
	return p, nil
}

func (p *pingPong) close() {
	p.cancel()
	p.a.Close()
	p.b.Close()
	<-p.done
}

func (p *pingPong) roundTrip(size int) func(b *testing.B) {
	buf := make([]byte, size)
	return func(b *testing.B) {
		for range b.N {
			p.a.Send(1, buf)
			if _, err := p.a.Recv(p.ctx); err != nil {
				p.err = fmt.Errorf("ping-pong: %w", err)
				return
			}
		}
	}
}

// stream sends bursts of frames one way and waits for the burst's acks,
// so the fair-lossy inbox never overflows.
func (p *pingPong) stream(size, burst int) func(b *testing.B) {
	buf := make([]byte, size)
	return func(b *testing.B) {
		b.SetBytes(int64(size * burst))
		for range b.N {
			for range burst {
				p.a.Send(1, buf)
			}
			for range burst {
				if _, err := p.a.Recv(p.ctx); err != nil {
					p.err = fmt.Errorf("stream: %w", err)
					return
				}
			}
		}
	}
}

// cursorRound is the merge cursor's hot path: four groups commit one
// round of four messages each and the cursor drains it.
func cursorRound(b *testing.B) {
	const groups, perRound = 4, 4
	st := group.NewStream(groups)
	seqs := make([]group.Sequence, groups)
	batches := make([][]core.Delivery, groups)
	for g := range seqs {
		seqs[g] = group.Sequence{Group: ids.GroupID(g)}
		for i := range perRound {
			batches[g] = append(batches[g], core.Delivery{
				Msg:   msg.Message{ID: ids.MsgID{Sender: ids.ProcessID(g), Incarnation: 1, Seq: uint64(i + 1)}},
				Group: ids.GroupID(g),
			})
		}
	}
	cur, err := st.Subscribe(func() ([]group.Sequence, error) { return seqs, nil })
	if err != nil {
		b.Fatal(err)
	}
	var buf []core.Delivery
	b.ResetTimer()
	for i := range b.N {
		for g := range groups {
			st.NoteRound(ids.GroupID(g), uint64(i), batches[g])
		}
		if buf, err = cur.Next(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

const microReps = 3

// walReplay is the median time to open a 64 MiB log.
func walReplay(dir string, rec []byte) (float64, error) {
	w, err := abcast.NewWALStorage(dir, walOptions(0))
	if err != nil {
		return 0, err
	}
	for i := range (64 << 20) / len(rec) {
		w.AppendAsync(fmt.Sprintf("log/%d", i%16), rec)
	}
	if err := w.Sync(); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	var took []float64
	for range microReps {
		begin := time.Now()
		w, err := abcast.NewWALStorage(dir, walOptions(0))
		if err != nil {
			return 0, err
		}
		took = append(took, float64(time.Since(begin).Nanoseconds())/1e6)
		if err := w.Close(); err != nil {
			return 0, err
		}
	}
	slices.Sort(took)
	return took[len(took)/2], os.RemoveAll(dir)
}

// walCompact is the median rate at which Compact gets through a 32 MiB
// log of which one sixteenth is live.
func walCompact(dir string, rec []byte) (float64, error) {
	var rates []float64
	for range microReps {
		w, err := abcast.NewWALStorage(dir, walOptions(0))
		if err != nil {
			return 0, err
		}
		for i := range (32 << 20) / len(rec) {
			w.PutAsync(fmt.Sprintf("cell/%d", i%64), rec)
		}
		if err := w.Sync(); err != nil {
			return 0, err
		}
		before := w.DiskBytes()
		begin := time.Now()
		if err := w.Compact(); err != nil {
			return 0, err
		}
		rates = append(rates, float64(before)/1e6/time.Since(begin).Seconds())
		if err := w.Close(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	slices.Sort(rates)
	return rates[len(rates)/2], nil
}

// consensusTrio is three engines on a zero-delay in-memory network with
// in-memory storage, as the node layer wires them.
type consensusTrio struct {
	net    *transport.Mem
	cancel context.CancelFunc
	stops  []func()
	leader *consensus.Engine
	next   uint64
	err    error
}

func newConsensusTrio() (*consensusTrio, error) {
	c := &consensusTrio{net: transport.NewMem(nProcs, transport.MemOptions{})}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for p := range nProcs {
		pid := ids.ProcessID(p)
		ep, err := c.net.Attach(pid)
		if err != nil {
			c.stop()
			return nil, err
		}
		rt := router.New(ep)
		det := fd.New(pid, nProcs, 1, fd.Options{}, rt.Bound(router.ChanFD))
		eng, err := consensus.New(consensus.Config{PID: pid, N: nProcs, Seed: uint64(p) + 1},
			storage.NewMem(), rt.Bound(router.ChanConsensus), det)
		if err != nil {
			c.stop()
			return nil, err
		}
		rt.Handle(router.ChanFD, det.OnMessage)
		rt.Handle(router.ChanConsensus, eng.OnMessage)
		rt.Start(ctx)
		det.Start(ctx)
		eng.Start(ctx)
		c.stops = append(c.stops, rt.Stop, det.Stop, eng.Stop)
		if p == 0 {
			c.leader = eng
		}
	}
	// Let the failure detector settle on p0 before timing anything.
	c.decideN(16)
	return c, c.err
}

func (c *consensusTrio) decide(b *testing.B) { c.decideN(b.N) }

// decideN runs n instances one after the other, proposed and awaited at
// p0.
func (c *consensusTrio) decideN(n int) {
	ctx, cancel := context.WithTimeout(context.Background(), microTimeout)
	defer cancel()
	val := make([]byte, smallPayload)
	for range n {
		if err := c.leader.Propose(c.next, val); err != nil {
			c.err = err
			return
		}
		if _, err := c.leader.WaitDecided(ctx, c.next); err != nil {
			c.err = fmt.Errorf("consensus instance %d: %w", c.next, err)
			return
		}
		c.next++
	}
}

func (c *consensusTrio) stop() {
	c.cancel()
	for _, stop := range c.stops {
		stop()
	}
	c.net.Close()
}

// solo is one process that is its own majority: Broadcast to OnDeliver
// with no network peer and no disk.
type solo struct {
	p         *abcast.Process
	delivered chan struct{}
	err       error
}

func newSolo() (*solo, error) {
	// Buffered to the pipeline's worth: OnDeliver must never block.
	s := &solo{delivered: make(chan struct{}, 64)}
	p, err := abcast.NewProcess(abcast.Config{
		PID: 0, N: 1,
		Protocol:  protocolOptions(),
		OnDeliver: func(abcast.Delivery) { s.delivered <- struct{}{} },
	}, abcast.NewMemStorage(), abcast.NewMemNetwork(1, abcast.MemNetOptions{}))
	if err != nil {
		return nil, err
	}
	if err := p.Start(context.Background()); err != nil {
		return nil, err
	}
	s.p = p
	return s, nil
}

func (s *solo) commit(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), microTimeout)
	defer cancel()
	buf := make([]byte, smallPayload)
	for range b.N {
		if _, err := s.p.Broadcast(ctx, buf); err != nil {
			s.err = err
			return
		}
		select {
		case <-s.delivered:
		case <-ctx.Done():
			s.err = fmt.Errorf("n=1 commit: %w", ctx.Err())
			return
		}
	}
}
