package router

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

type sink struct {
	mu   sync.Mutex
	got  []string
	from []ids.ProcessID
}

func (s *sink) handler(from ids.ProcessID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, string(payload))
	s.from = append(s.from, from)
}

func (s *sink) wait(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]string(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d packets", n)
	return nil
}

func TestRouterDispatchesByChannel(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{Seed: 1})
	defer net.Close()
	epA, _ := net.Attach(0)
	epB, _ := net.Attach(1)

	ra := New(epA)
	rb := New(epB)
	fdSink, consSink := &sink{}, &sink{}
	rb.Handle(ChanFD, fdSink.handler)
	rb.Handle(ChanConsensus, consSink.handler)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ra.Start(ctx)
	rb.Start(ctx)
	defer ra.Stop()
	defer rb.Stop()

	ra.Send(ChanFD, 1, []byte("beat"))
	ra.Send(ChanConsensus, 1, []byte("prep"))
	ra.Send(ChanCore, 1, []byte("orphan")) // no handler: dropped

	if got := fdSink.wait(t, 1); got[0] != "beat" {
		t.Fatalf("fd got %v", got)
	}
	if got := consSink.wait(t, 1); got[0] != "prep" {
		t.Fatalf("cons got %v", got)
	}
	fdSink.mu.Lock()
	if fdSink.from[0] != 0 {
		t.Fatalf("from = %v", fdSink.from[0])
	}
	fdSink.mu.Unlock()
}

func TestRouterMultisend(t *testing.T) {
	net := transport.NewMem(3, transport.MemOptions{Seed: 2})
	defer net.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sinks := make([]*sink, 3)
	routers := make([]*Router, 3)
	for i := 0; i < 3; i++ {
		ep, _ := net.Attach(ids.ProcessID(i))
		routers[i] = New(ep)
		sinks[i] = &sink{}
		routers[i].Handle(ChanCore, sinks[i].handler)
		routers[i].Start(ctx)
		defer routers[i].Stop()
	}
	routers[0].Multisend(ChanCore, []byte("toall"))
	for i, s := range sinks[1:] {
		if got := s.wait(t, 1); got[0] != "toall" {
			t.Fatalf("sink %d got %v", i+1, got)
		}
	}
	// The sender is not among the receivers.
	routers[1].Send(ChanCore, 0, []byte("after"))
	if got := sinks[0].wait(t, 1); len(got) != 1 || got[0] != "after" {
		t.Fatalf("sender's own sink got %v", got)
	}
}

func TestBoundNet(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{Seed: 3})
	defer net.Close()
	epA, _ := net.Attach(0)
	epB, _ := net.Attach(1)
	ra, rb := New(epA), New(epB)
	s := &sink{}
	rb.Handle(ChanCore, s.handler)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ra.Start(ctx)
	rb.Start(ctx)
	defer ra.Stop()
	defer rb.Stop()

	bound := ra.Bound(ChanCore)
	bound.Send(1, []byte("direct"))
	bound.Multisend([]byte("fan"))
	got := s.wait(t, 2)
	if got[0] != "direct" && got[1] != "direct" {
		t.Fatalf("got %v", got)
	}
}

func TestRouterStopTerminatesLoop(t *testing.T) {
	net := transport.NewMem(1, transport.MemOptions{Seed: 4})
	defer net.Close()
	ep, _ := net.Attach(0)
	r := New(ep)
	r.Start(context.Background())
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestRouterIgnoresEmptyPackets(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{Seed: 5})
	defer net.Close()
	epA, _ := net.Attach(0)
	epB, _ := net.Attach(1)
	rb := New(epB)
	s := &sink{}
	rb.Handle(ChanFD, s.handler)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rb.Start(ctx)
	defer rb.Stop()

	epA.Send(1, nil)             // empty: ignored
	epA.Send(1, []byte{byte(1)}) // ChanFD with empty payload: delivered
	got := s.wait(t, 1)
	if got[0] != "" {
		t.Fatalf("got %q", got[0])
	}
	epA.Close()
}
