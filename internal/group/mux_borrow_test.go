package group

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/testenv"
	"repro/internal/transport"
)

// TestMuxSendBorrowsItsArgument: on the plain and on the coalescing mux,
// the argument of Send/Multisend may be scribbled on as soon as the call
// returns — also while its bytes still sit in a coalescing queue — and every
// lane receives what was passed. With coalescing the frames of one window
// arrive as subframes of one transport frame.
func TestMuxSendBorrowsItsArgument(t *testing.T) {
	for _, opts := range []MuxOptions{{}, {FlushDelay: 2 * time.Millisecond}} {
		const groups = 3
		net := transport.NewMem(2, transport.MemOptions{})
		mux := NewMuxOpts(net, groups, opts)
		var src, dst [groups]transport.Endpoint
		for g := range src {
			var err error
			if src[g], err = mux.Net(ids.GroupID(g)).Attach(0); err != nil {
				t.Fatal(err)
			}
			if dst[g], err = mux.Net(ids.GroupID(g)).Attach(1); err != nil {
				t.Fatal(err)
			}
		}
		for _, multi := range []bool{false, true} {
			for g := range src {
				buf := []byte(fmt.Sprintf("lane %d payload", g))
				if multi {
					src[g].Multisend(buf)
				} else {
					src[g].Send(1, buf)
				}
				for i := range buf {
					buf[i] = 0xEE
				}
			}
			for g := range dst {
				pkt, ok := recvOne(t, dst[g], time.Second)
				if want := fmt.Sprintf("lane %d payload", g); !ok || string(pkt.Data) != want {
					t.Fatalf("coalescing=%v multisend=%v g%d: got %q, want %q", opts.enabled(), multi, g, pkt.Data, want)
				}
				if multi {
					recvOne(t, src[g], time.Second) // the sender's own copy
				}
			}
		}
		if opts.enabled() && mux.Stats().CoalescedFrames == 0 {
			t.Fatal("the coalescing run never coalesced: subframes not exercised")
		}
		net.Close()
	}
}

// nullNet is a Network whose endpoints swallow every send without
// allocating: what is left to measure is the layers above it.
type nullNet struct{}

func (nullNet) N() int { return 2 }
func (nullNet) Attach(pid ids.ProcessID) (transport.Endpoint, error) {
	return &nullEndpoint{pid: pid, done: make(chan struct{})}, nil
}

type nullEndpoint struct {
	pid  ids.ProcessID
	done chan struct{}
}

func (e *nullEndpoint) Local() ids.ProcessID       { return e.pid }
func (e *nullEndpoint) Send(ids.ProcessID, []byte) {}
func (e *nullEndpoint) Multisend([]byte)           {}
func (e *nullEndpoint) Close() error               { close(e.done); return nil }
func (e *nullEndpoint) Recv(ctx context.Context) (transport.Packet, error) {
	select {
	case <-e.done:
		return transport.Packet{}, transport.ErrClosed
	case <-ctx.Done():
		return transport.Packet{}, ctx.Err()
	}
}

// TestRouterAndMuxSendAllocateNothing: the channel tag and the lane tag are
// prepended in pooled scratch released when the inner Send returns, so the
// two framing layers add no allocation to a send in steady state (each used
// to allocate and copy the whole frame).
func TestRouterAndMuxSendAllocateNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ep, err := NewMux(nullNet{}, 1).Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	lane := router.New(ep).Bound(router.ChanConsensus)
	payload := make([]byte, 512)
	if n := testing.AllocsPerRun(1000, func() {
		lane.Send(1, payload)
		lane.Multisend(payload)
	}); n != 0 {
		t.Fatalf("router.Send + muxEndpoint.Send allocate %.1f times per send pair, want 0", n)
	}
}
