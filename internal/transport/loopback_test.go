package transport_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/ids"
	"repro/internal/transport"
)

// TestEndpointNeverLoopsBack is the Endpoint contract's loopback half on
// every network a process can run on: Multisend reaches each other
// process exactly once and never its sender, and a Send to the sender
// delivers nothing (in a test binary it panics, so a layer that still
// addresses itself fails its suite).
func TestEndpointNeverLoopsBack(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name string
		net  func(t *testing.T) transport.Network
	}{
		{"tcp", func(t *testing.T) transport.Network { return transport.NewTCP(freeAddrs(t, n)) }},
		{"mem", func(t *testing.T) transport.Network { return memNet(t, n) }},
		{"mux", func(t *testing.T) transport.Network { return group.NewMux(memNet(t, n), 2).Net(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := tc.net(t)
			eps := make([]transport.Endpoint, n)
			for p := range eps {
				ep, err := nw.Attach(ids.ProcessID(p))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ep.Close() })
				eps[p] = ep
			}
			eps[0].Multisend([]byte("all"))
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Send to the sender did not panic in a test binary")
					}
				}()
				eps[0].Send(0, []byte("self"))
			}()
			// A marker for every process: each other process takes the
			// multisend once and a marker; the sender the markers only.
			for p := 1; p < n; p++ {
				eps[p].Send(0, []byte("marker"))
				eps[(p+1)%n].Send(ids.ProcessID(p), []byte("marker"))
			}
			for p := 1; p < n; p++ {
				expect(t, eps[p], "all from p0", fmt.Sprintf("marker from p%d", (p+1)%n))
			}
			expect(t, eps[0], "marker from p1", "marker from p2")
		})
	}
}

// expect receives at ep the packets described by want, in any order, and
// then nothing more.
func expect(t *testing.T, ep transport.Endpoint, want ...string) {
	t.Helper()
	got := make(map[string]int)
	for range want {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		pkt, err := ep.Recv(ctx)
		cancel()
		if err != nil {
			t.Fatalf("p%d: %v after %v, want %q", ep.Local(), err, got, want)
		}
		got[fmt.Sprintf("%s from p%d", pkt.Data, pkt.From)]++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if pkt, err := ep.Recv(ctx); err == nil {
		got[fmt.Sprintf("%s from p%d", pkt.Data, pkt.From)]++
	}
	for _, w := range want {
		got[w]--
	}
	for desc, c := range got {
		if c != 0 {
			t.Fatalf("p%d received %q %+d times off %q", ep.Local(), desc, c, want)
		}
	}
}

func memNet(t *testing.T, n int) *transport.Mem {
	m := transport.NewMem(n, transport.MemOptions{Seed: 1})
	t.Cleanup(m.Close)
	return m
}

// freeAddrs reserves n loopback ports by briefly listening on :0.
func freeAddrs(t *testing.T, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("cannot listen on loopback: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}
