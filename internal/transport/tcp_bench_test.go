package transport

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/ids"
)

// loopbackAddrs reserves n distinct loopback ports by briefly listening on
// :0, so parallel benchmark runs cannot collide on fixed ports.
func loopbackAddrs(tb testing.TB, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// BenchmarkTCPSendRecv measures the per-frame cost of the socket transport
// round trip: the write path's pooled frame buffer costs nothing in steady
// state, the received frame is one exact-size allocation.
func BenchmarkTCPSendRecv(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			tn := NewTCP(loopbackAddrs(b, 2))
			e0, err := tn.Attach(0)
			if err != nil {
				b.Fatal(err)
			}
			e1, err := tn.Attach(1)
			if err != nil {
				b.Fatal(err)
			}
			defer e0.Close()
			defer e1.Close()

			payload := make([]byte, size)
			ctx := context.Background()
			// Prime the connection (first Send dials).
			e0.Send(1, payload)
			if _, err := e1.Recv(ctx); err != nil {
				b.Fatal(err)
			}

			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e0.Send(1, payload)
				if _, err := e1.Recv(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPMultisend measures the fan-out write path: one frame
// assembly must serve every peer.
func BenchmarkTCPMultisend(b *testing.B) {
	const n = 4
	tn := NewTCP(loopbackAddrs(b, n))
	eps := make([]Endpoint, n)
	for i := range eps {
		ep, err := tn.Attach(ids.ProcessID(i))
		if err != nil {
			b.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	payload := make([]byte, 1024)
	ctx := context.Background()
	eps[0].Multisend(payload)
	for i := 1; i < n; i++ {
		if _, err := eps[i].Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(1024 * (n - 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps[0].Multisend(payload)
		for j := 1; j < n; j++ {
			if _, err := eps[j].Recv(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTCPSendToDownPeer measures a send to a peer that refuses
// connections: after the first refused dial the peer is in backoff, and a
// frame to it is dropped with no syscall and no allocation (a redial every
// backoff period is all the down peer costs).
func BenchmarkTCPSendToDownPeer(b *testing.B) {
	ep, err := NewTCP(loopbackAddrs(b, 2)).Attach(0) // nobody listens for p1
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	payload := make([]byte, 64)
	ep.Send(1, payload)
	b.ReportAllocs()
	for b.Loop() {
		ep.Send(1, payload)
	}
}
