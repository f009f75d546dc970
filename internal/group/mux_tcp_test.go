package group

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// sendUntil retries Send until the expected payload arrives at dst or the
// deadline passes — TCP sends are best-effort (a failed write only drops
// the cached connection), so reconnection needs a retry, exactly like the
// protocol's gossip provides.
func sendUntil(t *testing.T, src, dst transport.Endpoint, to ids.ProcessID, payload string, d time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		src.Send(to, []byte(payload))
		if pkt, ok := recvOne(t, dst, 100*time.Millisecond); ok && string(pkt.Data) == payload {
			return true
		}
	}
	return false
}

// TestMuxTCPInterleavedGroups runs two groups over one TCP connection set:
// frames from both groups interleave on the same p0->p1 connection and
// demultiplex to the right group endpoints.
func TestMuxTCPInterleavedGroups(t *testing.T) {
	tcp := transport.NewTCP(freeAddrs(t, 2))
	mux := NewMux(tcp, 2)

	g0p0, err := mux.Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g0p0.Close()
	g1p0, err := mux.Net(1).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g1p0.Close()
	g0p1, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g0p1.Close()
	g1p1, err := mux.Net(1).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g1p1.Close()

	// Frames sent before the p0->p1 connection is up may be lost: p0's
	// first dial can be refused while p1 is still attaching, and a peer in
	// backoff gets no frames. Wait for one frame to get through first.
	if !sendUntil(t, g0p0, g0p1, 1, "warm", 5*time.Second) {
		t.Fatal("p0 never reached p1")
	}
	// Interleave sends from both groups; all ride the one cached p0->p1
	// connection of the shared real endpoint.
	const rounds = 20
	for i := 0; i < rounds; i++ {
		g0p0.Send(1, fmt.Appendf(nil, "g0-%d", i))
		g1p0.Send(1, fmt.Appendf(nil, "g1-%d", i))
	}
	// TCP per connection preserves order, so each group sees its own
	// subsequence in order. A late copy of g0's warm-up frame is skipped.
	for g, ep := range map[string]transport.Endpoint{"g0": g0p1, "g1": g1p1} {
		got := 0
		last := -1
		for {
			pkt, ok := recvOne(t, ep, 500*time.Millisecond)
			if !ok {
				break
			}
			if g == "g0" && string(pkt.Data) == "warm" {
				continue
			}
			var idx int
			if _, err := fmt.Sscanf(string(pkt.Data), g+"-%d", &idx); err != nil {
				t.Fatalf("%s received foreign frame %q", g, pkt.Data)
			}
			if idx <= last {
				t.Fatalf("%s frames out of order: %d after %d", g, idx, last)
			}
			last = idx
			got++
		}
		if got == 0 {
			t.Fatalf("%s received nothing", g)
		}
	}
}

// TestMuxTCPReconnectAfterCrash crash-recovers a whole sharded process
// (every group detaches, the shared listener closes) and checks the peer's
// cached connection recovers: its first writes fail, the connection drops,
// and a redial reaches the new incarnation for both groups.
func TestMuxTCPReconnectAfterCrash(t *testing.T) {
	tcp := transport.NewTCP(freeAddrs(t, 2))
	mux := NewMux(tcp, 2)

	g0p0, err := mux.Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g0p0.Close()
	g1p0, err := mux.Net(1).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer g1p0.Close()
	g0p1, _ := mux.Net(0).Attach(1)
	g1p1, _ := mux.Net(1).Attach(1)

	if !sendUntil(t, g0p0, g0p1, 1, "before", 5*time.Second) {
		t.Fatal("initial delivery failed")
	}

	// Crash p1: both groups close; the shared endpoint (listener and
	// inbound connections) closes with the last one.
	g0p1.Close()
	g1p1.Close()

	// While down, sends are black-holed (p0's cached connection dies on
	// first failed write; redials are refused).
	g0p0.Send(1, []byte("lost"))

	// Recover p1: both groups re-attach; the listener rebinds.
	g0p1b, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatalf("recover g0: %v", err)
	}
	defer g0p1b.Close()
	g1p1b, err := mux.Net(1).Attach(1)
	if err != nil {
		t.Fatalf("recover g1: %v", err)
	}
	defer g1p1b.Close()

	if !sendUntil(t, g0p0, g0p1b, 1, "after-g0", 5*time.Second) {
		t.Fatal("g0 did not recover delivery after crash/recovery")
	}
	if !sendUntil(t, g1p0, g1p1b, 1, "after-g1", 5*time.Second) {
		t.Fatal("g1 did not recover delivery after crash/recovery")
	}
}

// TestMuxTCPOversizedFrameRejected dials the shared listener raw and
// announces a frame larger than transport.MaxFrame: the connection must be
// dropped without delivering anything, and legitimate mux traffic must
// keep flowing afterwards.
func TestMuxTCPOversizedFrameRejected(t *testing.T) {
	addrs := freeAddrs(t, 2)
	tcp := transport.NewTCP(addrs)
	mux := NewMux(tcp, 1)

	vp0, err := mux.Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer vp0.Close()
	vp1, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer vp1.Close()

	// Raw connection announcing an oversized frame, then (on the same
	// connection) a perfectly valid one — which must never arrive, because
	// the oversize drops the whole connection.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0) // claims to be p0
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(transport.MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	valid := []byte{0x00, 0x00, 'n', 'o'} // tagged g0 frame "no"
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(valid)))
	conn.Write(hdr[:])
	conn.Write(valid)

	if pkt, ok := recvOne(t, vp1, 300*time.Millisecond); ok {
		t.Fatalf("frame after oversize was delivered: %q", pkt.Data)
	}

	// The endpoint survives the hostile connection: real traffic flows.
	if !sendUntil(t, vp0, vp1, 1, "still-alive", 5*time.Second) {
		t.Fatal("legitimate traffic stopped after oversized frame")
	}
}
