package group

import (
	"context"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

func recvOne(t *testing.T, ep transport.Endpoint, timeout time.Duration) (transport.Packet, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	pkt, err := ep.Recv(ctx)
	if err != nil {
		return transport.Packet{}, false
	}
	return pkt, true
}

// TestMuxDemuxesByGroup: two groups share one Mem connection set; each
// virtual endpoint sees exactly its own group's frames.
func TestMuxDemuxesByGroup(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 2)

	eps := make(map[[2]int]transport.Endpoint) // [gid][pid]
	for g := 0; g < 2; g++ {
		for p := 0; p < 2; p++ {
			ep, err := mux.Net(ids.GroupID(g)).Attach(ids.ProcessID(p))
			if err != nil {
				t.Fatalf("attach g%d p%d: %v", g, p, err)
			}
			eps[[2]int{g, p}] = ep
		}
	}

	eps[[2]int{0, 0}].Send(1, []byte("from-g0"))
	eps[[2]int{1, 0}].Send(1, []byte("from-g1"))

	pkt, ok := recvOne(t, eps[[2]int{0, 1}], time.Second)
	if !ok || string(pkt.Data) != "from-g0" || pkt.From != 0 {
		t.Fatalf("g0 p1 got %q from %v; want from-g0 from p0", pkt.Data, pkt.From)
	}
	pkt, ok = recvOne(t, eps[[2]int{1, 1}], time.Second)
	if !ok || string(pkt.Data) != "from-g1" {
		t.Fatalf("g1 p1 got %q; want from-g1", pkt.Data)
	}

	// Multisend reaches the same group at every other process.
	eps[[2]int{0, 1}].Multisend([]byte("cast"))
	pkt, ok = recvOne(t, eps[[2]int{0, 0}], time.Second)
	if !ok || string(pkt.Data) != "cast" || pkt.From != 1 {
		t.Fatalf("g0 p0 got %q from %v; want cast from p1", pkt.Data, pkt.From)
	}
	if st := mux.Stats(); st.Demuxed == 0 {
		t.Fatalf("no frames demuxed: %+v", st)
	}
}

// TestMuxPerGroupCrashSemantics: a detached group's frames are dropped
// while its sibling group on the same process keeps receiving, and the
// group can re-attach (recover) afterwards.
func TestMuxPerGroupCrashSemantics(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 2)

	g0p0, _ := mux.Net(0).Attach(0)
	g0p1, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	g1p0, _ := mux.Net(1).Attach(0)
	g1p1, _ := mux.Net(1).Attach(1)

	// Crash group 0 at p1 only.
	g0p1.Close()
	g0p0.Send(1, []byte("lost"))
	g1p0.Send(1, []byte("kept"))
	if pkt, ok := recvOne(t, g1p1, time.Second); !ok || string(pkt.Data) != "kept" {
		t.Fatalf("sibling group lost its frame: %q %v", pkt.Data, ok)
	}

	// Re-attach (double attach of a live group must fail first).
	if _, err := mux.Net(1).Attach(1); err == nil {
		t.Fatal("double attach of live group succeeded")
	}
	g0p1b, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
	g0p0.Send(1, []byte("after-recovery"))
	if pkt, ok := recvOne(t, g0p1b, time.Second); !ok || string(pkt.Data) != "after-recovery" {
		t.Fatalf("recovered group got %q %v; want after-recovery", pkt.Data, ok)
	}
	if st := mux.Stats(); st.DroppedDetached == 0 {
		t.Fatalf("expected detached-drop accounting, got %+v", st)
	}
}

// TestMuxFullProcessCrashReleasesEndpoint: closing every group of a
// process closes the shared real endpoint synchronously, so a fresh
// incarnation can attach immediately (the crash/recover cycle of a whole
// sharded process).
func TestMuxFullProcessCrashReleasesEndpoint(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 2)
	peer, err := mux.Net(1).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for cycle := 0; cycle < 3; cycle++ {
		a, err := mux.Net(0).Attach(0)
		if err != nil {
			t.Fatalf("cycle %d attach g0: %v", cycle, err)
		}
		b, err := mux.Net(1).Attach(0)
		if err != nil {
			t.Fatalf("cycle %d attach g1: %v", cycle, err)
		}
		a.Close()
		// One group down, the real endpoint must survive for the other.
		peer.Send(0, []byte("alive"))
		if pkt, ok := recvOne(t, b, time.Second); !ok || string(pkt.Data) != "alive" {
			t.Fatalf("cycle %d: surviving group lost a frame: %q %v", cycle, pkt.Data, ok)
		}
		b.Close()
	}
}

// TestMuxRejectsBadFrames: an out-of-range group tag and a frame too short
// to carry one are dropped and accounted, not delivered or fatal.
func TestMuxRejectsBadFrames(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 1)

	vep, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	// A raw endpoint on the inner network bypasses the tagging.
	raw, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	raw.Send(1, []byte{0x07, 0x00, 'x'}) // gid 7 of 1 -> unknown
	raw.Send(1, []byte{0x01})            // 1 byte: malformed
	raw.Send(1, []byte{0x00, 0x00, 'y'}) // gid 0: valid

	pkt, ok := recvOne(t, vep, time.Second)
	if !ok || string(pkt.Data) != "y" {
		t.Fatalf("got %q %v; want the single valid frame y", pkt.Data, ok)
	}
	st := mux.Stats()
	if st.DroppedUnknown != 1 || st.DroppedMalformed != 1 {
		t.Fatalf("drop accounting = %+v; want 1 unknown + 1 malformed", st)
	}
}
