package group

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// TestMuxCoalescesConcurrentFrames: with coalescing enabled, frames
// submitted by several groups of one process inside the flush window ride
// one inner transport write, and the receiver still demultiplexes every
// frame to its owning group.
func TestMuxCoalescesConcurrentFrames(t *testing.T) {
	const groups = 4
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMuxOpts(net, groups, MuxOptions{FlushDelay: 2 * time.Millisecond})

	senders := make([]transport.Endpoint, groups)
	receivers := make([]transport.Endpoint, groups)
	for g := 0; g < groups; g++ {
		var err error
		if senders[g], err = mux.Net(ids.GroupID(g)).Attach(0); err != nil {
			t.Fatalf("attach sender g%d: %v", g, err)
		}
		if receivers[g], err = mux.Net(ids.GroupID(g)).Attach(1); err != nil {
			t.Fatalf("attach receiver g%d: %v", g, err)
		}
	}

	before := net.Stats().Sent
	for g := 0; g < groups; g++ {
		senders[g].Send(1, []byte(fmt.Sprintf("frame-g%d", g)))
	}
	for g := 0; g < groups; g++ {
		pkt, ok := recvOne(t, receivers[g], time.Second)
		if !ok || string(pkt.Data) != fmt.Sprintf("frame-g%d", g) {
			t.Fatalf("g%d got %q", g, pkt.Data)
		}
	}
	// All four frames were submitted well inside one 2ms window: the
	// inner network must have seen fewer writes than frames.
	wrote := net.Stats().Sent - before
	if wrote >= groups {
		t.Fatalf("coalescing had no effect: %d inner writes for %d frames", wrote, groups)
	}
	st := mux.Stats()
	if st.CoalescedWrites == 0 || st.CoalescedFrames < 2 {
		t.Fatalf("coalescing not counted: %+v", st)
	}
}

// TestMuxCoalesceSizeTrigger: a queue at FlushBytes flushes immediately,
// without waiting for the delay trigger.
func TestMuxCoalesceSizeTrigger(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	// A long delay that the test would notice, with a small byte trigger.
	mux := NewMuxOpts(net, 1, MuxOptions{FlushDelay: 5 * time.Second, FlushBytes: 64})

	s, err := mux.Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	s.Send(1, payload)
	s.Send(1, payload) // 2nd frame crosses 64 queued bytes: inline flush
	for i := 0; i < 2; i++ {
		if _, ok := recvOne(t, r, time.Second); !ok {
			t.Fatalf("frame %d never flushed (size trigger broken)", i)
		}
	}
}

// TestMuxCoalescesMultisends: multisends from different groups coalesce
// into one inner multisend and reach every other process's matching group.
func TestMuxCoalescesMultisends(t *testing.T) {
	const groups = 3
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMuxOpts(net, groups, MuxOptions{FlushDelay: 2 * time.Millisecond})

	eps := make(map[[2]int]transport.Endpoint)
	for g := 0; g < groups; g++ {
		for p := 0; p < 2; p++ {
			ep, err := mux.Net(ids.GroupID(g)).Attach(ids.ProcessID(p))
			if err != nil {
				t.Fatal(err)
			}
			eps[[2]int{g, p}] = ep
		}
	}
	for g := 0; g < groups; g++ {
		eps[[2]int{g, 0}].Multisend([]byte(fmt.Sprintf("cast-g%d", g)))
	}
	for g := 0; g < groups; g++ {
		pkt, ok := recvOne(t, eps[[2]int{g, 1}], time.Second)
		if !ok || string(pkt.Data) != fmt.Sprintf("cast-g%d", g) {
			t.Fatalf("g%d p1 got %q", g, pkt.Data)
		}
	}
}

// TestMuxCoalescedMalformedSubframes: corrupt coalesced frames (bad
// length prefix, nested coalescing, truncated tag) are dropped without
// disturbing the endpoint.
func TestMuxCoalescedMalformedSubframes(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 1)

	// p1's mux endpoint is the receiver under attack; p0 sends raw frames
	// through the inner network, bypassing the sending-side mux.
	r, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	coal := func(sub ...[]byte) []byte {
		buf := make([]byte, tagLen)
		binary.LittleEndian.PutUint16(buf, coalTag)
		for _, f := range sub {
			buf = binary.AppendUvarint(buf, uint64(len(f)))
			buf = append(buf, f...)
		}
		return buf
	}
	tagged := func(tag uint16, payload string) []byte {
		buf := make([]byte, tagLen+len(payload))
		binary.LittleEndian.PutUint16(buf, tag)
		copy(buf[tagLen:], payload)
		return buf
	}

	// Length prefix past the end of the frame.
	bad := coal(tagged(0, "x"))
	bad[tagLen] = 0xE0 // inflate the first uvarint length
	raw.Send(1, bad)
	// Nested coalescing.
	raw.Send(1, coal(coal(tagged(0, "nested"))))
	// Sub-frame too short to carry a tag.
	raw.Send(1, coal([]byte{0x01}))
	// A good frame after the garbage still arrives.
	raw.Send(1, coal(tagged(0, "good"), tagged(0, "good2")))

	pkt, ok := recvOne(t, r, time.Second)
	if !ok || string(pkt.Data) != "good" {
		t.Fatalf("got %q, want good", pkt.Data)
	}
	pkt, ok = recvOne(t, r, time.Second)
	if !ok || string(pkt.Data) != "good2" {
		t.Fatalf("got %q, want good2", pkt.Data)
	}
	if st := mux.Stats(); st.DroppedMalformed == 0 {
		t.Fatalf("malformed sub-frames not counted: %+v", st)
	}
}

// TestMuxProcLane: the process-level lane delivers to ProcNet endpoints,
// is isolated from the group lanes, and shares the refcounted real
// endpoint (crashing every lane frees the pid; frames to a closed proc
// lane are dropped like any detached group's).
func TestMuxProcLane(t *testing.T) {
	net := transport.NewMem(2, transport.MemOptions{})
	defer net.Close()
	mux := NewMux(net, 2)

	g0p0, err := mux.Net(0).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	proc0, err := mux.ProcNet().Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	proc1, err := mux.ProcNet().Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	g0p1, err := mux.Net(0).Attach(1)
	if err != nil {
		t.Fatal(err)
	}

	// Proc-lane traffic reaches only the proc lane.
	proc0.Multisend([]byte("hb"))
	pkt, ok := recvOne(t, proc1, time.Second)
	if !ok || string(pkt.Data) != "hb" || pkt.From != 0 {
		t.Fatalf("proc lane got %q from %v", pkt.Data, pkt.From)
	}
	// Group traffic does not leak into the proc lane, and vice versa.
	g0p0.Send(1, []byte("group-frame"))
	if pkt, ok := recvOne(t, g0p1, time.Second); !ok || string(pkt.Data) != "group-frame" {
		t.Fatalf("group lane got %q", pkt.Data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if pkt, err := proc1.Recv(ctx); err == nil {
		t.Fatalf("proc lane leaked group frame %q", pkt.Data)
	}
	cancel()

	// Double attach of the proc lane fails like a group lane's.
	if _, err := mux.ProcNet().Attach(0); err == nil {
		t.Fatal("double proc-lane attach succeeded")
	}

	// Close p1's proc lane: its heartbeats are dropped while the group
	// lane stays up.
	proc1.Close()
	proc0.Multisend([]byte("hb2"))
	if pkt, ok := recvOne(t, g0p1, time.Second); !ok || string(pkt.Data) != "hb2" {
		// The group lane must still see group traffic...
		_ = pkt
	}
	// ...which there is none of; what matters is the drop counter.
	deadline := time.Now().Add(time.Second)
	for mux.Stats().DroppedDetached == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := mux.Stats(); st.DroppedDetached == 0 {
		t.Fatalf("closed proc lane's frames not dropped: %+v", st)
	}

	// Closing every lane of p1 frees the pid for re-attach (recovery).
	g0p1.Close()
	if _, err := mux.ProcNet().Attach(1); err != nil {
		t.Fatalf("re-attach proc lane after full close: %v", err)
	}
}

// FuzzSplitCoalesced feeds arbitrary bytes to the receive side of the
// write-coalescing mux as the body of a coalesced frame. No input may
// panic it; every well-formed subframe (a uvarint length, a lane tag, a
// payload) is dispatched exactly once, in order, to the lane its tag names
// — counted as unknown or detached where there is none — and every
// malformed one (a length past the end, which ends the frame; a subframe
// too short for a tag; a nested coalesced frame) is counted. The
// dispatched subframes, coalesced again, split into the same dispatch with
// nothing malformed. testdata/fuzz holds the encodings of the coalescer
// and the malformed shapes of TestMuxCoalescedMalformedSubframes.
func FuzzSplitCoalesced(f *testing.F) {
	type sub struct {
		tag     uint16
		payload string
	}
	// split runs one coalesced body through a process with lanes 0 and the
	// process lane attached, lane 1 of 2 detached.
	split := func(body []byte) (got []sub, st MuxStats) {
		m := NewMux(nil, 2)
		pm := &procMux{m: m, veps: make(map[uint16]*muxEndpoint)}
		for _, tag := range []uint16{0, procTag} {
			pm.veps[tag] = &muxEndpoint{pm: pm, tag: tag, inbox: make(chan transport.Packet, len(body)+1)}
		}
		pm.splitCoalesced(1, body)
		for _, tag := range []uint16{0, procTag} {
			for len(pm.veps[tag].inbox) > 0 {
				pkt := <-pm.veps[tag].inbox
				got = append(got, sub{tag, string(pkt.Data)})
			}
		}
		return got, m.Stats()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The model: the subframes the format says are there.
		var want []sub
		var malformed, unknown, detached int64
		for rest := body; len(rest) > 0; {
			n, sz := binary.Uvarint(rest)
			if sz <= 0 || n > uint64(len(rest)-sz) {
				malformed++
				break
			}
			frame := rest[sz : sz+int(n)]
			rest = rest[sz+int(n):]
			switch {
			case len(frame) < tagLen || binary.LittleEndian.Uint16(frame) == coalTag:
				malformed++
			case binary.LittleEndian.Uint16(frame) == 1:
				detached++
			case binary.LittleEndian.Uint16(frame) == 0 || binary.LittleEndian.Uint16(frame) == procTag:
				want = append(want, sub{binary.LittleEndian.Uint16(frame), string(frame[tagLen:])})
			default:
				unknown++
			}
		}
		got, st := split(body)
		// Lanes drain one after the other: compare per lane, in order.
		byLane := func(ss []sub, tag uint16) (out []string) {
			for _, s := range ss {
				if s.tag == tag {
					out = append(out, s.payload)
				}
			}
			return out
		}
		for _, tag := range []uint16{0, procTag} {
			if g, w := byLane(got, tag), byLane(want, tag); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("lane %#x got %q, want %q", tag, g, w)
			}
		}
		if st.DroppedMalformed != malformed || st.DroppedUnknown != unknown || st.DroppedDetached != detached ||
			st.Demuxed != int64(len(want)) || st.DroppedOverrun != 0 {
			t.Fatalf("counters %+v, want %d malformed, %d unknown, %d detached, %d dispatched",
				st, malformed, unknown, detached, len(want))
		}
		// Coalesce what was dispatched again: the same dispatch, nothing
		// malformed.
		var again []byte
		for _, s := range want {
			again = binary.AppendUvarint(again, uint64(tagLen+len(s.payload)))
			again = binary.LittleEndian.AppendUint16(again, s.tag)
			again = append(again, s.payload...)
		}
		got2, st2 := split(again)
		if fmt.Sprint(got2) != fmt.Sprint(got) || st2.DroppedMalformed != 0 {
			t.Fatalf("re-coalesced: %q (%d malformed), want %q", got2, st2.DroppedMalformed, got)
		}
	})
}
