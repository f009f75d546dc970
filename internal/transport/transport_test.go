package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/testenv"
)

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) (Packet, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return ep.Recv(ctx)
}

func TestMemDeliversPointToPoint(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 1})
	defer net.Close()
	a, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Send(1, []byte("hi"))
	pkt, err := recvOne(t, b, time.Second)
	if err != nil || pkt.From != 0 || string(pkt.Data) != "hi" {
		t.Fatalf("recv: %+v %v", pkt, err)
	}
}

func TestMemDropsWhileDetached(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 3})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	b.Close() // p1 goes down

	a.Send(1, []byte("lost"))
	// Reattach: the message sent while down must NOT be delivered (§2.1).
	b2, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if pkt, err := b2.Recv(ctx); err == nil {
		t.Fatalf("message survived downtime: %+v", pkt)
	}
	if net.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestMemDoubleAttachRejected(t *testing.T) {
	net := NewMem(1, MemOptions{Seed: 4})
	defer net.Close()
	_, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(0); !errors.Is(err, ErrDetached) {
		t.Fatalf("want ErrDetached, got %v", err)
	}
}

func TestMemLossIsFairNotTotal(t *testing.T) {
	// 50% loss: over many sends, some get through and some are lost —
	// the fair-lossy property the gossip task relies on.
	net := NewMem(2, MemOptions{Seed: 5, Loss: 0.5})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	for i := 0; i < 200; i++ {
		a.Send(1, []byte{byte(i)})
	}
	received := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := b.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
		received++
	}
	if received == 0 || received == 200 {
		t.Fatalf("loss not fair: received %d/200", received)
	}
	st := net.Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMemDuplication(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 7, Dup: 1.0})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	a.Send(1, []byte("twice"))
	for i := 0; i < 2; i++ {
		pkt, err := recvOne(t, b, time.Second)
		if err != nil || string(pkt.Data) != "twice" {
			t.Fatalf("copy %d: %v %v", i, pkt, err)
		}
	}
}

func TestMemDelayedDeliveryArrives(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 8, MinDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	start := time.Now()
	a.Send(1, []byte("later"))
	pkt, err := recvOne(t, b, time.Second)
	if err != nil || string(pkt.Data) != "later" {
		t.Fatalf("recv: %v %v", pkt, err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("delivery was not delayed")
	}
}

func TestMemPartitionAndHeal(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 9})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	net.Partition([]ids.ProcessID{0}, []ids.ProcessID{1})
	a.Send(1, []byte("blocked"))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctx); err == nil {
		t.Fatal("message crossed the partition")
	}
	net.Heal()
	a.Send(1, []byte("through"))
	pkt, err := recvOne(t, b, time.Second)
	if err != nil || string(pkt.Data) != "through" {
		t.Fatalf("after heal: %v %v", pkt, err)
	}
}

func TestMemLinkLossOverride(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 10})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	net.SetLinkLoss(0, 1, 1.0) // directed: everything 0->1 lost
	a.Send(1, []byte("gone"))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(ctx); err == nil {
		t.Fatal("message survived total link loss")
	}
	net.SetLinkLoss(0, 1, -1) // restore default
	a.Send(1, []byte("back"))
	if pkt, err := recvOne(t, b, time.Second); err != nil || string(pkt.Data) != "back" {
		t.Fatalf("after restore: %v %v", pkt, err)
	}
}

func TestMemRecvHonorsContext(t *testing.T) {
	net := NewMem(1, MemOptions{Seed: 11})
	defer net.Close()
	a, _ := net.Attach(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline, got %v", err)
	}
}

func TestMemRecvAfterCloseReturnsErrClosed(t *testing.T) {
	net := NewMem(1, MemOptions{Seed: 12})
	defer net.Close()
	a, _ := net.Attach(0)
	a.Close()
	if _, err := a.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestMemSenderBufferCopied(t *testing.T) {
	net := NewMem(2, MemOptions{Seed: 13})
	defer net.Close()
	a, _ := net.Attach(0)
	b, _ := net.Attach(1)
	buf := []byte("original")
	a.Send(1, buf)
	copy(buf, "MUTATED!")
	pkt, err := recvOne(t, b, time.Second)
	if err != nil || string(pkt.Data) != "original" {
		t.Fatalf("buffer aliased: %q %v", pkt.Data, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	net := NewTCP(loopbackAddrs(t, 2))
	if net.N() != 2 {
		t.Fatal("N wrong")
	}
	a, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Delivery is best-effort; retry like the gossip task would.
	deadline := time.Now().Add(5 * time.Second)
	var pkt Packet
	for time.Now().Before(deadline) {
		a.Send(1, []byte("over tcp"))
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		p, err := b.Recv(ctx)
		cancel()
		if err == nil {
			pkt = p
			break
		}
	}
	if string(pkt.Data) != "over tcp" || pkt.From != 0 {
		t.Fatalf("tcp recv: %+v", pkt)
	}

	// Multisend reaches the other process.
	deadline = time.Now().Add(5 * time.Second)
	got := false
	for time.Now().Before(deadline) && !got {
		b.Multisend([]byte("multi"))
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		p, err := a.Recv(ctx)
		cancel()
		if err == nil && string(p.Data) == "multi" {
			got = true
		}
	}
	if !got {
		t.Fatal("multisend never arrived")
	}
}

func TestTCPReattachAfterClose(t *testing.T) {
	net := NewTCP(loopbackAddrs(t, 1))
	a, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a2, err := net.Attach(0)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	a2.Close()
}

func TestSchedulerRunsCallbacksInOrder(t *testing.T) {
	s := newScheduler()
	defer s.stop()
	ch := make(chan int, 3)
	s.after(30*time.Millisecond, func() { ch <- 3 })
	s.after(10*time.Millisecond, func() { ch <- 1 })
	s.after(20*time.Millisecond, func() { ch <- 2 })
	var got []int
	for i := 0; i < 3; i++ {
		select {
		case v := <-ch:
			got = append(got, v)
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout, got %v", got)
		}
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order: %v", got)
	}
}

func TestSchedulerStopDiscardsPending(t *testing.T) {
	s := newScheduler()
	fired := make(chan struct{}, 1)
	s.after(50*time.Millisecond, func() { fired <- struct{}{} })
	s.stop()
	select {
	case <-fired:
		t.Fatal("callback ran after stop")
	case <-time.After(100 * time.Millisecond):
	}
	// after() on a stopped scheduler is a no-op, not a panic.
	s.after(time.Millisecond, func() { fired <- struct{}{} })
}

// tcpPair attaches two endpoints of a loopback TCP network on free ports.
func tcpPair(tb testing.TB) (a, b Endpoint) {
	tb.Helper()
	tn := NewTCP(loopbackAddrs(tb, 2))
	a, err := tn.Attach(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	b, err = tn.Attach(1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { b.Close() })
	return a, b
}

// TestSendBorrowsItsArgument is the sender's half of the ownership rule on
// every path a transport has: the argument of Send/Multisend may be
// scribbled on the moment the call returns, and what arrives is what was
// passed.
func TestSendBorrowsItsArgument(t *testing.T) {
	const want = "the bytes that were sent"
	mem := NewMem(2, MemOptions{Seed: 21})
	defer mem.Close()
	m0, _ := mem.Attach(0)
	m1, _ := mem.Attach(1)
	t0, t1 := tcpPair(t)
	for _, tc := range []struct {
		name     string
		src, dst Endpoint
	}{
		{"mem", m0, m1},
		{"tcp", t0, t1},
	} {
		for _, multi := range []bool{false, true} {
			buf := []byte(want)
			if multi {
				tc.src.Multisend(buf)
			} else {
				tc.src.Send(tc.dst.Local(), buf)
			}
			for i := range buf {
				buf[i] = 0xEE
			}
			pkt, err := recvOne(t, tc.dst, 5*time.Second)
			if err != nil || string(pkt.Data) != want {
				t.Fatalf("%s (multisend=%v): got %q, %v", tc.name, multi, pkt.Data, err)
			}
		}
	}
}

// TestTCPReceivedFramesAreNeverRecycled is the receiver's half: a packet
// kept across later traffic (which cycles the write path's pooled, poisoned
// buffers many times over) still reads as it arrived.
func TestTCPReceivedFramesAreNeverRecycled(t *testing.T) {
	a, b := tcpPair(t)
	a.Send(1, []byte("keep me"))
	kept, err := recvOne(t, b, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.Send(1, []byte("filler filler filler"))
		if _, err := recvOne(t, b, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if string(kept.Data) != "keep me" {
		t.Fatalf("kept packet changed under later traffic: %q", kept.Data)
	}
}

// TestTCPReceiveAllocBudget fails when receiving a small frame costs more
// than the frame: one exact-size allocation (64 B here; it was a 4 KiB
// pooled buffer per frame that never went back to its pool), and nothing on
// the write path in steady state.
func TestTCPReceiveAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	a, b := tcpPair(t)
	payload := make([]byte, 64)
	ctx := context.Background()
	roundTrip := func() {
		a.Send(1, payload)
		if _, err := b.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // dial
	res := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			roundTrip()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 128 {
		t.Fatalf("TCP send+receive of a 64 B frame allocates %d B/op, budget 128", got)
	}
}

// TestTCPMultisendCopiesNothing: a warmed Multisend of a 32 KiB payload
// allocates no value-sized object. One pooled frame assembly is written to
// every other process, and no copy is made for the sender.
func TestTCPMultisendCopiesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	addrs := loopbackAddrs(t, 3)
	// The peers are bare sinks whose reads allocate nothing, so every
	// allocation counted is the sender's.
	for _, addr := range addrs[1:] {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer c.Close()
					buf := make([]byte, 64<<10)
					for {
						if _, err := c.Read(buf); err != nil {
							return
						}
					}
				}()
			}
		}()
	}
	ep, err := NewTCP(addrs).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	payload := make([]byte, 32<<10)
	ep.Multisend(payload) // dial both peers, size the pooled frame
	// The dials run in the background: until both are connected, frames
	// would be queued as copies.
	waitConnected(t, ep, 1, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, func() { ep.Multisend(payload) })
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / 101; allocs != 0 || perRun >= uint64(len(payload))/8 {
		t.Fatalf("Multisend of %d B allocates %.0f objects, %d B per call; want none", len(payload), allocs, perRun)
	}
}
