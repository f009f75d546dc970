package transport

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/testenv"
)

// stubDial replaces the endpoints' dialer for the rest of the test. Call
// it before attaching: endpoints closed by later cleanups have no dial
// left running when the real dialer comes back.
func stubDial(t *testing.T, dial func(ctx context.Context, addr string) (net.Conn, error)) {
	t.Helper()
	real := dialTCP
	dialTCP = dial
	t.Cleanup(func() { dialTCP = real })
}

// waitConnected waits until ep has a connection to each peer and no dial
// in flight, so what follows writes straight to the sockets.
func waitConnected(t *testing.T, ep Endpoint, peers ...ids.ProcessID) {
	t.Helper()
	e := ep.(*tcpEndpoint)
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range peers {
		for {
			e.mu.Lock()
			up := e.links[p].conn != nil && !e.links[p].dialing
			e.mu.Unlock()
			if up {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("p%d never connected to p%d", e.pid, p)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// expectFrames receives len(want) packets at ep and checks them in order.
func expectFrames(t *testing.T, ep Endpoint, want ...string) {
	t.Helper()
	for i, w := range want {
		pkt, err := recvOne(t, ep, 5*time.Second)
		if err != nil || string(pkt.Data) != w {
			t.Fatalf("frame %d: got %q, %v; want %q", i, pkt.Data, err, w)
		}
	}
}

// TestTCPSendDoesNotWaitForADial: Send and Multisend return while the
// peer's dial hangs; the frames sent meanwhile, up to maxPending, are
// written in order once it connects, and the rest are dropped.
func TestTCPSendDoesNotWaitForADial(t *testing.T) {
	release := make(chan struct{})
	stubDial(t, func(ctx context.Context, addr string) (net.Conn, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	a, b := tcpPair(t)
	var queued []string
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := range maxPending + 5 {
			f := fmt.Sprintf("frame %d", i)
			if i%2 == 0 {
				a.Send(1, []byte(f))
			} else {
				a.Multisend([]byte(f))
			}
			if i < maxPending {
				queued = append(queued, f)
			}
		}
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a dial in flight")
	}
	close(release)
	expectFrames(t, b, queued...)
	waitConnected(t, a, 1)
	a.Send(1, []byte("after the dial"))
	expectFrames(t, b, "after the dial")
}

// TestTCPFirstFramesToALivePeerArrive: a burst sent the moment an
// endpoint attaches, while its first dial is in flight, arrives whole and
// in order.
func TestTCPFirstFramesToALivePeerArrive(t *testing.T) {
	a, b := tcpPair(t)
	var sent []string
	for i := range maxPending {
		f := fmt.Sprintf("early %d", i)
		a.Send(1, []byte(f))
		sent = append(sent, f)
	}
	expectFrames(t, b, sent...)
}

// TestTCPBacksOffARefusingPeer: 200 ms of sends to a peer that refuses
// connections dial it about ten times, not once per frame, and a frame to
// it in backoff allocates nothing.
func TestTCPBacksOffARefusingPeer(t *testing.T) {
	var dials atomic.Int32
	stubDial(t, func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	a, err := NewTCP(loopbackAddrs(t, 3)).Attach(0) // nobody listens for p1 and p2
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	payload := []byte("anyone there?")
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		a.Send(1, payload)
		a.Multisend(payload)
		time.Sleep(20 * time.Microsecond)
	}
	// Per peer, the backoffs 1, 2, 4, ... 32, 50, 50 ms leave room for
	// nine dials in 200 ms.
	n := dials.Load()
	if n > 2*10 || n < 2*3 {
		t.Fatalf("200 ms of sends to two refusing peers made %d dials; want 6 to 20", n)
	}
	t.Logf("200 ms of sends to two refusing peers made %d dials", n)
	if testenv.Race {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Send(1, payload) }); allocs != 0 {
		t.Fatalf("a send to a peer in backoff allocates %.0f objects; want 0", allocs)
	}
}

// TestTCPRedialsAPeerThatIsBack: a peer in backoff that re-attaches is
// connected to at once, in both directions, before either side sends a
// frame: it dials its peers as it attaches, and the accepted connection
// makes the other side redial it. Without that, the other side would not
// dial again until its next frame, after the backoff.
func TestTCPRedialsAPeerThatIsBack(t *testing.T) {
	var failed atomic.Int32
	stubDial(t, func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			failed.Add(1)
		}
		return c, err
	})
	tn := NewTCP(loopbackAddrs(t, 2))
	a, err := tn.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// p1 is down: fail dials until the backoff is at its cap.
	for failed.Load() < 8 {
		a.Send(1, []byte("down?"))
		time.Sleep(100 * time.Microsecond)
	}
	b, err := tn.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitConnected(t, b, 0)
	waitConnected(t, a, 1)
	a.Send(1, []byte("welcome back"))
	expectFrames(t, b, "welcome back")
}

// TestTCPCloseAbortsADialInFlight: Close cancels a hanging dial, returns,
// and leaves no dial goroutine behind.
func TestTCPCloseAbortsADialInFlight(t *testing.T) {
	var once sync.Once
	entered := make(chan struct{})
	stubDial(t, func(ctx context.Context, addr string) (net.Conn, error) {
		once.Do(func() { close(entered) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	a, err := NewTCP(loopbackAddrs(t, 2)).Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	a.Send(1, []byte("into the void"))
	<-entered
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a dial in flight")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*tcpEndpoint).dial(") {
		t.Fatalf("a dial goroutine outlived Close:\n%s", stacks)
	}
}
