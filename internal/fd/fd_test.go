package fd

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeNet captures multisends.
type fakeNet struct {
	mu   sync.Mutex
	sent [][]byte
}

var _ router.Net = (*fakeNet)(nil)

func (f *fakeNet) Send(to ids.ProcessID, payload []byte) {}
func (f *fakeNet) Multisend(payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	f.sent = append(f.sent, cp)
}
func (f *fakeNet) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

func TestHeartbeatTaskBeats(t *testing.T) {
	net := &fakeNet{}
	d := New(0, 3, 1, Options{Heartbeat: 2 * time.Millisecond}, net)
	ctx, cancel := context.WithCancel(context.Background())
	d.Start(ctx)
	time.Sleep(20 * time.Millisecond)
	cancel()
	d.Stop()
	if net.count() < 3 {
		t.Fatalf("only %d heartbeats", net.count())
	}
}

// TestStoppedDetectorSendsNothing: once Stop returns (and a beat already
// on its way has left), no heartbeat leaves for three intervals, and a
// Start after Stop arms no tick.
func TestStoppedDetectorSendsNothing(t *testing.T) {
	const every = 5 * time.Millisecond
	net := &fakeNet{}
	d := New(0, 3, 1, Options{Heartbeat: every}, net)
	d.Start(context.Background())
	for deadline := time.Now().Add(5 * time.Second); net.count() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the detector never beat")
		}
	}
	d.Stop()
	time.Sleep(time.Millisecond)
	sent := net.count()
	time.Sleep(3 * every)
	if n := net.count(); n != sent {
		t.Fatalf("%d heartbeats after Stop", n-sent)
	}
	d.Start(context.Background())
	time.Sleep(3 * every)
	if n := net.count(); n != sent {
		t.Fatalf("a Start after Stop sent %d heartbeats", n-sent)
	}
}

// ms is one millisecond of the machine's clock.
const ms = int64(time.Millisecond)

func TestSuspicionLifecycle(t *testing.T) {
	m := NewMachine(0, 3, 1, Options{Heartbeat: 5 * time.Millisecond, Timeout: 20 * time.Millisecond})
	now := 1000 * ms
	m.Start(now)

	// Never-heard processes get the grace of the timeout from the start,
	// and no more.
	if m.Suspects(now, 1) || m.Suspects(now+20*ms, 2) {
		t.Fatal("grace period ignored")
	}
	if !m.Suspects(now+21*ms, 2) {
		t.Fatal("a process never heard from is trusted past the grace")
	}
	// Fresh heartbeat: trusted.
	m.Heartbeat(now, 1, 7)
	if m.Suspects(now, 1) {
		t.Fatal("fresh heartbeat suspected")
	}
	if m.Epoch(1) != 7 {
		t.Fatalf("epoch = %d", m.Epoch(1))
	}
	// Silence beyond the timeout: suspected, and the next tick says so.
	now += 50 * ms
	if !m.Suspects(now, 1) {
		t.Fatal("silent process not suspected")
	}
	m.Tick(now)
	if !hasEffect(m.Effects(), OpSuspect, 1) {
		t.Fatal("the tick published no suspicion of p1")
	}
	// It speaks again with a higher epoch (it recovered): trusted again.
	m.Heartbeat(now, 1, 8)
	if !hasEffect(m.Effects(), OpEpoch, 1) {
		t.Fatal("no epoch transition for the recovered p1")
	}
	if m.Suspects(now, 1) {
		t.Fatal("recovered process still suspected")
	}
	if m.Epoch(1) != 8 {
		t.Fatalf("epoch after recovery = %d", m.Epoch(1))
	}
	m.Tick(now)
	if !hasEffect(m.Effects(), OpTrust, 1) {
		t.Fatal("the tick published no re-trust of p1")
	}
}

// hasEffect reports whether effs holds an op about peer.
func hasEffect(effs []Effect, op uint8, peer ids.ProcessID) bool {
	for _, ef := range effs {
		if ef.Op == op && ef.Peer == peer {
			return true
		}
	}
	return false
}

func TestNeverSuspectsSelf(t *testing.T) {
	m := NewMachine(2, 3, 1, Options{})
	m.Heartbeat(0, 2, 1)
	if m.Suspects(3600_000*ms, 2) {
		t.Fatal("self-suspicion")
	}
}

func TestLeaderIsLowestTrusted(t *testing.T) {
	m := NewMachine(2, 3, 1, Options{Timeout: 10 * time.Millisecond})
	now := 1000 * ms
	m.Heartbeat(now, 0, 1)
	m.Heartbeat(now, 1, 1)
	if m.Leader(now) != 0 {
		t.Fatalf("leader = %v", m.Leader(now))
	}
	// p0 goes silent past the timeout; p1 stays fresh.
	now += 20 * ms
	m.Heartbeat(now, 1, 1)
	if m.Leader(now) != 1 {
		t.Fatalf("leader after p0 silence = %v", m.Leader(now))
	}
}

func TestEpochNeverRegresses(t *testing.T) {
	m := NewMachine(0, 2, 1, Options{})
	m.Heartbeat(0, 1, 9)
	m.Heartbeat(0, 1, 3) // stale duplicate from an old incarnation
	if m.Epoch(1) != 9 {
		t.Fatalf("epoch regressed to %d", m.Epoch(1))
	}
}

func TestMalformedHeartbeatIgnored(t *testing.T) {
	d := New(0, 2, 1, Options{}, &fakeNet{})
	d.OnMessage(1, nil)
	d.OnMessage(1, []byte{0xff}) // truncated varint
	d.OnMessage(99, []byte{1})   // out-of-range pid
	d.OnMessage(-1, []byte{1})   // negative pid
	if d.Epoch(1) != 0 {
		t.Fatal("malformed heartbeat had effect")
	}
}

func TestTrustedListOverRealNetwork(t *testing.T) {
	memNet := transport.NewMem(2, transport.MemOptions{Seed: 3})
	defer memNet.Close()
	var rts []*router.Router
	var dets []*Detector
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for p := 0; p < 2; p++ {
		ep, err := memNet.Attach(ids.ProcessID(p))
		if err != nil {
			t.Fatal(err)
		}
		rt := router.New(ep)
		det := New(ids.ProcessID(p), 2, 1, Options{
			Heartbeat: 2 * time.Millisecond,
			Timeout:   20 * time.Millisecond,
		}, rt.Bound(router.ChanFD))
		rt.Handle(router.ChanFD, det.OnMessage)
		rt.Start(ctx)
		det.Start(ctx)
		rts = append(rts, rt)
		dets = append(dets, det)
	}
	defer func() {
		cancel()
		for i := range rts {
			rts[i].Stop()
			dets[i].Stop()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(dets[0].Trusted()) == 2 && dets[0].Leader() == 0 && dets[1].Leader() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("detectors never converged: trusted=%v", dets[0].Trusted())
}

// TestSharedViewsReTrustRecoveredEpoch is the shared-FD recovery contract:
// every group of a sharded process reads the one process-level detector, so
// all of them see the same suspicion flip when a peer crashes, and when the
// peer recovers with a higher epoch they re-trust it at that new epoch at
// once — per-group crash semantics are preserved precisely because the
// groups of a process share its lifecycle.
func TestSharedViewsReTrustRecoveredEpoch(t *testing.T) {
	d := New(0, 3, 1, Options{Heartbeat: 5 * time.Millisecond, Timeout: 20 * time.Millisecond}, &fakeNet{})
	var groups [3]*Detector
	for g := range groups {
		groups[g] = d // what a sharded process hands each group's engine
	}
	m := d.m // the detector's machine, stepped here on a virtual clock
	now := 1000 * ms

	// p1 alive at epoch 2: every group trusts it and reads the epoch.
	m.Heartbeat(now, 1, 2)
	for g, v := range groups {
		if m.Suspects(now, 1) || v.Epoch(1) != 2 {
			t.Fatalf("g%d: fresh peer suspected or epoch=%d", g, v.Epoch(1))
		}
	}

	// p1 crashes (silence beyond the timeout): suspected.
	now += 50 * ms
	if !m.Suspects(now, 1) || m.Leader(now) != 0 {
		t.Fatal("crashed peer not suspected")
	}

	// p1 recovers and heartbeats at epoch 3: re-trusted at the new epoch,
	// through the adapter every group holds.
	hb := wire.NewWriter(8)
	EncodeHeartbeat(hb, 3)
	d.OnMessage(1, hb.Bytes())
	for g, v := range groups {
		if v.Suspects(1) {
			t.Fatalf("g%d: recovered peer still suspected", g)
		}
		if v.Epoch(1) != 3 {
			t.Fatalf("g%d: epoch after recovery = %d, want 3", g, v.Epoch(1))
		}
		if v.SelfEpoch() != 1 || len(v.Trusted()) != 3 {
			t.Fatalf("g%d: self epoch %d, trusted %v", g, v.SelfEpoch(), v.Trusted())
		}
	}
}
