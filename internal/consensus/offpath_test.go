package consensus

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
)

// These tests place events between the issue of a write and its durability
// (storage.Held) and watch the wire (wireTap) for the two orderings the
// engine allows itself: phase 1 beside the proposal log, and a decision
// installed ahead of its cell. Nothing here sleeps; every wait is for a
// frame, a completion or a decision.

// handledFrame is one frame the engine has finished handling.
type handledFrame struct {
	from ids.ProcessID
	m    message
}

// wireTap sits between one engine and its router binding.
type wireTap struct {
	router.Net
	// onSend, when set, runs on the sending goroutine before the frame
	// leaves: what it observes is the state the engine sent the frame in.
	onSend func(m message)
	// drop, when set before the engine starts, withholds a frame from the
	// destinations it selects; a multisend then leaves as one send to each
	// of the n processes drop spares.
	drop func(to ids.ProcessID, m message) bool
	n    int

	mu   sync.Mutex
	sent []message

	// handled is buffered well past what these tests exchange; a full
	// buffer drops the notice, never blocks the receive loop.
	handled chan handledFrame
}

func newWireTap() *wireTap { return &wireTap{handled: make(chan handledFrame, 1024)} }

func (w *wireTap) bind(net router.Net) router.Net {
	w.Net = net
	return w
}

func (w *wireTap) record(payload []byte) message {
	m, err := decodeMessage(payload)
	if err != nil {
		return message{}
	}
	m.val = bytes.Clone(m.val) // payload is a pooled buffer
	if w.onSend != nil {
		w.onSend(m)
	}
	w.mu.Lock()
	w.sent = append(w.sent, m)
	w.mu.Unlock()
	return m
}

func (w *wireTap) Send(to ids.ProcessID, payload []byte) {
	m := w.record(payload)
	if w.drop == nil || !w.drop(to, m) {
		w.Net.Send(to, payload)
	}
}

func (w *wireTap) Multisend(payload []byte) {
	m := w.record(payload)
	if w.drop == nil {
		w.Net.Multisend(payload)
		return
	}
	for to := range w.n {
		if !w.drop(ids.ProcessID(to), m) {
			w.Net.Send(ids.ProcessID(to), payload)
		}
	}
}

// sentKind returns the frames of one kind sent so far for instance k.
func (w *wireTap) sentKind(kind uint8, k uint64) []message {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []message
	for _, m := range w.sent {
		if m.kind == kind && m.k == k {
			out = append(out, m)
		}
	}
	return out
}

func (w *wireTap) handler(h router.Handler) router.Handler {
	return func(from ids.ProcessID, payload []byte) {
		h(from, payload)
		if m, err := decodeMessage(payload); err == nil {
			select {
			case w.handled <- handledFrame{from, m}:
			default:
			}
		}
	}
}

// awaitHandled returns once the engine has handled frames of one kind for
// instance k (a lease frame's range start) from n distinct processes.
func (w *wireTap) awaitHandled(t *testing.T, ctx context.Context, kind uint8, k uint64, n int) {
	t.Helper()
	from := make(map[ids.ProcessID]bool)
	for len(from) < n {
		select {
		case f := <-w.handled:
			if f.m.kind == kind && f.m.k == k {
				from[f.from] = true
			}
		case <-ctx.Done():
			t.Fatalf("kind %d frames for instance %d from %d processes, want %d: %v", kind, k, len(from), n, ctx.Err())
		}
	}
}

func isKey(key string) func(string) bool {
	return func(k string) bool { return k == key }
}

func isDecisionCell(key string) bool { return strings.HasPrefix(key, "cons/d/") }

func waitAll(t *testing.T, ctx context.Context, tc *testCluster, k uint64, want []byte, pids ...int) {
	t.Helper()
	for _, p := range pids {
		got, err := tc.procs[p].eng.WaitDecided(ctx, k)
		if err != nil {
			t.Fatalf("p%d wait %d: %v", p, k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("p%d decided %q, want %q", p, got, want)
		}
	}
}

// heldProposalCluster starts three processes with p0's proposal cell for
// instance 0 held, proposes v at p0 and returns once p0 has handled the
// promises of p1 and p2: phase 1 has then run to its quorum while the
// proposal is not durable. It fails (at the deadline) on an engine that
// sends its prepare only after the proposal persist.
func heldProposalCluster(t *testing.T, ctx context.Context, v []byte) (*testCluster, *storage.Held, *wireTap) {
	t.Helper()
	held := storage.NewHeld(isKey(propKey(0)))
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 29},
		[]storage.Stable{held, storage.NewMem(), storage.NewMem()})
	tap := newWireTap()
	tap.onSend = func(m message) {
		if m.kind == mAccept && m.k == 0 && held.Pending(isKey(propKey(0))) > 0 {
			t.Errorf("mAccept (ballot %d, value %q) on the wire while the proposal write is held", m.b, m.val)
		}
	}
	tc.procs[0].tap = tap
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	if err := tc.procs[0].eng.Propose(0, v); err != nil {
		t.Fatal(err)
	}
	if held.Pending(isKey(propKey(0))) != 1 {
		t.Fatal("the proposal write is not held")
	}
	tap.awaitHandled(t, ctx, mPromise, 0, 2)
	if len(tap.sentKind(mPrepare, 0)) == 0 {
		t.Fatal("promises handled, but no mPrepare in p0's send log")
	}
	if held.Pending(isKey(propKey(0))) != 1 {
		t.Fatal("the proposal write resolved by itself")
	}
	return tc, held, tap
}

// TestPrepareRunsBesideProposalLog: phase 1 completes while the proposal
// write is held, no mAccept leaves before the release, and what leaves
// after it carries the proposal.
func TestPrepareRunsBesideProposalLog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v := []byte("beside-the-log")
	tc, held, tap := heldProposalCluster(t, ctx, v)
	defer tc.stopAll()

	if n := len(tap.sentKind(mAccept, 0)); n != 0 {
		t.Fatalf("%d mAccept sent before the proposal is durable", n)
	}
	held.Release(isKey(propKey(0)))
	waitAll(t, ctx, tc, 0, v, 0, 1, 2)
	for _, m := range tap.sentKind(mAccept, 0) {
		if !bytes.Equal(m.val, v) {
			t.Fatalf("mAccept carries %q, want the durable proposal %q", m.val, v)
		}
	}
	if got, ok := tc.procs[0].eng.Proposal(0); !ok || !bytes.Equal(got, v) {
		t.Fatalf("Proposal(0) = %q, %v", got, ok)
	}
}

// TestFailedProposalWriteNeverReachesTheWire: the proposal write fails after
// phase 1 reached its quorum. The ballot is given up — p0 never sends an
// mAccept — and the instance decides through p1, on p1's value.
func TestFailedProposalWriteNeverReachesTheWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tc, held, tap := heldProposalCluster(t, ctx, []byte("never-logged"))
	defer tc.stopAll()

	held.Crash()
	other := []byte("from-p1")
	if err := tc.procs[1].eng.Propose(0, other); err != nil {
		t.Fatal(err)
	}
	waitAll(t, ctx, tc, 0, other, 0, 1, 2)
	if sent := tap.sentKind(mAccept, 0); len(sent) != 0 {
		t.Fatalf("p0 sent %d mAccept (first carries %q) though its proposal never became durable", len(sent), sent[0].val)
	}
	if _, ok := tc.procs[0].eng.Proposal(0); ok {
		t.Fatal("p0 reports a proposal whose write failed")
	}
}

// TestDecisionInstalledAheadOfItsCell: WaitDecided and DecidedLocal answer
// at the coordinator and at a learner while both decision cells are held.
func TestDecisionInstalledAheadOfItsCell(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h0, h1 := storage.NewHeld(isDecisionCell), storage.NewHeld(isDecisionCell)
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 31},
		[]storage.Stable{h0, h1, storage.NewMem()})
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	defer tc.stopAll()

	v := []byte("ahead-of-the-cell")
	if err := tc.procs[0].eng.Propose(0, v); err != nil {
		t.Fatal(err)
	}
	waitAll(t, ctx, tc, 0, v, 0, 1)
	for p, h := range []*storage.Held{h0, h1} {
		if n := h.Pending(isKey(decKey(0))); n != 1 {
			t.Fatalf("p%d: %d decision writes held, want 1", p, n)
		}
		if _, ok, _ := h.Get(decKey(0)); ok {
			t.Fatalf("p%d: the decision cell is in the store though its write is held", p)
		}
		if got, ok := tc.procs[p].eng.DecidedLocal(0); !ok || !bytes.Equal(got, v) {
			t.Fatalf("p%d: DecidedLocal = %q, %v", p, got, ok)
		}
		h.Release(isDecisionCell)
		if got, ok, _ := h.Get(decKey(0)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("p%d: released decision cell = %q, %v", p, got, ok)
		}
	}
}

// TestCrashBetweenDecisionAndItsCell: p0 and p1 learn the decision of
// instance 0, return it from WaitDecided and crash before either decision
// cell is durable; p2 stays down afterwards, so in the second life the value
// can only come out of the acceptor cells of p0 and p1. p0 recovers as the
// coordinator of a logged proposal that lost — the chosen value is p2's —
// and must decide what its promise quorum returns, not what it logged; p1
// recovers with nothing logged and learns it.
func TestCrashBetweenDecisionAndItsCell(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h0 := storage.NewHeld(func(key string) bool { return key == propKey(0) || isDecisionCell(key) })
	h1 := storage.NewHeld(isDecisionCell)
	tc := newStoppedCluster(t, PolicyLeader, transport.MemOptions{Seed: 37},
		[]storage.Stable{h0, h1, storage.NewMem()})
	tap := newWireTap()
	tc.procs[0].tap = tap
	for p := range tc.procs {
		tc.start(ids.ProcessID(p), 1)
	}
	defer tc.stopAll()

	// p0's own value stays off the wire (its write is held), so the value
	// chosen in the first life is p2's.
	lost, chosen := []byte("p0-logged-but-lost"), []byte("p2-chosen")
	if err := tc.procs[0].eng.Propose(0, lost); err != nil {
		t.Fatal(err)
	}
	tap.awaitHandled(t, ctx, mPromise, 0, 2)
	if err := tc.procs[2].eng.Propose(0, chosen); err != nil {
		t.Fatal(err)
	}
	waitAll(t, ctx, tc, 0, chosen, 0, 1, 2)
	// Only now does p0's proposal reach its log: a recovered p0 finds a
	// proposal, an acceptor cell and no decision.
	if n := h0.Release(isKey(propKey(0))); n != 1 {
		t.Fatalf("released %d proposal writes, want 1", n)
	}
	for p, h := range []*storage.Held{h0, h1} {
		if n := h.Pending(isKey(decKey(0))); n != 1 {
			t.Fatalf("p%d: %d decision writes held, want 1", p, n)
		}
	}

	tc.crash(0)
	tc.crash(1)
	tc.crash(2)
	h0.Crash()
	h1.Crash()
	for p, h := range []*storage.Held{h0, h1} {
		if _, ok, _ := h.Get(decKey(0)); ok {
			t.Fatalf("p%d: a decision cell survived the crash", p)
		}
	}
	if got, ok, _ := h0.Get(propKey(0)); !ok || !bytes.Equal(got, lost) {
		t.Fatalf("p0's logged proposal = %q, %v", got, ok)
	}

	tc.procs[0].tap = nil
	tc.start(0, 2)
	tc.start(1, 2)
	if _, ok := tc.procs[0].eng.DecidedLocal(0); ok {
		t.Fatal("p0 recovered a decision it never logged")
	}
	if got, ok := tc.procs[0].eng.Proposal(0); !ok || !bytes.Equal(got, lost) {
		t.Fatalf("p0 recovered proposal %q, %v", got, ok)
	}
	if _, ok := tc.procs[1].eng.Proposal(0); ok {
		t.Fatal("p1 logged a proposal")
	}
	waitAll(t, ctx, tc, 0, chosen, 0, 1)
}
