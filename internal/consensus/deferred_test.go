package consensus

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/testenv"
)

// A non-holder's proposal under another process's lease is deferred: never
// logged, never sent, and in the steady state not decided either. It lives
// in a pooled buffer, not in a heap copy of its own, until its instance
// ends or the process takes over.

// TestDeferredProposalAllocatesNoCopy: at a warmed non-holder whose grant
// covers k, the cycle "propose a 32 KiB batch, take the holder's accept,
// decide by ballot" allocates well under the value: the deferred value's
// buffer goes back to the pool at the decision and the next propose takes
// it again.
func TestDeferredProposalAllocatesNoCopy(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const b = 4 // p0's ballot at attempt 1
	m := newMachine(Config{PID: 1, N: 3}, &simFD{leader: 0, suspect: make([]bool, 3)})
	m.grantHeld, m.grantB, m.grantFrom = true, b, 0
	m.start()
	v := make([]byte, 32<<10+64) // one 32 KiB payload and its batch header
	held := make([]byte, len(v)) // the holder's value, a slice of its accept frame
	drain := func() {
		for i := 0; m.more(i); i++ {
			if ef := m.out[i]; ef.op == opPut {
				m.persisted(&ef, nil) // every write durable at once
			}
		}
		m.drained()
	}
	k := uint64(0)
	cycle := func() {
		if err := m.propose(k, v, 0); err != nil {
			t.Fatal(err)
		}
		drain()
		m.receive(0, message{kind: mAccept, k: k, b: b, val: held})
		drain()
		m.receive(0, message{kind: mChosen, k: k, b: b})
		drain()
		if in := m.insts[k]; !in.hasDec || !in.propDeferred {
			t.Fatalf("instance %d: decided %v, deferred %v", k, in.hasDec, in.propDeferred)
		}
		k++
	}
	for range 16 {
		cycle()
	}
	const cycles = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("a deferred %d B proposal's cycle allocates %d B", len(v), per)
	if per >= 4<<10 {
		t.Errorf("a deferred %d B proposal's cycle allocates %d B, budget 4 KiB", len(v), per)
	}
}

// TestDiscardDropsDeferredProposal: a deferred instance that DiscardBelow
// drops before any decision gives its buffer back, and nothing the machine
// keeps points into that buffer afterwards; the instances above the floor
// still decide.
func TestDiscardDropsDeferredProposal(t *testing.T) {
	s := newScriptedSim(t, simOptions{})
	k := s.grantToP0(t, 0)
	s.propose(1, k, wideVal(1, k))
	m1 := s.procs[1].m
	in := m1.insts[k]
	if in.pooled == nil {
		t.Fatalf("p1's proposal for %d is not in a pooled buffer", k)
	}
	buf := in.pooled.Bytes()
	s.discardBelow(1, k+1)
	if in.pooled != nil || in.proposal != nil {
		t.Fatalf("the discarded instance %d still holds its deferred value", k)
	}
	if _, ok := m1.insts[k]; ok {
		t.Fatalf("instance %d survived the discard", k)
	}
	into := func(b []byte) bool {
		if len(b) == 0 {
			return false
		}
		lo, p := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return p >= lo && p < lo+uintptr(cap(buf))
	}
	for kk, other := range m1.insts {
		if into(other.proposal) || into(other.val) || into(other.accV) || into(other.decided) {
			t.Fatalf("instance %d points into the released buffer", kk)
		}
	}
	for _, msg := range m1.local {
		if into(msg.val) {
			t.Fatalf("a queued self-input points into the released buffer")
		}
	}
	for kk := k + 1; kk < k+4; kk++ {
		s.propose(1, kk, wideVal(1, kk))
		s.propose(0, kk, wideVal(0, kk))
		s.awaitDecided(t, kk, wideVal(0, kk), 0, 1, 2)
	}
}
