package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// newTestTracker registers n operations due at 1, 2, … so that 0 keeps
// meaning "not happened".
func newTestTracker(required []bool, groups, n int) *tracker {
	tr := newTracker(required, groups, 1)
	for i := range n {
		tr.register(int64(i+1), -1)
	}
	return tr
}

func committed(tr *tracker, id uint64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.rec(id).commit != 0
}

func TestCommitNeedsEveryRequiredProcess(t *testing.T) {
	tr := newTestTracker([]bool{true, true, true}, 1, 1)
	tr.delivered(0, 0, 0, 0, 10)
	tr.delivered(1, 0, 0, 0, 11)
	if committed(tr, 0) {
		t.Fatal("committed with one required process still missing")
	}
	tr.delivered(2, 0, 0, 0, 12)
	if !committed(tr, 0) {
		t.Fatal("not committed after every process delivered")
	}
	w := tr.window(0, 100)
	if w.attempted != 1 || w.failed != 0 || w.commits != 1 || w.latency[0] != 11 || w.first[0] != 9 || w.skew[0] != 2 {
		t.Fatalf("window = %+v", w)
	}
}

func TestCrashingProcessIsNotWaitedFor(t *testing.T) {
	tr := newTestTracker([]bool{false, true, true}, 1, 1)
	tr.delivered(1, 0, 0, 0, 10)
	tr.delivered(2, 0, 0, 0, 11)
	if !committed(tr, 0) {
		t.Fatal("commit waited for a process that is allowed to crash")
	}
}

// A process that adopts a state never delivers the positions the state
// covers; they must count as covered there from Snapshot.Pos.
func TestRestoreCoversAdoptionGap(t *testing.T) {
	tr := newTestTracker([]bool{true, true, true}, 1, 6)
	for pos := range uint64(6) {
		tr.delivered(0, 0, pos, pos, 10+int64(pos))
		tr.delivered(1, 0, pos, pos, 20+int64(pos))
	}
	// p2 delivers 0 and 1, adopts a state at position 5, resumes at 5.
	tr.delivered(2, 0, 0, 0, 30)
	tr.delivered(2, 0, 1, 1, 31)
	for id := uint64(2); id < 6; id++ {
		if committed(tr, id) {
			t.Fatalf("op %d committed before p2 covered it", id)
		}
	}
	tr.restored(2, 0, 5, 40)
	for id := uint64(2); id < 5; id++ {
		if !committed(tr, id) {
			t.Fatalf("op %d below the adopted position is not committed", id)
		}
	}
	if committed(tr, 5) {
		t.Fatal("op at the adopted position committed without a delivery")
	}
	tr.delivered(2, 0, 5, 5, 41)
	if !committed(tr, 5) {
		t.Fatal("op 5 not committed after p2 resumed delivering")
	}
	if err := tr.check(tr.drain(0)); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	at := tr.rec(3).commit
	tr.mu.Unlock()
	if at != 40 {
		t.Fatalf("op 3 committed at %d, want the restore's time 40", at)
	}
}

// Every required process can adopt past a position before the tracker has
// seen anyone deliver it; the late delivery must commit it at once.
func TestDeliveryBelowTheFloorCommits(t *testing.T) {
	tr := newTestTracker([]bool{false, true, true}, 1, 3)
	tr.restored(1, 0, 3, 10)
	tr.restored(2, 0, 3, 11)
	tr.delivered(0, 0, 1, 1, 12) // the recovering p0 replays it
	if !committed(tr, 1) {
		t.Fatal("op below every required watermark did not commit on its first delivery")
	}
}

func TestRestoreIsPerGroup(t *testing.T) {
	tr := newTestTracker([]bool{true, true}, 2, 2)
	tr.delivered(0, 0, 0, 0, 10) // op 0 at g0/0
	tr.delivered(0, 1, 0, 1, 11) // op 1 at g1/0
	tr.restored(1, 1, 1, 12)     // p1 adopts group 1 only
	if committed(tr, 0) {
		t.Fatal("a restore of group 1 covered a position of group 0")
	}
	if !committed(tr, 1) {
		t.Fatal("restore did not cover its own group")
	}
	if got := tr.mark(1); got != 1 {
		t.Fatalf("mark(p1) = %d, want 1", got)
	}
}

// A recovering process replays from its checkpoint: positions go back.
// That is neither a gap nor a disagreement.
func TestReplayAfterRecoveryIsAccepted(t *testing.T) {
	tr := newTestTracker([]bool{false, true}, 1, 4)
	for pos := range uint64(4) {
		tr.delivered(0, 0, pos, pos, 10)
		tr.delivered(1, 0, pos, pos, 11)
	}
	tr.restored(0, 0, 2, 20)
	tr.delivered(0, 0, 2, 2, 21)
	tr.delivered(0, 0, 3, 3, 22)
	if err := tr.check(0); err != nil {
		t.Fatal(err)
	}
}

func TestViolationsAreReported(t *testing.T) {
	for name, tc := range map[string]struct {
		feed func(tr *tracker)
		want string
	}{
		"total order": {func(tr *tracker) {
			tr.delivered(0, 0, 0, 0, 10)
			tr.delivered(1, 0, 0, 1, 11)
		}, "total order"},
		"recovered process disagrees": {func(tr *tracker) {
			tr.delivered(0, 0, 0, 0, 10)
			tr.delivered(1, 0, 0, 0, 11)
			tr.restored(0, 0, 0, 12)
			tr.delivered(0, 0, 0, 1, 13)
		}, "total order"},
		"duplicate": {func(tr *tracker) {
			tr.delivered(0, 0, 0, 0, 10)
			tr.delivered(0, 0, 1, 0, 11)
		}, "integrity"},
		"never sent": {func(tr *tracker) {
			tr.delivered(0, 0, 0, 7, 10)
		}, "unknown op"},
		"gap": {func(tr *tracker) {
			tr.delivered(0, 0, 1, 1, 10)
		}, "gap"},
	} {
		tr := newTestTracker([]bool{true, true}, 1, 2)
		tc.feed(tr)
		if err := tr.check(0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want %q", name, err, tc.want)
		}
	}
}

func TestValidityAndDeadline(t *testing.T) {
	tr := newTestTracker([]bool{true}, 1, 4)
	late := int64(failAfter) + 10
	tr.delivered(0, 0, 0, 0, 5)    // op 0: in time
	tr.delivered(0, 0, 1, 1, late) // op 1: committed, but past its deadline
	tr.sent(2, 6, errTest)         // op 2: Broadcast failed
	// op 3: broadcast fine, never delivered
	w := tr.window(0, 100)
	if w.attempted != 4 || w.failed != 3 || len(w.latency) != 1 {
		t.Fatalf("attempted %d failed %d samples %d, want 4, 3, 1", w.attempted, w.failed, len(w.latency))
	}
	missing := tr.drain(0)
	if missing != 1 {
		t.Fatalf("missing = %d, want 1 (the failed Broadcast is not owed a delivery)", missing)
	}
	if err := tr.check(missing); err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("check = %v, want a validity error", err)
	}
}

var errTest = errors.New("broadcast failed")

func TestAwaitWakesOnCommitAndSkipsStaleWakeups(t *testing.T) {
	tr := newTracker([]bool{true}, 1, 1)
	timer := time.NewTimer(time.Hour)
	stale := tr.register(1, 0)
	id := tr.register(2, 0)
	tr.delivered(0, 0, 0, stale, 10) // wake-up of an operation the client gave up on
	done := make(chan bool)
	go func() { done <- tr.await(0, id, timer) }()
	tr.delivered(0, 0, 1, id, 11)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("await reported a timeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await did not return after the commit")
	}
}

func TestPayloadsAreSeededAndVerified(t *testing.T) {
	a, b, c := newPayloads(7, 64), newPayloads(7, 64), newPayloads(8, 64)
	x, y, z := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	a.fill(x, 128)
	b.fill(y, 128)
	c.fill(z, 128)
	if string(x) != string(y) {
		t.Fatal("same seed, different payload")
	}
	if string(x) == string(z) {
		t.Fatal("different seeds, same payload")
	}
	if id, ok := a.verify(x); !ok || id != 128 {
		t.Fatalf("verify = %d, %v", id, ok)
	}
	x[40] ^= 1
	if _, ok := a.verify(x); ok {
		t.Fatal("a corrupted body passed (op 128 is in the checked sample)")
	}
	if _, ok := a.verify(x[:63]); ok {
		t.Fatal("a short payload passed")
	}
}

func TestLongestGapAndSliceCV(t *testing.T) {
	commits := []int64{5, 10, 20, 90, 95}
	if got := longestGap(commits, 10, 100); got != 70 {
		t.Fatalf("longestGap = %d, want 70", got)
	}
	if got := longestGap(commits, 96, 100); got != 4 {
		t.Fatalf("longestGap with no commit inside = %d, want 4", got)
	}
	if cv := sliceCV([]int64{0, 1, 10, 11, 20, 21}, 0, 30, 10); cv != 0 {
		t.Fatalf("even slices: cv = %v", cv)
	}
	if cv := sliceCV([]int64{0, 1, 2, 3, 20, 21}, 0, 30, 10); cv <= 0 {
		t.Fatalf("uneven slices: cv = %v", cv)
	}
}
