package loop_test

import (
	"context"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/loop"
)

// clock is a layer that reports when each of its timers fired.
type clock chan int64

func (c clock) Persisted(int64, error)       {}
func (c clock) Fire(now int64, _ loop.Token) { c <- now }
func (c clock) Live(loop.Token) bool         { return true }

// TestWallTimerIsOnTime: 200 µs timers on an idle wall-clock loop fire
// with a median lateness under 250 µs. The runtime's own timers would not:
// an idle process waits in epoll_wait with a timeout rounded up to a whole
// millisecond, so each would be close to a millisecond late.
func TestWallTimerIsOnTime(t *testing.T) {
	l := loop.New(nil)
	l.Start(context.Background())
	defer l.Stop()
	fired := make(clock, 1)
	const arms, hold = 100, 200 * time.Microsecond
	late := make([]time.Duration, 0, arms)
	for i := range arms {
		l.Enter()
		at := l.Now() + int64(hold)
		l.Arm(fired, at, loop.Token{K: uint64(i)})
		l.Exit()
		select {
		case now := <-fired:
			late = append(late, time.Duration(now-at))
		case <-time.After(5 * time.Second):
			t.Fatalf("timer %d never fired", i)
		}
	}
	slices.Sort(late)
	p50 := late[arms/2]
	t.Logf("%d timers of %v: late p50 %v, max %v", arms, hold, p50, late[arms-1])
	if p50 >= 250*time.Microsecond {
		t.Fatalf("%d timers of %v fired with a median lateness of %v; want under 250µs", arms, hold, p50)
	}
}

// TestStoppedLoopsLeaveNoTimer: a loop's timer goroutine and descriptor
// go with the loop: after 100 loops armed a timer and stopped, the
// goroutine and open-file counts are back where they were.
func TestStoppedLoopsLeaveNoTimer(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	goroutines, files := runtime.NumGoroutine(), fds()
	for i := range 100 {
		l := loop.New(nil)
		l.Start(context.Background())
		l.Enter()
		l.Arm(make(clock, 1), l.Now()+int64(time.Hour), loop.Token{K: uint64(i)})
		l.Exit()
		l.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines || fds() > files {
		if time.Now().After(deadline) {
			t.Fatalf("after 100 loops: %d goroutines (were %d), %d open files (were %d)",
				runtime.NumGoroutine(), goroutines, fds(), files)
		}
		time.Sleep(time.Millisecond)
	}
}
