package loop

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
)

// TestWallTimerFiresOnceArmed: a Reset to zero or less fires the timer
// (a zero expiry would disarm a timerfd), and Stop leaves nothing armed.
func TestWallTimerFiresOnceArmed(t *testing.T) {
	fired := make(chan struct{}, 8)
	tm := wall{time.Now()}.Timer(func() { fired <- struct{}{} })
	defer tm.Stop()
	for _, d := range []time.Duration{0, -time.Second, 50 * time.Microsecond} {
		tm.Reset(d)
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("Reset(%v) never fired", d)
		}
	}
	tm.Reset(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop of a timer armed for an hour reports it idle")
	}
}

// TestWallTimerResetAfterStopIsANoOp: Stop is final; a later Reset arms
// nothing and reports the timer idle.
func TestWallTimerResetAfterStopIsANoOp(t *testing.T) {
	var fired atomic.Int32
	tm := wall{time.Now()}.Timer(func() { fired.Add(1) })
	tm.Stop()
	if tm.Reset(0) {
		t.Fatal("Reset after Stop reports an armed timer")
	}
	tm.Reset(time.Microsecond)
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("a stopped timer fired %d times", n)
	}
	if tm.Stop() {
		t.Fatal("a second Stop reports an armed timer")
	}
}

// TestWallTimerStopRacesReset: Resets from several goroutines racing a
// Stop are clean under -race, and none arms the timer once Stop returned.
func TestWallTimerStopRacesReset(t *testing.T) {
	for range 20 {
		var fired atomic.Int32
		tm := wall{time.Now()}.Timer(func() { fired.Add(1) })
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tm.Reset(time.Duration(g+i%3) * time.Microsecond)
				}
			}()
		}
		time.Sleep(time.Millisecond)
		tm.Stop()
		after := fired.Load()
		close(stop)
		wg.Wait()
		time.Sleep(2 * time.Millisecond)
		// One wake may have been under way as Stop ran; none starts after.
		if n := fired.Load(); n > after+1 {
			t.Fatalf("the timer fired %d times after Stop", n-after)
		}
	}
}

// TestWallTimerResetAllocatesNothing: a re-arm, which the loop makes
// several times a message, allocates nothing.
func TestWallTimerResetAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation budgets skip themselves under -race")
	}
	tm := wall{time.Now()}.Timer(func() {})
	defer tm.Stop()
	if n := testing.AllocsPerRun(100, func() { tm.Reset(time.Hour) }); n != 0 {
		t.Fatalf("Reset allocates %.0f objects; want 0", n)
	}
}
