package core

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// TestHeldBatchKeepsItsTimeTrigger: a batch the time trigger holds back is
// proposed once its hold ends, even when the pump timer armed for an
// earlier hold fires first. Here round 0 is held, then a size-capped
// message seals rounds 0 and 1 without waiting (the earlier hold's timer
// stays armed), and a new message is held until a later time. The earlier
// timer must not end that hold's trigger: with nothing else to wake it, the
// pipeline would stall with the message unordered.
func TestHeldBatchKeepsItsTimeTrigger(t *testing.T) {
	const us = int64(time.Microsecond)
	cfg := Config{PID: 0, N: 3, PipelineDepth: 4, MaxBatchBytes: 1000, MaxBatchDelay: 300 * time.Microsecond}
	cfg.fill()
	mc := newMachine(cfg, &fakeCons{}, newMetrics(nil, 0), nil, nil)
	if _, err := mc.recover(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	wake := int64(math.MaxInt64)
	proposed := map[uint64]int64{}
	step := func(now int64) {
		for _, ef := range mc.out {
			switch ef.op {
			case opArm:
				wake = ef.at // a later arm supersedes, as the loop's Live does
			case opPropose:
				proposed[ef.k] = now
			}
		}
		mc.flushed()
	}
	mc.start(0)
	step(0)
	broadcast := func(now int64, size int) {
		t.Helper()
		if _, err := mc.broadcast(now, bytes.Repeat([]byte{'x'}, size), true); err != nil {
			t.Fatal(err)
		}
		step(now)
	}

	broadcast(0, 10) // held until 300us
	broadcast(50*us, int(cfg.MaxBatchBytes))
	if _, ok := proposed[1]; !ok {
		t.Fatalf("the size cap sealed rounds %v, want 0 and 1", proposed)
	}
	broadcast(100*us, 10) // held until 400us
	if _, ok := proposed[2]; ok {
		t.Fatal("round 2 went out without its batch delay")
	}
	for now := 100 * us; now <= 20*int64(time.Millisecond); now += 10 * us {
		if now >= wake {
			wake = math.MaxInt64
			mc.fire(now)
			step(now)
		}
	}
	if at, ok := proposed[2]; !ok || at > 500*us {
		t.Fatalf("round 2 proposed at %dus (%v), want once its hold ends at 400us", at/us, ok)
	}
}
