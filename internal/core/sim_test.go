package core_test

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim/stack"
)

// The core's random schedules run in the full-stack simulator,
// internal/sim/stack. A seed is a schedule: run twice it takes the same
// steps.

var (
	simSeed  = flag.Uint64("sim.seed", 0, "run only this full-stack simulator seed and print its steps")
	simSeeds = flag.Int("sim.seeds", 150, "seeds per TestSimSchedules batch")
)

// simBatches are TestSimSchedules's batches: both variants at three
// processes and at five, and at five the batched broadcast that logs the
// whole Unordered set rather than a record per message.
func simBatches() map[string]stack.Schedule {
	out := make(map[string]stack.Schedule)
	for _, n := range []int{3, 5} {
		for name, cfg := range stack.Variants() {
			out[fmt.Sprintf("%s-n%d", name, n)] = stack.Schedule{N: n, Core: cfg}
		}
	}
	out["batched-n5"] = stack.Schedule{N: 5, Core: core.Config{PipelineDepth: 3, BatchedBroadcast: true, MaxBatchDelay: 300 * time.Microsecond}}
	return out
}

// TestSimSchedules runs a batch of random full-stack schedules per variant
// and group size through the oracle. A failing seed is replayed with its
// steps printed; run one seed alone with -sim.seed=N (add -v to see the
// steps of a passing one).
func TestSimSchedules(t *testing.T) {
	for name, sc := range simBatches() {
		t.Run(name, func(t *testing.T) {
			sc.Check(t, 1, *simSeeds, *simSeed, "go test ./internal/core/ -run 'TestSimSchedules/"+name+"$' -sim.seed=%d -v")
		})
	}
}

// TestSimReplays: one seed run twice takes the same steps.
func TestSimReplays(t *testing.T) {
	for name, sc := range simBatches() {
		for _, seed := range []uint64{3, 17} {
			a, c := sc.Run(seed, false), sc.Run(seed, false)
			if a.Hash() != c.Hash() || a.Steps() != c.Steps() {
				t.Fatalf("%s seed %d: trace %016x (%d steps), then %016x (%d steps)",
					name, seed, a.Hash(), a.Steps(), c.Hash(), c.Steps())
			}
		}
	}
}

// BenchmarkSimSchedule measures one random full-stack three-process
// schedule of the pipelined variant, heal and Termination included.
func BenchmarkSimSchedule(b *testing.B) {
	sc := stack.Schedule{N: 3, Core: stack.Variants()["pipelined"]}
	for i := 0; b.Loop(); i++ {
		if s := sc.Run(uint64(i)+1, false); s.Failure != "" {
			b.Fatalf("seed %d: %s", i+1, s.Failure)
		}
	}
}
