package harness

import (
	"fmt"
	"testing"
)

// TestSoakSeedsReshard runs the randomized live-resharding soak for a
// fixed set of seeds: scale-outs and retirements interleave with whole-
// process crashes, recoveries and checkpoint folds, and the verification
// demands zero Total Order / Agreement violations per group, Termination
// across orphan re-injection, a merge cursor byte-identical to the batch
// merge across every epoch splice, and zero GC-forced state transfers
// for the lagging recoverer (the cluster-wide floor held folds back).
//
// Reproduce a failure by seed, e.g.
//
//	go test ./internal/harness -run 'TestSoakSeedsReshard/seed=7' -v -count=1
func TestSoakSeedsReshard(t *testing.T) {
	for _, seed := range []uint64{7, 19, 201, 202, 218} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunReshardSoak(ReshardSoakOptions{Seed: seed})
			t.Logf("reshard soak: %v", res)
			if err != nil {
				t.Fatalf("reshard soak failed: %v", err)
			}
			if res.Joins == 0 || res.Retirements == 0 {
				t.Fatalf("schedule exercised no resharding (seed too tame?): %v", res)
			}
			if res.Crashes == 0 {
				t.Fatalf("schedule exercised no crashes: %v", res)
			}
		})
	}
}
