package sim

import (
	"fmt"
	"strings"
	"testing"
)

// Script readies a run for a hand-written schedule: its steps are logged,
// and the test fails on an oracle violation and prints the steps if it
// fails.
func (k *Kernel) Script(t testing.TB) {
	t.Helper()
	k.Verbose = true
	t.Cleanup(func() {
		if k.Failure != "" {
			t.Errorf("oracle: %s", k.Failure)
		}
		if t.Failed() {
			t.Logf("simulator steps:\n%s", strings.Join(k.Lines, "\n"))
		}
	})
}

// Await runs a scripted schedule until cond holds, within 10s of virtual
// time and without an oracle violation.
func (k *Kernel) Await(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if !k.RunUntil(k.Now+10_000*Ms, cond) {
		if k.Failure != "" {
			t.Fatalf("%s: %s", what, k.Failure)
		}
		t.Fatalf("%s: not by %.3fms", what, float64(k.Now)/float64(Ms))
	}
}

// CheckSeeds runs the schedules of seeds first .. first+n-1 through their
// oracle, or (only != 0) of seed only, with its steps printed. A failing
// seed is run again with its steps printed, beside replay, the command that
// replays it (a format taking the seed).
func CheckSeeds(t testing.TB, first uint64, n int, only uint64, replay string, run func(seed uint64, verbose bool) *Kernel) {
	t.Helper()
	seeds, show := []uint64{only}, only != 0
	if !show {
		seeds = make([]uint64, n)
		for i := range seeds {
			seeds[i] = first + uint64(i)
		}
	}
	for _, seed := range seeds {
		k := run(seed, false)
		if k.Failure == "" && !show {
			continue
		}
		lines := run(seed, true).Lines
		if !show {
			lines = lines[max(0, len(lines)-400):]
		}
		if k.Failure != "" {
			t.Fatalf("seed %d: %s\nreplay: %s\nsteps (last %d):\n%s",
				seed, k.Failure, fmt.Sprintf(replay, seed), len(lines), strings.Join(lines, "\n"))
		}
		t.Logf("seed %d: trace %016x, %d steps:\n%s", seed, k.Hash(), k.Steps(), strings.Join(lines, "\n"))
	}
}
