package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/abcast"
)

// counts are the core.Stats fields the per-layer metrics use; they add
// across the incarnations of a process that crashes.
type counts struct {
	rounds, empty, delivered, fullSeals, timerSeals, checkpoints uint64
}

func countsOf(s abcast.Stats) counts {
	return counts{s.Rounds, s.EmptyRounds, s.Delivered, s.BatchFullSeals, s.BatchTimerSeals, s.Checkpoints}
}

func (a counts) add(b counts) counts {
	return counts{a.rounds + b.rounds, a.empty + b.empty, a.delivered + b.delivered,
		a.fullSeals + b.fullSeals, a.timerSeals + b.timerSeals, a.checkpoints + b.checkpoints}
}

func (a counts) sub(b counts) counts {
	return counts{a.rounds - b.rounds, a.empty - b.empty, a.delivered - b.delivered,
		a.fullSeals - b.fullSeals, a.timerSeals - b.timerSeals, a.checkpoints - b.checkpoints}
}

// sample is every cumulative counter the benchmark reads, at one instant.
// Metrics are differences between two samples.
type sample struct {
	at          int64 // run clock
	cpu         time.Duration
	alloc       uint64
	jiffies     uint64 // all CPUs, all states
	steal       uint64
	core        [nProcs]counts
	walGroups   int64
	walRecords  int64
	walBytes    int64
	muxTagged   int64
	muxCoalesce int64
	restores    uint64
	trace       traceCounts
}

func (s *session) sample() sample {
	sm := sample{at: s.tr.now(), cpu: processCPU(), alloc: heapAllocated()}
	sm.jiffies, sm.steal = procStat()
	s.mu.Lock()
	for p, m := range s.c.members {
		sm.core[p] = s.acc[p].add(countsOf(m.stats()))
	}
	s.mu.Unlock()
	sm.walGroups, sm.walRecords, sm.walBytes = s.c.walStats()
	if s.c.mux != nil {
		ms := s.c.mux.Stats()
		sm.muxTagged, sm.muxCoalesce = ms.Tagged, ms.CoalescedFrames
	}
	s.tr.mu.Lock()
	sm.restores = s.tr.restores
	s.tr.mu.Unlock()
	if s.tc != nil {
		sm.trace = s.tc.counts()
	}
	return sm
}

// processCPU is user + system CPU time of this OS process, which holds
// the whole cluster and the load generator.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated is the cumulative bytes allocated on the Go heap.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// procStat reads the machine-wide CPU line of /proc/stat: total jiffies
// and the share stolen by the hypervisor. Zeroes where there is no /proc.
func procStat() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, fld := range fields[1:] {
		v, _ := strconv.ParseUint(fld, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// percentile is the nearest-rank q-quantile of v (0 for an empty v); it
// sorts v in place.
func percentile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceCV is the coefficient of variation of the commit count per slice
// of the interval [from, to): how stationary the run was.
func sliceCV(commitAt []int64, from, to int64, slice time.Duration) float64 {
	n := int((to - from) / int64(slice))
	if n < 2 {
		return 0
	}
	per := make([]float64, n)
	for _, at := range commitAt {
		if i := int((at - from) / int64(slice)); i >= 0 && i < n {
			per[i]++
		}
	}
	var mean, sq float64
	for _, c := range per {
		mean += c
	}
	mean /= float64(n)
	for _, c := range per {
		sq += (c - mean) * (c - mean)
	}
	return ratio(math.Sqrt(sq/float64(n)), mean)
}

// longestGap is the longest interval without a commit inside [from, to],
// both ends counting as commits: after a crash at `from`, the time
// without service.
func longestGap(sortedCommits []int64, from, to int64) int64 {
	i, _ := slices.BinarySearch(sortedCommits, from)
	prev, gap := from, int64(0)
	for ; i < len(sortedCommits) && sortedCommits[i] <= to; i++ {
		gap = max(gap, sortedCommits[i]-prev)
		prev = sortedCommits[i]
	}
	return max(gap, to-prev)
}
