package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter. All methods are
// safe on a nil *Counter (they no-op / return zero), so instrumentation
// sites never need to guard.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value (int64, lock-free). Safe on nil.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear (HDR-style). Values 0..15 get their
// own bucket; above that, each power-of-two octave is split into 16 linear
// sub-buckets. With 60 octaves the top bucket covers every int64 nanosecond
// value (~292 years), for 16 + 60*16 = 976 buckets of 8 bytes each — small
// enough to allocate eagerly, precise to ~6% relative error everywhere.
const (
	histLinear  = 16 // exact buckets for values < 16
	histSubBits = 4  // 16 sub-buckets per octave
	histBuckets = histLinear + (64-histSubBits)*histLinear
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(uint64(v)) // 5..64 here
	return histLinear + (e-histSubBits-1)*histLinear + int((uint64(v)>>(e-histSubBits-1))&(histLinear-1))
}

// bucketHigh returns the inclusive upper bound of bucket i (the value such
// that every v with bucketIndex(v) == i satisfies v <= bucketHigh(i)).
func bucketHigh(i int) int64 {
	if i < histLinear {
		return int64(i)
	}
	g := (i - histLinear) / histLinear // octave index: e = g+5
	s := (i - histLinear) % histLinear
	e := g + histSubBits + 1
	low := int64(1)<<(e-1) + int64(s)<<(e-histSubBits-1)
	return low + int64(1)<<(e-histSubBits-1) - 1
}

// Histogram is a lock-free log-linear latency histogram. Record and
// snapshot race benignly (a snapshot may miss in-flight records; it never
// corrupts). Safe on nil.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	bucket [histBuckets]atomic.Uint64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.bucket[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is a consistent-enough copy of a histogram, mergeable and
// queryable for quantiles.
type HistSnapshot struct {
	Count  uint64
	Sum    int64
	Max    int64
	Bucket []uint64 // len histBuckets; omitted trailing zeros allowed after Merge
}

// Snapshot copies the histogram (nil-safe: returns an empty snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bucket: make([]uint64, histBuckets)}
	if h == nil {
		return s
	}
	var n uint64
	for i := range h.bucket {
		c := h.bucket[i].Load()
		s.Bucket[i] = c
		n += c
	}
	// Derive the count from the buckets so quantiles are internally
	// consistent even if records landed between the loads.
	s.Count = n
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Merge folds o into s (for cross-process / cross-group rollups).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Bucket) < histBuckets {
		b := make([]uint64, histBuckets)
		copy(b, s.Bucket)
		s.Bucket = b
	}
	for i, c := range o.Bucket {
		s.Bucket[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the value at quantile q in [0,1] (bucket upper bound;
// exact for values < 16, within one sub-bucket above). Returns 0 on an
// empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Bucket {
		cum += c
		if cum >= rank {
			hi := bucketHigh(i)
			if hi > s.Max && s.Max > 0 {
				return s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
