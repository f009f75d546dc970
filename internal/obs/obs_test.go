package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket bounds must tile without gaps.
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 1000, 1 << 20, (1 << 20) + 12345, 1<<62 + 9}
	for _, v := range vals {
		i := bucketIndex(v)
		hi := bucketHigh(i)
		if v > hi {
			t.Fatalf("value %d above its bucket %d high %d", v, i, hi)
		}
		if i > 0 && v <= bucketHigh(i-1) {
			t.Fatalf("value %d should be in an earlier bucket than %d (prev high %d)", v, i, bucketHigh(i-1))
		}
	}
	for i := 1; i < 200; i++ {
		if bucketHigh(i) <= bucketHigh(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d", i, bucketHigh(i), bucketHigh(i-1))
		}
		if bucketIndex(bucketHigh(i-1)+1) != i {
			t.Fatalf("gap between buckets %d and %d", i-1, i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v * 1000) // 1µs .. 1ms
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 < 450_000 || p50 > 560_000 {
		t.Fatalf("p50 = %d, want ~500000", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 930_000 || p99 > 1_000_000 {
		t.Fatalf("p99 = %d, want ~990000", p99)
	}
	if s.Max != 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	if m := s.Quantile(1); m != 1_000_000 {
		t.Fatalf("p100 = %d, want max", m)
	}

	// Merge doubles the counts but keeps the shape.
	s2 := h.Snapshot()
	s2.Merge(s)
	if s2.Count != 2000 || s2.Sum != 2*s.Sum {
		t.Fatalf("merge: count=%d sum=%d", s2.Count, s2.Sum)
	}
	if d := s2.Quantile(0.5) - p50; d < -70_000 || d > 70_000 {
		t.Fatalf("merged p50 moved: %d vs %d", s2.Quantile(0.5), p50)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Plane
	p.Reg().Counter("x").Inc()
	p.Reg().Gauge("g").Set(7)
	p.Reg().Histogram("h").Observe(5)
	p.Reg().Func("f", func() int64 { return 1 })
	p.Trace().Mark(ids.MsgID{Seq: 1}, StBroadcast)
	p.Trace().MarkRound(0, 1)
	p.Trace().FoldRound(0, 1, nil)
	p.Trace().Finish(ids.MsgID{Seq: 1}, StDeliver)
	p.Flight().Event(EvCheckpoint, 0, 1, 0, 0, "")
	if p.Flight().Total() != 0 || p.Trace().Pending() != 0 {
		t.Fatal("nil plane recorded something")
	}
	var c *Counter
	c.Inc()
	var h *Histogram
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram counted")
	}
	// A nil registry still hands out working (unregistered) metrics.
	var r *Registry
	cc := r.Counter("y")
	cc.Inc()
	if cc.Value() != 1 {
		t.Fatal("unregistered counter broken")
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry(`pid="0"`)
	r.Counter(`abcast.core.delivered{group="1"}`).Add(5)
	r.Counter(`abcast.core.delivered{group="2"}`).Add(7)
	r.Gauge("abcast.wal.live_bytes").Set(1234)
	r.Func("abcast.mux.tagged", func() int64 { return 42 })
	r.Histogram("abcast.trace.e2e_ns").Observe(100)
	r.Histogram("abcast.trace.e2e_ns").Observe(3000)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE abcast_core_delivered counter",
		`abcast_core_delivered{group="1",pid="0"} 5`,
		`abcast_core_delivered{group="2",pid="0"} 7`,
		"# TYPE abcast_wal_live_bytes gauge",
		`abcast_wal_live_bytes{pid="0"} 1234`,
		`abcast_mux_tagged{pid="0"} 42`,
		"# TYPE abcast_trace_e2e_ns histogram",
		`abcast_trace_e2e_ns_bucket{pid="0",le="+Inf"} 2`,
		`abcast_trace_e2e_ns_sum{pid="0"} 3100`,
		`abcast_trace_e2e_ns_count{pid="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE abcast_core_delivered") != 1 {
		t.Fatalf("family TYPE repeated:\n%s", out)
	}
	// Basic format sanity: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestTracerLifecycle(t *testing.T) {
	reg := NewRegistry("")
	tr := newTracer(reg, 1) // sample everything
	id := ids.MsgID{Sender: 2, Incarnation: 1, Seq: 9}

	tr.Mark(id, StBroadcast)
	tr.Mark(id, StPropose)
	tr.MarkRound(3, 17)
	tr.FoldRound(3, 17, []ids.MsgID{id})
	time.Sleep(time.Millisecond)
	tr.Finish(id, StDeliver)

	if tr.Pending() != 0 {
		t.Fatalf("span leaked: %d", tr.Pending())
	}
	for _, name := range []string{
		"abcast.trace.broadcast_ns", "abcast.trace.propose_ns",
		"abcast.trace.decide_ns", "abcast.trace.deliver_ns",
		"abcast.trace.e2e_ns",
	} {
		s, ok := reg.HistogramSnapshot(name)
		if !ok || s.Count != 1 {
			t.Fatalf("%s count = %d (ok=%v)", name, s.Count, ok)
		}
	}
	if e2e, _ := reg.HistogramSnapshot("abcast.trace.e2e_ns"); e2e.Max < int64(time.Millisecond) {
		t.Fatalf("e2e too small: %d", e2e.Max)
	}
	// Folding retired the round stamp.
	tr.mu.Lock()
	nrounds := len(tr.rounds)
	tr.mu.Unlock()
	if nrounds != 0 {
		t.Fatalf("round stamps leaked: %d", nrounds)
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	a := newTracer(NewRegistry(""), 8)
	b := newTracer(NewRegistry(""), 8)
	sampled := 0
	for i := 0; i < 4096; i++ {
		id := ids.MsgID{Sender: ids.ProcessID(i % 5), Incarnation: uint32(i % 3), Seq: uint64(i)}
		sa, sb := a.Sampled(id), b.Sampled(id)
		if sa != sb {
			t.Fatalf("sampling disagrees for %v", id)
		}
		if sa {
			sampled++
		}
	}
	// 1-in-8 over 4096 ids: expect ~512, allow wide slack.
	if sampled < 256 || sampled > 1024 {
		t.Fatalf("sample rate off: %d/4096 at 1-in-8", sampled)
	}
	// Disabled tracer samples nothing.
	d := newTracer(NewRegistry(""), -1)
	if d.Sampled(ids.MsgID{Seq: 1}) {
		t.Fatal("disabled tracer sampled")
	}
}

func TestRecorderRing(t *testing.T) {
	r := newRecorder(3, 8)
	for i := 0; i < 5; i++ {
		r.Event(EvCheckpoint, 1, uint64(i), 0, 0, "")
	}
	// Below capacity: nothing dropped, watermark == total.
	if r.Len() != 5 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	for i := 5; i < 20; i++ {
		r.Event(EvCheckpoint, 1, uint64(i), 0, 0, "")
	}
	d := r.Dump()
	if len(d) != 8 || r.Total() != 20 {
		t.Fatalf("len=%d total=%d", len(d), r.Total())
	}
	// Oldest-first, contiguous tail, PID stamped.
	for i, e := range d {
		if e.Round != uint64(12+i) {
			t.Fatalf("dump[%d].Round = %d, want %d", i, e.Round, 12+i)
		}
		if e.PID != 3 {
			t.Fatalf("dump[%d].PID = %v", i, e.PID)
		}
		if i > 0 && e.Seq != d[i-1].Seq+1 {
			t.Fatalf("seq gap at %d", i)
		}
	}
	if !strings.Contains(r.String(), "12 earlier events overwritten") {
		t.Fatalf("dump header missing overwrite note:\n%s", r.String())
	}
}

func TestPlaneDefaults(t *testing.T) {
	p := New(Options{PID: 2})
	if p.Trace() == nil || p.Reg() == nil || p.Flight() == nil {
		t.Fatal("plane components missing")
	}
	if p.SlowSync() != 20*time.Millisecond {
		t.Fatalf("default slow-sync = %v", p.SlowSync())
	}
	if p.PID() != 2 {
		t.Fatalf("pid = %v", p.PID())
	}
	p.Reg().PublishExpvar("abcast.test.p2")
	p.Reg().PublishExpvar("abcast.test.p2") // duplicate must not panic
}
