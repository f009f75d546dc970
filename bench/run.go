package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. A micro metric comes
// from the micro benchmark of its layer, not from the workload.
type metricDef struct {
	name, unit string
	micro      bool
}

// endToEnd is what a user of the system sees, and what a change is held
// to. Every workload reports all of them from an untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "throughput_msgs_s", unit: "1/s"},
	{name: "commit_p50_ms", unit: "ms"},
	{name: "alloc_kb_per_msg", unit: "kB"},
}

// diagnostics are end-to-end too, but do not repeat well enough on the
// sandbox to carry a bound (README, Calibration): the untraced run prints
// them per slice, the traced run reports them with the per-layer set.
var diagnostics = []metricDef{
	{name: "commit_p99_ms", unit: "ms"},
	{name: "cpu_us_per_msg", unit: "us"},
	{name: "outage_ms", unit: "ms"},
}

// perLayer is the diagnostics, then one layer each (layer = module name),
// from the traced run and the micro set.
var perLayer = append(slices.Clone(diagnostics), []metricDef{
	{name: "transport.sends_per_msg", unit: "count"},
	{name: "transport.bytes_per_msg", unit: "B"},
	{name: "transport.send_us_per_msg", unit: "us"},
	{name: "transport.tcp_rtt_us", unit: "us", micro: true},
	{name: "transport.tcp_mb_s", unit: "MB/s", micro: true},
	{name: "storage.ops_per_msg", unit: "count"},
	{name: "storage.write_amp", unit: "ratio"},
	{name: "storage.fsyncs_per_msg", unit: "count"},
	{name: "storage.records_per_fsync", unit: "count"},
	{name: "storage.issue_us_per_msg", unit: "us"},
	{name: "storage.persist_wait_ms_p50", unit: "ms"},
	{name: "storage.persist_wait_ms_p99", unit: "ms"},
	{name: "storage.wal_mb_end", unit: "MB"},
	{name: "storage.wal_append_sync_us", unit: "us", micro: true},
	{name: "storage.wal_append_mb_s", unit: "MB/s", micro: true},
	{name: "storage.wal_replay_ms", unit: "ms", micro: true},
	{name: "storage.wal_compact_mb_s", unit: "MB/s", micro: true},
	{name: "core.msgs_per_round", unit: "count"},
	{name: "core.rounds_per_s", unit: "1/s"},
	{name: "core.full_seal_ratio", unit: "ratio"},
	{name: "core.checkpoints_per_s", unit: "1/s"},
	{name: "core.state_adopted_per_s", unit: "1/s"},
	{name: "consensus.decide_us", unit: "us", micro: true},
	{name: "consensus.decide_allocs", unit: "count", micro: true},
	{name: "abcast.broadcast_call_ms_p50", unit: "ms"},
	{name: "abcast.first_deliver_ms_p50", unit: "ms"},
	{name: "abcast.deliver_skew_ms_p50", unit: "ms"},
	{name: "abcast.n1_commit_us", unit: "us", micro: true},
	{name: "group.frames_per_msg", unit: "count"},
	{name: "group.coalesce_ratio", unit: "ratio"},
	{name: "group.mux_rtt_us", unit: "us", micro: true},
	{name: "group.cursor_round_ns", unit: "ns", micro: true},
	{name: "node.start_ms_p50", unit: "ms"},
	{name: "node.catchup_ms_p50", unit: "ms"},
	{name: "obs.mark_ns", unit: "ns", micro: true},
	{name: "bench.gen_late_ms_p99", unit: "ms"},
	{name: "bench.thr_slice_cv", unit: "ratio"},
	{name: "bench.steal_pct", unit: "%"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}...)

// runOpts is how one invocation runs a workload.
type runOpts struct {
	dir       string // clusters are built in fresh directories under it; must exist
	out       string // where the span dump goes
	seed      uint64
	seconds   float64 // measured window
	trace     bool
	setups    int // set-ups per run; setup_s is their median
	warmupDiv int // divides the workload's warm-up (the smoke test runs short)
}

// outcome is what one run measured.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	samples   int       // latency samples behind the percentiles
	setups    []float64 // seconds, every set-up of the run
	incorrect error     // the order / validity check's complaint, nil if it passed
	notes     []string
}

// run sets the workload up opts.setups times (tearing all but the last
// down again), measures the window on the last cluster, drains and checks.
// Each cluster lives in a directory of its own under opts.dir and removes
// it when closed.
func run(w *workload, opts runOpts) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var err error
	var s *session
	for i := range opts.setups {
		if s != nil {
			s.close()
		}
		var took time.Duration
		s, took, err = openSession(opts.dir, w, opts.seed, max(w.warmup/opts.warmupDiv, 1), opts.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		out.setups = append(out.setups, took.Seconds())
	}
	defer s.close()
	tc := s.tc

	// The window is cut into slices of one fault cycle each. Every
	// end-to-end metric is computed per slice and reported as the median
	// over the slices, so a stall of the sandbox (or one bad recovery) that
	// hits one or two slices does not decide the run.
	length := time.Duration(opts.seconds * float64(time.Second))
	n := max(int(length/sliceLen), 1)
	if opts.trace {
		n = max(n, 2) // one half untraced, one traced
	}
	slice := length / time.Duration(n)
	cuts := []sample{s.sample()}
	begin := cuts[0]
	faultErr := make(chan error, 1)
	if w.crash {
		go func() { faultErr <- s.faults(begin.at, n, slice) }()
	} else {
		faultErr <- nil
	}
	for i := 1; i <= n; i++ {
		time.Sleep(time.Duration(begin.at + int64(i)*int64(slice) - s.tr.now()))
		if opts.trace && i == (n+1)/2 {
			tc.on.Store(true)
		}
		cuts = append(cuts, s.sample())
	}
	end := cuts[n]
	if opts.trace {
		tc.on.Store(false)
	}
	if err := <-faultErr; err != nil {
		return nil, err
	}
	s.stopLoad()
	missing := s.tr.drain(10 * time.Second)
	out.incorrect = s.tr.check(missing)

	whole := s.tr.window(begin.at, end.at)
	out.attempted, out.failed, out.samples = whole.attempted, whole.failed, len(whole.latency)
	if opts.trace {
		mid := cuts[(n+1)/2]
		untraced := s.tr.window(begin.at, mid.at)
		traced := s.tr.window(mid.at, end.at)
		s.layerMetrics(out, begin, mid, end, untraced, traced)
		s.traceOps(tc, mid.at, end.at)
		if err := os.MkdirAll(opts.out, 0o755); err != nil {
			return nil, err
		}
		if err := tc.dump(filepath.Join(opts.out, "trace-"+w.name+".json"), w.name, opts.seed); err != nil {
			return nil, err
		}
	} else {
		s.endToEndMetrics(out, cuts)
	}
	s.crashMetrics(out, whole, slice)
	return out, nil
}

// interval is the length of [a, b) in seconds.
func interval(a, b sample) float64 { return float64(b.at-a.at) / 1e9 }

// median of v; it sorts v in place.
func median(v []float64) float64 {
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// endToEndMetrics computes each metric on every slice [cuts[i], cuts[i+1])
// and reports the median over the slices.
func (s *session) endToEndMetrics(out *outcome, cuts []sample) {
	per := map[string][]float64{}
	for i := range len(cuts) - 1 {
		a, b := cuts[i], cuts[i+1]
		w := s.tr.window(a.at, b.at)
		per["throughput_msgs_s"] = append(per["throughput_msgs_s"], float64(w.commits)/interval(a, b))
		per["commit_p50_ms"] = append(per["commit_p50_ms"], ms(percentile(w.latency, 0.50)))
		per["alloc_kb_per_msg"] = append(per["alloc_kb_per_msg"], ratio(float64(b.alloc-a.alloc)/1e3, float64(w.commits)))
		per["commit_p99_ms"] = append(per["commit_p99_ms"], ms(percentile(w.latency, 0.99)))
		per["cpu_us_per_msg"] = append(per["cpu_us_per_msg"], ratio(float64((b.cpu-a.cpu).Microseconds()), float64(w.commits)))
	}
	for _, d := range endToEnd {
		if values, ok := per[d.name]; ok {
			out.notes = append(out.notes, fmt.Sprintf("per slice %-18s %.4g", d.name, values))
			out.values[d.name] = median(values)
		}
	}
	for _, d := range diagnostics {
		if values, ok := per[d.name]; ok {
			out.notes = append(out.notes, fmt.Sprintf("per slice %-18s %.4g (not bounded)", d.name, values))
		}
	}
	out.values["setup_s"] = median(out.setups)
}

// layerMetrics fills the per-layer metrics measured between a and b, the
// traced half of the window; [begin, a) is the untraced half.
func (s *session) layerMetrics(out *outcome, begin, a, b sample, untraced, traced window) {
	v := out.values
	tc := s.tc
	commits := float64(traced.commits)
	secs := interval(a, b)
	t := b.trace
	t0 := a.trace

	v["transport.sends_per_msg"] = ratio(float64(t.sends-t0.sends), commits)
	v["transport.bytes_per_msg"] = ratio(float64(t.sendBytes-t0.sendBytes), commits)
	v["transport.send_us_per_msg"] = ratio(float64(t.sendNS-t0.sendNS)/1e3, commits)

	groups := float64(b.walGroups - a.walGroups)
	v["storage.ops_per_msg"] = ratio(float64(t.ops-t0.ops), commits)
	v["storage.write_amp"] = ratio(float64(t.opBytes-t0.opBytes), commits*float64(s.w.payload))
	v["storage.fsyncs_per_msg"] = ratio(groups, commits)
	v["storage.records_per_fsync"] = ratio(float64(b.walRecords-a.walRecords), groups)
	v["storage.issue_us_per_msg"] = ratio(float64(t.issueNS-t0.issueNS)/1e3, commits)
	tc.mu.Lock()
	v["storage.persist_wait_ms_p50"] = ms(percentile(tc.persist, 0.50))
	v["storage.persist_wait_ms_p99"] = ms(percentile(tc.persist, 0.99))
	tc.mu.Unlock()
	v["storage.wal_mb_end"] = float64(b.walBytes) / 1e6

	// p1 never crashes in any workload: its counters are one incarnation's.
	p1 := b.core[1].sub(a.core[1])
	v["core.msgs_per_round"] = ratio(float64(p1.delivered), float64(p1.rounds-p1.empty))
	v["core.rounds_per_s"] = float64(p1.rounds) / secs
	v["core.checkpoints_per_s"] = float64(p1.checkpoints) / secs
	var seals counts
	for p := range b.core {
		seals = seals.add(b.core[p].sub(a.core[p]))
	}
	v["core.full_seal_ratio"] = ratio(float64(seals.fullSeals), float64(seals.fullSeals+seals.timerSeals))
	v["core.state_adopted_per_s"] = float64(b.restores-a.restores) / secs

	// The diagnostics come from the untraced half: tracing itself costs CPU.
	v["commit_p99_ms"] = ms(percentile(untraced.latency, 0.99))
	v["cpu_us_per_msg"] = ratio(float64((a.cpu - begin.cpu).Microseconds()), float64(untraced.commits))
	v["abcast.broadcast_call_ms_p50"] = ms(percentile(traced.call, 0.50))
	first, skew := percentile(traced.first, 0.50), percentile(traced.skew, 0.50)
	v["abcast.first_deliver_ms_p50"] = ms(first)
	v["abcast.deliver_skew_ms_p50"] = ms(skew)

	tagged := float64(b.muxTagged - a.muxTagged)
	v["group.frames_per_msg"] = ratio(tagged, commits)
	v["group.coalesce_ratio"] = ratio(float64(b.muxCoalesce-a.muxCoalesce), tagged)

	var late []int64
	s.mu.Lock()
	for _, l := range s.late {
		if l.due >= a.at && l.due < b.at {
			late = append(late, l.late)
		}
	}
	s.mu.Unlock()
	v["bench.gen_late_ms_p99"] = ms(percentile(late, 0.99))
	v["bench.thr_slice_cv"] = sliceCV(traced.commitAt, a.at, b.at, time.Second)
	v["bench.steal_pct"] = 100 * ratio(float64(b.steal-a.steal), float64(b.jiffies-a.jiffies))

	// A closed loop shows tracing as lost throughput, an open loop (whose
	// throughput is the offered rate) as added latency.
	p50On, p50Off := percentile(traced.latency, 0.50), percentile(untraced.latency, 0.50)
	var overhead float64
	if s.w.clients > 0 {
		off := float64(untraced.commits) / interval(begin, a)
		on := commits / secs
		overhead = 100 * ratio(off-on, off)
	} else {
		overhead = 100 * ratio(float64(p50On-p50Off), float64(p50Off))
	}
	v["bench.trace_overhead_pct"] = overhead
	out.notes = append(out.notes, fmt.Sprintf(
		"tiling: first_deliver p50 %.3f ms + deliver_skew p50 %.3f ms = %.3f ms; commit p50 is %.3f ms untraced, %.3f ms traced (%+.1f%%)",
		ms(first), ms(skew), ms(first+skew), ms(p50Off), ms(p50On), 100*ratio(float64(first+skew-p50Off), float64(p50Off))))
}

// crashMetrics fills outage_ms and the node layer from the fault schedule's
// records, on traced and untraced runs alike.
func (s *session) crashMetrics(out *outcome, whole window, cycle time.Duration) {
	v := out.values
	s.mu.Lock()
	defer s.mu.Unlock()
	var start, catchup, outage []int64
	slices.Sort(whole.commitAt)
	for _, c := range s.crashes {
		start = append(start, c.startDur)
		catchup = append(catchup, c.catchup)
		outage = append(outage, longestGap(whole.commitAt, c.crashAt, c.crashAt+int64((startAtFrac-crashAtFrac)*float64(cycle))))
	}
	v["node.start_ms_p50"] = ms(percentile(start, 0.50))
	v["node.catchup_ms_p50"] = ms(percentile(catchup, 0.50))
	v["outage_ms"] = ms(percentile(outage, 0.50))
	if s.w.crash {
		out.notes = append(out.notes, fmt.Sprintf("crashes: %d, p0 recovered after each; outage_ms median %.4g of %v (not bounded)",
			len(s.crashes), v["outage_ms"], msList(outage)))
	}
}

func msList(ns []int64) []string {
	var l []string
	for _, x := range ns {
		l = append(l, fmt.Sprintf("%.1f", ms(x)))
	}
	return l
}

// traceOps adds the tracker's spans for the sampled operations due in
// [from, to).
func (s *session) traceOps(tc *tracer, from, to int64) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for id := uint64(0); id < s.tr.nOps; id += spanSampling {
		if op := s.tr.rec(id); op.due >= from && op.due < to && op.commit != 0 {
			tc.addOp(id, op)
		}
	}
}
