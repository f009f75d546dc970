// Package obs is the process-wide observability plane: a zero-dependency
// metrics registry (lock-free counters, gauges and log-linear latency
// histograms behind one "abcast.<layer>.<name>" namespace, exported via
// expvar and a Prometheus text-format handler), a sampled per-message
// lifecycle tracer (nanosecond stage timestamps from A-broadcast to
// delivery, feeding per-stage latency histograms), and a bounded in-memory
// flight recorder of structured anomaly events (lease churn, state
// transfers, slow fsyncs, suspicion and epoch changes) that
// turns a failing soak seed into a replayable causal timeline.
//
// Every layer of the stack holds an optional *Plane and instruments itself
// unconditionally: a nil Plane (and every component reached through one)
// is safe to call and costs a few nil checks — a process without the
// plane wired pays almost nothing, one with it wired pays one atomic add
// per counter event and a sampled map insert per traced message.
//
// # Lifetime and incarnations
//
// A Plane belongs to the PROCESS, not to one incarnation: it survives
// crashes and recoveries, so its counters are monotonic for the process
// lifetime — exactly what a Prometheus scrape needs. Per-incarnation
// views (core.Stats and friends) are computed by snapshotting the
// counters at incarnation start and subtracting.
//
// # Sampling
//
// The tracer samples deterministically by message-identity hash
// (Options.SampleRate = 1-in-N, default 64), so every process of a
// cluster traces the SAME messages without coordination — a span started
// at the origin's Broadcast gains stage stamps on whichever process the
// lifecycle touches. Raise the rate (SampleRate 1 traces everything) for
// tests and latency studies; keep the default for production-shaped
// workloads (the benchmark's bench.trace_overhead_pct and obs.mark_ns
// price the instrumentation).
package obs

import (
	"time"

	"repro/internal/ids"
)

// Options tunes a Plane.
type Options struct {
	// PID stamps flight-recorder events and the exported labels.
	PID ids.ProcessID
	// SampleRate traces 1-in-N messages (deterministic by MsgID hash).
	// 0 uses the default (64); 1 traces every message; negative disables
	// tracing entirely.
	SampleRate int
	// FlightCap bounds the flight-recorder ring (default 1024 events).
	FlightCap int
	// SlowSync is the fsync-duration threshold above which the storage
	// layer records an EvSlowSync flight event (default 20ms).
	SlowSync time.Duration
	// Labels, when non-empty, is a raw Prometheus label list (e.g.
	// `pid="3"`) appended to every metric this plane exports — how a
	// multi-process harness keeps per-process series apart on one
	// endpoint.
	Labels string
}

func (o *Options) fill() {
	if o.SampleRate == 0 {
		o.SampleRate = 64
	}
	if o.FlightCap <= 0 {
		o.FlightCap = 1024
	}
	if o.SlowSync <= 0 {
		o.SlowSync = 20 * time.Millisecond
	}
}

// Plane bundles the three observability facilities one process shares
// across all of its layers (and, sharded, all of its groups). All methods
// are safe on a nil *Plane.
type Plane struct {
	opts   Options
	reg    *Registry
	trace  *Tracer
	flight *Recorder
}

// New builds a Plane.
func New(opts Options) *Plane {
	opts.fill()
	reg := NewRegistry(opts.Labels)
	return &Plane{
		opts:   opts,
		reg:    reg,
		trace:  newTracer(reg, opts.SampleRate),
		flight: newRecorder(opts.PID, opts.FlightCap),
	}
}

// Reg returns the metrics registry (nil on a nil plane — still safe to
// ask for metrics, they just go unregistered).
func (p *Plane) Reg() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Trace returns the lifecycle tracer (nil on a nil plane).
func (p *Plane) Trace() *Tracer {
	if p == nil {
		return nil
	}
	return p.trace
}

// Flight returns the anomaly flight recorder (nil on a nil plane).
func (p *Plane) Flight() *Recorder {
	if p == nil {
		return nil
	}
	return p.flight
}

// PID returns the process id the plane was built for (0 on nil).
func (p *Plane) PID() ids.ProcessID {
	if p == nil {
		return 0
	}
	return p.opts.PID
}

// SlowSync returns the slow-fsync threshold (0 on a nil plane, which
// disables slow-sync events).
func (p *Plane) SlowSync() time.Duration {
	if p == nil {
		return 0
	}
	return p.opts.SlowSync
}
