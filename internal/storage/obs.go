package storage

import (
	"time"

	"repro/internal/obs"
)

// storeObs is the observability state a storage layer holds once SetObs is
// called. It is installed through an atomic.Pointer so wiring may happen
// after the engine's goroutines are already running (the harness builds
// the storage chain before the plane) without a data race.
type storeObs struct {
	plane *obs.Plane
	hist  *obs.Histogram
}

// observe records one durability latency and flags it to the flight
// recorder when it crosses the plane's slow-sync threshold.
func (s *storeObs) observe(start time.Time, what string) {
	if s == nil {
		return
	}
	el := time.Since(start)
	s.hist.Observe(el.Nanoseconds())
	if slow := s.plane.SlowSync(); slow > 0 && el >= slow {
		s.plane.Flight().Event(obs.EvSlowSync, 0, 0, el.Nanoseconds(), 0, what)
	}
}

// SetObs wires the WAL into an observability plane: fsync latency lands in
// "abcast.storage.fsync_ns" (with EvSlowSync flight events past the
// threshold), and the engine's lifetime counters become read-on-scrape
// metrics. Safe to call after the committer started; nil is a no-op.
func (w *WAL) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	reg := p.Reg()
	w.obsState.Store(&storeObs{plane: p, hist: reg.Histogram("abcast.storage.fsync_ns")})
	reg.Func("abcast.storage.wal_syncs", w.SyncCount)
	reg.Func("abcast.storage.wal_groups", w.GroupCount)
	reg.Func("abcast.storage.wal_records", w.RecordCount)
	reg.Func("abcast.storage.wal_disk_bytes", w.DiskBytes)
	reg.Func("abcast.storage.wal_live_bytes", w.LiveBytes)
	reg.Func("abcast.storage.wal_compactions", w.CompactCount)
}

// SetObs wires the fault-injecting wrapper into an observability plane:
// every log operation's durability latency — including the injected
// SetLatency delay, which is the point: the histogram shows what the
// protocol actually waited for — lands in "abcast.storage.persist_ns",
// with EvSlowSync events past the threshold. Nil is a no-op.
func (f *Faulty) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	f.obsState.Store(&storeObs{plane: p, hist: p.Reg().Histogram("abcast.storage.persist_ns")})
}

// observeAsync stamps c's resolution into the persist histogram.
func (f *Faulty) observeAsync(c *Completion) *Completion {
	st := f.obsState.Load()
	if st == nil {
		return c
	}
	start := time.Now()
	c.OnDone(func(error) { st.observe(start, "persist") })
	return c
}
