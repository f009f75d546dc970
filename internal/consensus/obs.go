package consensus

import (
	"repro/internal/ids"
	"repro/internal/obs"
)

// consMetrics is the engine's latency instrumentation, registered under
// "abcast.consensus.<name>{group}". Both histograms are nil-safe (an
// engine without an observability plane gets unregistered metrics that
// still work), so the decide path never branches on wiring.
type consMetrics struct {
	// quorumNS is propose → decision learned: what one instance costs
	// the commit path.
	quorumNS *obs.Histogram
	// decideFsyncNS is decision learned → decision cell durable. It is
	// off the commit path (the decision is installed when learned); it
	// says how long a crash could still cost this process a re-learn.
	decideFsyncNS *obs.Histogram
}

func newConsMetrics(reg *obs.Registry, g ids.GroupID) consMetrics {
	return consMetrics{
		quorumNS:      reg.Histogram(obs.GroupLabel("abcast.consensus.quorum_ns", g)),
		decideFsyncNS: reg.Histogram(obs.GroupLabel("abcast.consensus.decide_fsync_ns", g)),
	}
}

// registerLeaseFuncs exports the holder-side lease counters as
// read-on-scrape metrics. Re-registration on each incarnation replaces the
// previous engine's closure, so the scrape always reads the live engine.
func (e *Engine) registerLeaseFuncs(reg *obs.Registry) {
	g := e.cfg.Group
	reg.Func(obs.GroupLabel("abcast.consensus.lease_acquired", g), func() int64 {
		return int64(e.LeaseStats().Acquired)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_fast_rounds", g), func() int64 {
		return int64(e.LeaseStats().FastRounds)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_fallbacks", g), func() int64 {
		return int64(e.LeaseStats().Fallbacks)
	})
	reg.Func(obs.GroupLabel("abcast.consensus.lease_held", g), func() int64 {
		if e.LeaseStats().Held {
			return 1
		}
		return 0
	})
}
