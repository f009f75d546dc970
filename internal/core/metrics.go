package core

import (
	"repro/internal/ids"
	"repro/internal/obs"
)

// metrics is the protocol's counter set, backed by the process's
// observability registry under "abcast.core.<name>{group}". The registry
// (and so every counter) outlives incarnations — counters are monotonic
// for the process lifetime, which is what a Prometheus scrape needs —
// while the Stats() API keeps its documented per-incarnation semantics by
// subtracting the baseline captured at New().
//
// All counters are lock-free atomics, so Stats() snapshots race-clean
// without taking the protocol lock.
type metrics struct {
	rounds, emptyRounds, delivered, broadcasts             *obs.Counter
	gossipSent, gossipReceived, digestsSent                *obs.Counter
	pullsSent, pullsServed                                 *obs.Counter
	stateSent, stateSentGCForced, stateAdopted             *obs.Counter
	checkpoints, replayedRounds                            *obs.Counter
	proposalsSubmitted, pipelinedProposals                 *obs.Counter
	proposedMessages, deliveredByTransfer, heartbeatRounds *obs.Counter
	batchFullSeals, batchTimerSeals                        *obs.Counter

	base Stats // counter values at incarnation start
}

// counterField is one counter: its registry name and its Stats field.
type counterField struct {
	c    **obs.Counter
	name string
	v    *uint64
}

// fields pairs every counter with its name and its field of s.
func (m *metrics) fields(s *Stats) []counterField {
	return []counterField{
		{&m.rounds, "rounds", &s.Rounds},
		{&m.emptyRounds, "empty_rounds", &s.EmptyRounds},
		{&m.delivered, "delivered", &s.Delivered},
		{&m.broadcasts, "broadcasts", &s.Broadcasts},
		{&m.gossipSent, "gossip_sent", &s.GossipSent},
		{&m.gossipReceived, "gossip_received", &s.GossipReceived},
		{&m.digestsSent, "digests_sent", &s.DigestsSent},
		{&m.pullsSent, "pulls_sent", &s.PullsSent},
		{&m.pullsServed, "pulls_served", &s.PullsServed},
		{&m.stateSent, "state_sent", &s.StateSent},
		{&m.stateSentGCForced, "state_sent_gc_forced", &s.StateSentGCForced},
		{&m.stateAdopted, "state_adopted", &s.StateAdopted},
		{&m.checkpoints, "checkpoints", &s.Checkpoints},
		{&m.replayedRounds, "replayed_rounds", &s.ReplayedRounds},
		{&m.proposalsSubmitted, "proposals_submitted", &s.ProposalsSubmitted},
		{&m.pipelinedProposals, "pipelined_proposals", &s.PipelinedProposals},
		{&m.proposedMessages, "proposed_messages", &s.ProposedMessages},
		{&m.deliveredByTransfer, "delivered_by_transfer", &s.DeliveredByTransfer},
		{&m.heartbeatRounds, "heartbeat_rounds", &s.HeartbeatRounds},
		{&m.batchFullSeals, "batch_full_seals", &s.BatchFullSeals},
		{&m.batchTimerSeals, "batch_timer_seals", &s.BatchTimerSeals},
	}
}

func newMetrics(reg *obs.Registry, g ids.GroupID) *metrics {
	m := &metrics{}
	for _, f := range m.fields(&m.base) {
		*f.c = reg.Counter(obs.GroupLabel("abcast.core."+f.name, g))
	}
	m.base = m.snapshot()
	return m
}

// snapshot reads every counter (process-lifetime values).
func (m *metrics) snapshot() Stats {
	var s Stats
	for _, f := range m.fields(&s) {
		*f.v = (*f.c).Value()
	}
	return s
}

// incarnation returns the per-incarnation view: current minus baseline.
func (m *metrics) incarnation() Stats {
	s := m.snapshot()
	base := m.fields(&m.base)
	for i, f := range m.fields(&s) {
		*f.v -= *base[i].v
	}
	return s
}
