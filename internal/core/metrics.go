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
	rounds              *obs.Counter
	emptyRounds         *obs.Counter
	delivered           *obs.Counter
	broadcasts          *obs.Counter
	gossipSent          *obs.Counter
	gossipReceived      *obs.Counter
	digestsSent         *obs.Counter
	pullsSent           *obs.Counter
	pullsServed         *obs.Counter
	stateSent           *obs.Counter
	stateSentGCForced   *obs.Counter
	stateAdopted        *obs.Counter
	checkpoints         *obs.Counter
	replayedRounds      *obs.Counter
	proposalsSubmitted  *obs.Counter
	pipelinedProposals  *obs.Counter
	proposedMessages    *obs.Counter
	deliveredByTransfer *obs.Counter
	heartbeatRounds     *obs.Counter
	batchFullSeals      *obs.Counter
	batchTimerSeals     *obs.Counter

	base Stats // counter values at incarnation start
}

func newMetrics(reg *obs.Registry, g ids.GroupID) *metrics {
	c := func(name string) *obs.Counter {
		return reg.Counter(obs.GroupLabel("abcast.core."+name, g))
	}
	m := &metrics{
		rounds:              c("rounds"),
		emptyRounds:         c("empty_rounds"),
		delivered:           c("delivered"),
		broadcasts:          c("broadcasts"),
		gossipSent:          c("gossip_sent"),
		gossipReceived:      c("gossip_received"),
		digestsSent:         c("digests_sent"),
		pullsSent:           c("pulls_sent"),
		pullsServed:         c("pulls_served"),
		stateSent:           c("state_sent"),
		stateSentGCForced:   c("state_sent_gc_forced"),
		stateAdopted:        c("state_adopted"),
		checkpoints:         c("checkpoints"),
		replayedRounds:      c("replayed_rounds"),
		proposalsSubmitted:  c("proposals_submitted"),
		pipelinedProposals:  c("pipelined_proposals"),
		proposedMessages:    c("proposed_messages"),
		deliveredByTransfer: c("delivered_by_transfer"),
		heartbeatRounds:     c("heartbeat_rounds"),
		batchFullSeals:      c("batch_full_seals"),
		batchTimerSeals:     c("batch_timer_seals"),
	}
	m.base = m.snapshot()
	return m
}

// snapshot reads every counter (process-lifetime values).
func (m *metrics) snapshot() Stats {
	return Stats{
		Rounds:              m.rounds.Value(),
		EmptyRounds:         m.emptyRounds.Value(),
		Delivered:           m.delivered.Value(),
		Broadcasts:          m.broadcasts.Value(),
		GossipSent:          m.gossipSent.Value(),
		GossipReceived:      m.gossipReceived.Value(),
		DigestsSent:         m.digestsSent.Value(),
		PullsSent:           m.pullsSent.Value(),
		PullsServed:         m.pullsServed.Value(),
		StateSent:           m.stateSent.Value(),
		StateSentGCForced:   m.stateSentGCForced.Value(),
		StateAdopted:        m.stateAdopted.Value(),
		Checkpoints:         m.checkpoints.Value(),
		ReplayedRounds:      m.replayedRounds.Value(),
		ProposalsSubmitted:  m.proposalsSubmitted.Value(),
		PipelinedProposals:  m.pipelinedProposals.Value(),
		ProposedMessages:    m.proposedMessages.Value(),
		DeliveredByTransfer: m.deliveredByTransfer.Value(),
		HeartbeatRounds:     m.heartbeatRounds.Value(),
		BatchFullSeals:      m.batchFullSeals.Value(),
		BatchTimerSeals:     m.batchTimerSeals.Value(),
	}
}

// incarnation returns the per-incarnation view: current minus baseline.
func (m *metrics) incarnation() Stats {
	s := m.snapshot()
	b := m.base
	s.Rounds -= b.Rounds
	s.EmptyRounds -= b.EmptyRounds
	s.Delivered -= b.Delivered
	s.Broadcasts -= b.Broadcasts
	s.GossipSent -= b.GossipSent
	s.GossipReceived -= b.GossipReceived
	s.DigestsSent -= b.DigestsSent
	s.PullsSent -= b.PullsSent
	s.PullsServed -= b.PullsServed
	s.StateSent -= b.StateSent
	s.StateSentGCForced -= b.StateSentGCForced
	s.StateAdopted -= b.StateAdopted
	s.Checkpoints -= b.Checkpoints
	s.ReplayedRounds -= b.ReplayedRounds
	s.ProposalsSubmitted -= b.ProposalsSubmitted
	s.PipelinedProposals -= b.PipelinedProposals
	s.ProposedMessages -= b.ProposedMessages
	s.DeliveredByTransfer -= b.DeliveredByTransfer
	s.HeartbeatRounds -= b.HeartbeatRounds
	s.BatchFullSeals -= b.BatchFullSeals
	s.BatchTimerSeals -= b.BatchTimerSeals
	return s
}
