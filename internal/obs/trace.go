package obs

import (
	"sync"
	"time"

	"repro/internal/ids"
)

// Stage is one point in a message's lifecycle. Stages are marked on
// whichever process the lifecycle touches: the origin marks Broadcast,
// BatchSeal and Propose; every process marks Decide and Deliver for its
// own commit path; a process that missed the eager push marks PullRepair
// when the body arrives through a gossip pull.
type Stage int

const (
	StBroadcast  Stage = iota // A-broadcast accepted at the origin
	StBatchSeal               // origin's batch containing the message sealed
	StPropose                 // batch handed to consensus
	StPullRepair              // body arrived via digest-gossip pull repair
	StDecide                  // ordering round reached accept quorum
	StDeliver                 // delivery to the application
	numStages
)

var stageNames = [numStages]string{
	"broadcast", "batch_seal", "propose", "pull_repair", "decide", "deliver",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "?"
	}
	return stageNames[s]
}

// span is one sampled message's timeline: absolute nanosecond wall stamps
// per stage (0 = not reached here).
type span struct {
	start int64
	at    [numStages]int64
}

// roundKey identifies one ordering round of one group for the
// consensus-side stamps that predate knowledge of the round's MsgIDs.
type roundKey struct {
	g ids.GroupID
	k uint64
}

const (
	spanCap  = 4096 // concurrent in-flight sampled spans
	roundCap = 1024 // unfolded round stamps
)

// Tracer samples per-message lifecycle spans and folds them into
// per-stage latency histograms "abcast.trace.<stage>_ns" (offset from the
// span's first stamp) plus "abcast.trace.e2e_ns". Sampling is a
// deterministic hash of the MsgID, so every process of a cluster traces
// the same messages without coordination; a span auto-creates at its
// first Mark, wherever in the lifecycle that happens to be.
//
// All methods are safe on a nil *Tracer.
type Tracer struct {
	rate uint64 // sample 1-in-rate; 0 = tracing disabled

	mu     sync.Mutex
	spans  map[ids.MsgID]*span
	rounds map[roundKey]int64 // when the round reached StDecide

	stageHist [numStages]*Histogram
	e2e       *Histogram
	finished  *Counter
	dropped   *Counter
}

func newTracer(reg *Registry, sampleRate int) *Tracer {
	if sampleRate < 0 {
		sampleRate = 0 // disabled
	}
	t := &Tracer{
		rate:     uint64(sampleRate),
		spans:    make(map[ids.MsgID]*span),
		rounds:   make(map[roundKey]int64),
		e2e:      reg.Histogram("abcast.trace.e2e_ns"),
		finished: reg.Counter("abcast.trace.spans_finished"),
		dropped:  reg.Counter("abcast.trace.spans_dropped"),
	}
	for s := Stage(0); s < numStages; s++ {
		t.stageHist[s] = reg.Histogram("abcast.trace." + stageNames[s] + "_ns")
	}
	return t
}

// Sampled reports whether id falls in the trace sample. Deterministic
// across processes (pure function of the identity), cheap enough for the
// hot path.
func (t *Tracer) Sampled(id ids.MsgID) bool {
	if t == nil || t.rate == 0 {
		return false
	}
	if t.rate == 1 {
		return true
	}
	// FNV-1a over the identity fields.
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(uint32(id.Sender)))
	mix(uint64(id.Incarnation))
	mix(id.Seq)
	return h%t.rate == 0
}

// Mark stamps stage s for id now. The first Mark for a sampled id creates
// its span; later stamps for an already-stamped stage keep the first time
// (retries don't rewrite history).
func (t *Tracer) Mark(id ids.MsgID, s Stage) {
	if t == nil || !t.Sampled(id) {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	sp := t.spans[id]
	if sp == nil {
		if len(t.spans) >= spanCap {
			t.mu.Unlock()
			t.dropped.Inc()
			return
		}
		sp = &span{start: now}
		t.spans[id] = sp
	}
	if sp.at[s] == 0 {
		sp.at[s] = now
	}
	t.mu.Unlock()
}

// MarkRound stamps StDecide, the one round-scoped stage, for round k of
// group g — the consensus layer knows rounds, not message identities. Core
// folds the stamp into message spans at commit. The first stamp is kept.
func (t *Tracer) MarkRound(g ids.GroupID, k uint64) {
	if t == nil || t.rate == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	key := roundKey{g, k}
	if _, ok := t.rounds[key]; !ok {
		if len(t.rounds) >= roundCap {
			for victim := range t.rounds { // cap safety: evict an arbitrary stale stamp
				delete(t.rounds, victim)
				break
			}
		}
		t.rounds[key] = now
	}
	t.mu.Unlock()
}

// FoldRound copies round k's decide stamp into each sampled id's span and
// retires the round entry. Called by core when the round commits.
func (t *Tracer) FoldRound(g ids.GroupID, k uint64, msgs []ids.MsgID) {
	if t == nil || t.rate == 0 {
		return
	}
	t.mu.Lock()
	key := roundKey{g, k}
	if decide, ok := t.rounds[key]; ok {
		delete(t.rounds, key)
		for _, id := range msgs {
			if sp := t.spans[id]; sp != nil && sp.at[StDecide] == 0 {
				sp.at[StDecide] = decide
			}
		}
	}
	t.mu.Unlock()
}

// Finish stamps final for id, closes the span, and feeds every recorded
// stage into its offset-from-start histogram plus the end-to-end one.
// No-op for unsampled or unknown ids.
func (t *Tracer) Finish(id ids.MsgID, final Stage) {
	if t == nil || !t.Sampled(id) {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	sp := t.spans[id]
	if sp == nil {
		t.mu.Unlock()
		return
	}
	delete(t.spans, id)
	t.mu.Unlock()
	if sp.at[final] == 0 {
		sp.at[final] = now
	}
	for s := Stage(0); s < numStages; s++ {
		if sp.at[s] != 0 {
			t.stageHist[s].Observe(sp.at[s] - sp.start)
		}
	}
	t.e2e.Observe(sp.at[final] - sp.start)
	t.finished.Inc()
}

// Pending returns the number of open spans (tests, leak checks).
func (t *Tracer) Pending() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
