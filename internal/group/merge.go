package group

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ids"
)

// Sequence is one group's delivery sequence as input to Merge: the base
// snapshot and explicit suffix from the protocol's A-deliver-sequence()
// plus the group's round counter (the next Consensus instance, i.e. the
// number of completed rounds).
type Sequence struct {
	Group      ids.GroupID
	Base       core.Snapshot
	Deliveries []core.Delivery
	Rounds     uint64
}

// Merge computes the deterministic cross-group interleave: rounds are
// walked in increasing number and, within one round number, groups in
// increasing GroupID; each group contributes the messages its round
// delivered, in their agreed order. The result is a pure function of the
// per-group sequences, so any two processes' merges agree on the rounds
// they both cover — per-group total order lifts to one global total order.
// Each output Delivery carries its owning Sequence's Group (MsgIDs are
// unique only per group, so (Group, Msg.ID) is the global identity).
//
// The merged output covers the round range [from, rounds):
//
//   - rounds is the merge frontier: a round k enters the output once every
//     group has decided round k, so the frontier is the minimum of the
//     per-group round counters. An idle group does not stall it: with
//     core.Config.IdleHeartbeat set (merged-mode sharding defaults it on),
//     a quiescent group's sequencer proposes empty heartbeat rounds after a
//     bounded idle interval, so every group's round counter — and with it
//     the frontier — keeps advancing without application traffic.
//   - from is the merge base: the highest round any group's checkpointing
//     has folded into its base snapshot (Base.Rounds). Rounds below it are
//     no longer reconstructible from the suffixes — under the merge-floor
//     discipline (core.Shard.FoldFloor driven by a Stream) every folded
//     round has already passed the process-wide merge frontier, so a
//     consumer that followed the sequence (a Cursor, or repeated Merge
//     calls) has already seen them. With checkpointing off, from is 0 and
//     the output is the complete global sequence.
//
// To compare merges taken at different processes (whose checkpoint floors
// may differ), trim both to their common base with TrimBelowRound before
// applying VerifyMergePrefix.
func Merge(seqs []Sequence) (merged []core.Delivery, from, rounds uint64) {
	if len(seqs) == 0 {
		return nil, 0, 0
	}
	sorted := make([]Sequence, len(seqs))
	copy(sorted, seqs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Group < sorted[j].Group })

	rounds = sorted[0].Rounds
	for _, s := range sorted[1:] {
		if s.Rounds < rounds {
			rounds = s.Rounds
		}
	}
	from = MergeBase(seqs)
	if from >= rounds {
		return nil, from, rounds
	}

	// Bucket each group's suffix by round, stamping the owning group (the
	// Sequence is authoritative, covering hand-built inputs). Suffixes are
	// already in delivery order, so per-round buckets keep the agreed
	// order.
	type bucket struct {
		group ids.GroupID
		byRnd map[uint64][]core.Delivery
	}
	buckets := make([]bucket, 0, len(sorted))
	for _, s := range sorted {
		b := bucket{group: s.Group, byRnd: make(map[uint64][]core.Delivery)}
		for _, d := range s.Deliveries {
			if d.Round >= from && d.Round < rounds {
				d.Group = s.Group
				b.byRnd[d.Round] = append(b.byRnd[d.Round], d)
			}
		}
		buckets = append(buckets, b)
	}
	for k := from; k < rounds; k++ {
		for _, b := range buckets {
			merged = append(merged, b.byRnd[k]...)
		}
	}
	return merged, from, rounds
}

// MergeT computes the deterministic cross-group interleave under a live
// topology: each group's local rounds are lifted into the global numbering
// (global = Span.Offset + local), output Deliveries carry the global round,
// and the interleave walks global rounds ascending with groups ascending
// within a round — which reduces to Merge exactly when every offset is 0.
// Sealed groups stop gating the frontier once drained (decided past their
// final round), and drained retired groups may be absent from seqs
// entirely; a live group missing from seqs pins the frontier at its offset
// (nothing beyond its splice point can be emitted without it).
//
// The result covers global rounds [from, rounds): from is MergeBaseT (the
// highest folded global round), rounds the global merge frontier. Because
// both are pure functions of the per-group sequences and the (marker-
// agreed) topology, any two processes' merges agree on the global rounds
// they both cover — the splice across a reshard epoch is deterministic.
func MergeT(seqs []Sequence, topo *Topology) (merged []core.Delivery, from, rounds uint64) {
	if topo == nil {
		return Merge(seqs)
	}
	bySeq := make(map[ids.GroupID]*Sequence, len(seqs))
	for i := range seqs {
		if _, known := topo.Spans[seqs[i].Group]; known {
			bySeq[seqs[i].Group] = &seqs[i]
		}
	}
	rounds = noRound
	for g, sp := range topo.Spans {
		var decided uint64
		if sq, ok := bySeq[g]; ok {
			decided = sq.Rounds
		} else if sp.Sealed {
			decided = sp.Final + 1 // drained retired group: fully decided
		}
		if c := contribution(sp, decided); c < rounds {
			rounds = c
		}
	}
	if rounds == noRound {
		rounds = 0
		for g, sp := range topo.Spans {
			var decided uint64
			if sq, ok := bySeq[g]; ok {
				decided = sq.Rounds
			} else if sp.Sealed {
				decided = sp.Final + 1
			}
			if c := sp.Offset + decided; c > rounds {
				rounds = c
			}
		}
	}
	from = MergeBaseT(seqs, topo)
	if from >= rounds {
		return nil, from, rounds
	}

	gs := topo.Groups()
	type bucket struct {
		byRnd map[uint64][]core.Delivery
	}
	buckets := make([]bucket, len(gs))
	for i, g := range gs {
		sq, ok := bySeq[g]
		if !ok {
			continue
		}
		sp := topo.Spans[g]
		b := bucket{byRnd: make(map[uint64][]core.Delivery)}
		for _, d := range sq.Deliveries {
			global := sp.Offset + d.Round
			if global >= from && global < rounds {
				d.Group = g
				d.Round = global
				b.byRnd[global] = append(b.byRnd[global], d)
			}
		}
		buckets[i] = b
	}
	for k := from; k < rounds; k++ {
		for i := range buckets {
			if buckets[i].byRnd != nil {
				merged = append(merged, buckets[i].byRnd[k]...)
			}
		}
	}
	return merged, from, rounds
}

// MergeBaseT returns the lowest global round a batch merge of seqs under
// topo can reconstruct: the maximum over the groups' folded-prefix heights
// lifted to global rounds. A group that has folded nothing contributes 0
// regardless of its offset — its whole history is still present.
func MergeBaseT(seqs []Sequence, topo *Topology) uint64 {
	var base uint64
	for _, s := range seqs {
		sp, ok := topo.Spans[s.Group]
		if !ok || s.Base.Rounds == 0 {
			continue
		}
		if h := sp.Offset + s.Base.Rounds; h > base {
			base = h
		}
	}
	return base
}

// MergeBase returns the lowest round a batch merge of seqs can
// reconstruct: the maximum over the groups' folded-prefix heights
// (Base.Rounds). 0 when no group has checkpointed.
func MergeBase(seqs []Sequence) uint64 {
	var base uint64
	for _, s := range seqs {
		if s.Base.Rounds > base {
			base = s.Base.Rounds
		}
	}
	return base
}

// TrimBelowRound drops the leading deliveries of a merged sequence whose
// Round is below round, aligning merges whose bases differ (deliveries in
// a merged sequence are ordered by round).
func TrimBelowRound(m []core.Delivery, round uint64) []core.Delivery {
	i := 0
	for i < len(m) && m[i].Round < round {
		i++
	}
	return m[i:]
}

// VerifyMergePrefix checks that two merged sequences agree on their common
// prefix (the determinism property Merge guarantees for sequences taken
// from processes of one cluster, once aligned to a common base with
// TrimBelowRound). It returns the first disagreeing index, or -1 when one
// is a prefix of the other.
func VerifyMergePrefix(a, b []core.Delivery) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Group != b[i].Group || a[i].Msg.ID != b[i].Msg.ID {
			return i
		}
	}
	return -1
}
