package group

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ids"
)

// Topology is the live shape of a sharded deployment: which ordering groups
// exist, where each group's local rounds sit in the global merged order, and
// which groups are sealed (retiring). It changes only through *ordered
// markers* — a SEAL marker ordered inside the retiring group, a JOIN marker
// ordered inside the anchor group — so every process observes the identical
// sequence of topology transitions at the identical positions of the merged
// order, without any coordination beyond the ordering protocol itself. Each
// transition bumps Epoch; the epoch number is what routers swap under and
// what the floor gossip carries so peers can detect stale views.
//
// # Global rounds
//
// A group's local round r maps to the global round Offset+r. Groups present
// at construction have Offset 0, which makes the global numbering coincide
// with the historical per-round interleave of the static merge. A group
// joining later is assigned Offset = anchorOffset + r_j + 1, where r_j is
// the anchor-group local round that delivered its JOIN marker: the merge
// frontier is <= the anchor's decided count, and the anchor's contribution
// passes the offset only by delivering the marker, so no cursor can emit a
// global round >= Offset before learning of the new group. That is the
// whole splice argument — determinism comes for free because the marker has
// one agreed position.
//
// # Sealing
//
// A SEAL marker delivered at local round r_s fixes the group's final round
// F = r_s + W, where W is the pipeline window bound carried in the marker.
// W must be >= the deepest proposal pipeline any process runs: a process
// proposing at round > F needs its window [k, k+depth) to reach past
// r_s + W, which forces k > r_s, which means it committed — and therefore
// delivered — the seal, so it proposes no application content. Rounds
// (r_s, F] may still decide (empty flush batches keep the frontier moving);
// rounds > F never carry messages. The group's frontier contribution caps
// at Offset+F+1 and the group leaves the merge entirely once drained.
type Topology struct {
	Epoch uint64
	Spans map[ids.GroupID]Span
}

// Span is one group's placement in the global round space.
type Span struct {
	Offset uint64 // global round = Offset + local round
	Sealed bool   // a SEAL marker has been delivered
	Final  uint64 // local final round (inclusive); valid when Sealed
}

// NewStaticTopology returns the epoch-0 topology of a deployment
// constructed with groups 0..g-1, all at offset 0.
func NewStaticTopology(groups int) *Topology {
	t := &Topology{Spans: make(map[ids.GroupID]Span, groups)}
	for g := 0; g < groups; g++ {
		t.Spans[ids.GroupID(g)] = Span{}
	}
	return t
}

// Clone returns a deep copy.
func (t *Topology) Clone() *Topology {
	c := &Topology{Epoch: t.Epoch, Spans: make(map[ids.GroupID]Span, len(t.Spans))}
	for g, s := range t.Spans {
		c.Spans[g] = s
	}
	return c
}

// Groups returns every known group (sealed included), ascending.
func (t *Topology) Groups() []ids.GroupID {
	out := make([]ids.GroupID, 0, len(t.Spans))
	for g := range t.Spans {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Active returns the unsealed groups, ascending: the set a router may place
// new keys on.
func (t *Topology) Active() []ids.GroupID {
	out := make([]ids.GroupID, 0, len(t.Spans))
	for g, s := range t.Spans {
		if !s.Sealed {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Anchor returns the lowest-numbered unsealed group — the group JOIN
// markers are ordered in — and false when every group is sealed.
func (t *Topology) Anchor() (ids.GroupID, bool) {
	a := t.Active()
	if len(a) == 0 {
		return 0, false
	}
	return a[0], true
}

// GlobalFinal returns the global round of a sealed group's final round.
// The second result is false for unsealed or unknown groups.
func (t *Topology) GlobalFinal(g ids.GroupID) (uint64, bool) {
	s, ok := t.Spans[g]
	if !ok || !s.Sealed {
		return 0, false
	}
	return s.Offset + s.Final, true
}

// ApplySeal records a SEAL marker delivered in group g at local round
// round, carrying window bound window. It returns true when the topology
// changed (duplicate seals of one group are inert: the first marker's
// position is authoritative).
func (t *Topology) ApplySeal(g ids.GroupID, round, window uint64) bool {
	s, ok := t.Spans[g]
	if !ok || s.Sealed {
		return false
	}
	s.Sealed = true
	s.Final = round + window
	t.Spans[g] = s
	t.Epoch++
	return true
}

// ApplyJoin records a JOIN marker for newGroup delivered in anchor group
// anchor at local round round. It returns true when the topology changed
// (duplicate joins of one group are inert).
func (t *Topology) ApplyJoin(anchor ids.GroupID, round uint64, newGroup ids.GroupID) bool {
	if _, ok := t.Spans[newGroup]; ok {
		return false
	}
	as, ok := t.Spans[anchor]
	if !ok {
		return false
	}
	t.Spans[newGroup] = Span{Offset: as.Offset + round + 1}
	t.Epoch++
	return true
}

// Encode serializes the topology (persisted by the sharded layer on every
// epoch change, and carried as the floor-gossip descriptor so recovering
// peers resynchronize the epoch without replaying markers that checkpoint
// folds may have erased).
func (t *Topology) Encode() []byte {
	gs := t.Groups()
	buf := make([]byte, 0, 16+len(gs)*24)
	buf = binary.AppendUvarint(buf, t.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(gs)))
	for _, g := range gs {
		s := t.Spans[g]
		buf = binary.AppendUvarint(buf, uint64(g))
		buf = binary.AppendUvarint(buf, s.Offset)
		var sealed uint64
		if s.Sealed {
			sealed = 1
		}
		buf = binary.AppendUvarint(buf, sealed)
		buf = binary.AppendUvarint(buf, s.Final)
	}
	return buf
}

// DecodeTopology parses an Encode result.
func DecodeTopology(b []byte) (*Topology, error) {
	epoch, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("group: topology: bad epoch")
	}
	b = b[n:]
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("group: topology: bad count")
	}
	b = b[n:]
	// cnt comes off the wire or the disk: a span is four uvarints of at
	// least a byte each, so a count the rest cannot hold is malformed —
	// reject it before sizing anything by it.
	if cnt > uint64(len(b))/4 {
		return nil, fmt.Errorf("group: topology: %d spans in %d bytes", cnt, len(b))
	}
	t := &Topology{Epoch: epoch, Spans: make(map[ids.GroupID]Span, cnt)}
	for i := uint64(0); i < cnt; i++ {
		var vals [4]uint64
		for j := range vals {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("group: topology: truncated span")
			}
			vals[j], b = v, b[n:]
		}
		t.Spans[ids.GroupID(vals[0])] = Span{Offset: vals[1], Sealed: vals[2] != 0, Final: vals[3]}
	}
	return t, nil
}

// Topology change markers are ordinary broadcast payloads with a magic
// prefix, ordered through the group they reconfigure (SEAL) or through the
// anchor group (JOIN). The leading NUL byte keeps them out of the way of
// text protocols; the version digit leaves room to evolve the format.
var (
	sealMagic = []byte("\x00ab/seal1\x00")
	joinMagic = []byte("\x00ab/join1\x00")
)

// EncodeSealMarker builds the SEAL marker payload for a retiring group,
// embedding the pipeline window bound W (>= the deepest proposal pipeline
// of any process; rounds beyond r_s+W provably carry no application
// content).
func EncodeSealMarker(window uint64) []byte {
	buf := make([]byte, 0, len(sealMagic)+binary.MaxVarintLen64)
	buf = append(buf, sealMagic...)
	return binary.AppendUvarint(buf, window)
}

// DecodeSealMarker reports whether p is a SEAL marker and returns its
// window bound.
func DecodeSealMarker(p []byte) (window uint64, ok bool) {
	if len(p) <= len(sealMagic) || string(p[:len(sealMagic)]) != string(sealMagic) {
		return 0, false
	}
	w, n := binary.Uvarint(p[len(sealMagic):])
	if n <= 0 {
		return 0, false
	}
	return w, true
}

// EncodeJoinMarker builds the JOIN marker payload announcing newGroup. It
// is ordered in the anchor group; the delivery position fixes the new
// group's global-round offset.
func EncodeJoinMarker(newGroup ids.GroupID) []byte {
	buf := make([]byte, 0, len(joinMagic)+binary.MaxVarintLen64)
	buf = append(buf, joinMagic...)
	return binary.AppendUvarint(buf, uint64(newGroup))
}

// DecodeJoinMarker reports whether p is a JOIN marker and returns the
// joining group.
func DecodeJoinMarker(p []byte) (newGroup ids.GroupID, ok bool) {
	if len(p) <= len(joinMagic) || string(p[:len(joinMagic)]) != string(joinMagic) {
		return 0, false
	}
	g, n := binary.Uvarint(p[len(joinMagic):])
	if n <= 0 {
		return 0, false
	}
	return ids.GroupID(g), true
}

// IsMarker reports whether p is any topology marker payload. The sharded
// layer uses it to keep protocol-internal markers out of application
// delivery callbacks.
func IsMarker(p []byte) bool {
	if _, ok := DecodeSealMarker(p); ok {
		return true
	}
	_, ok := DecodeJoinMarker(p)
	return ok
}
