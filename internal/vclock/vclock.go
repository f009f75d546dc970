// Package vclock implements the checkpoint coverage clock of §5.2: "The
// vector clock stores the sequence number of the last message delivered from
// each process 'contained' in the checkpoint." A message belongs to a
// delivery sequence if it appears explicitly in the suffix or is logically
// included in the application checkpoint that initiates the sequence.
//
// Because message identities are qualified by the sender's incarnation (see
// internal/ids), the clock is keyed by (sender, incarnation) pairs.
//
// # Exact coverage
//
// The paper's clock is a per-stream maximum, which implicitly assumes a
// sender's messages enter the total order in sequence-number order. Under
// message loss that assumption fails: with batched broadcast, a sender's
// m4 can be ordered rounds before its m3 (whose gossip was lost), so a
// checkpoint folding m4 must NOT claim to contain m3 — processes that
// folded at different rounds would otherwise disagree on whether a later
// batch's m3 is fresh, and their delivery sequences would diverge. This
// clock therefore tracks coverage exactly: the per-stream maximum plus the
// explicit "holes" below it (sequence numbers not contained). Holes are
// kept as runs [lo, hi], so the clock's size follows the number of gaps,
// not their width: empty in the common in-order case, a few runs under
// in-flight skew, and one run — not 2^48 entries — when live resharding
// re-injects an orphan under a sequence number tagged far above the native
// counters. Covers is exact: it reports containment of precisely the folded
// messages.
package vclock

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Key identifies one message stream: one sender incarnation.
type Key struct {
	Sender      ids.ProcessID
	Incarnation uint32
}

// span is a run of consecutive sequence numbers [lo, hi] that are NOT
// contained.
type span struct{ lo, hi uint64 }

// Clock is the coverage state. Use the VC alias; create with New.
type Clock struct {
	// max[k] is the highest sequence number contained for stream k
	// (sequence numbers start at 1; a missing entry means "nothing
	// contained"). The maximum itself is always contained.
	max map[Key]uint64
	// holes[k] is the runs of sequence numbers below max[k] that are NOT
	// contained (the stream's messages ordered out of sequence order):
	// sorted, disjoint and non-adjacent, never empty for a present key.
	holes map[Key][]span
}

// VC is the clock handle stored in checkpoints (nil means "no clock").
type VC = *Clock

// New returns an empty clock.
func New() VC {
	return &Clock{max: make(map[Key]uint64)}
}

// Covers reports whether the clock contains message id — exactly: true
// iff id was observed (or is below the stream maximum with no hole).
func (c *Clock) Covers(id ids.MsgID) bool {
	k := Key{id.Sender, id.Incarnation}
	return id.Seq <= c.max[k] && find(c.holes[k], id.Seq) < 0
}

// find returns the index of the run containing seq, or -1.
func find(hs []span, seq uint64) int {
	i := sort.Search(len(hs), func(i int) bool { return hs[i].hi >= seq })
	if i < len(hs) && hs[i].lo <= seq {
		return i
	}
	return -1
}

// Observe extends the clock to contain id. Observing above the stream
// maximum records the skipped-over sequence numbers as one hole run;
// observing inside a run splits or shrinks it.
func (c *Clock) Observe(id ids.MsgID) {
	k := Key{id.Sender, id.Incarnation}
	seq := id.Seq
	if max := c.max[k]; seq > max {
		if seq > max+1 {
			c.setHoles(k, append(c.holes[k], span{max + 1, seq - 1}))
		}
		c.max[k] = seq
		return
	}
	hs := c.holes[k]
	i := find(hs, seq)
	if i < 0 {
		return
	}
	switch h := hs[i]; {
	case h.lo == h.hi:
		hs = append(hs[:i], hs[i+1:]...)
	case seq == h.lo:
		hs[i].lo++
	case seq == h.hi:
		hs[i].hi--
	default:
		hs = append(hs, span{})
		copy(hs[i+2:], hs[i+1:])
		hs[i].hi, hs[i+1] = seq-1, span{seq + 1, h.hi}
	}
	c.setHoles(k, hs)
}

// setHoles installs stream k's runs, dropping the entry when none are left.
func (c *Clock) setHoles(k Key, hs []span) {
	if len(hs) == 0 {
		delete(c.holes, k)
		return
	}
	if c.holes == nil {
		c.holes = make(map[Key][]span)
	}
	c.holes[k] = hs
}

// uncovered returns what stream k misses up to and including upTo: its
// hole runs, plus everything above its maximum. The result may alias the
// clock's own runs; callers only read it.
func (c *Clock) uncovered(k Key, upTo uint64) []span {
	hs := c.holes[k]
	if max := c.max[k]; max < upTo {
		hs = append(hs[:len(hs):len(hs)], span{max + 1, upTo})
	}
	return hs
}

// Merge folds o into c so that c covers exactly the union of both
// coverages. Merge is commutative, associative and idempotent.
func (c *Clock) Merge(o *Clock) {
	for k, omax := range o.max {
		top := omax
		if cmax := c.max[k]; cmax > top {
			top = cmax
		}
		if top == 0 {
			continue
		}
		// A sequence number stays uncovered only if both clocks miss it.
		a, b := c.uncovered(k, top), o.uncovered(k, top)
		var both []span
		for i, j := 0, 0; i < len(a) && j < len(b); {
			lo, hi := a[i].lo, a[i].hi
			if b[j].lo > lo {
				lo = b[j].lo
			}
			if b[j].hi < hi {
				hi = b[j].hi
			}
			if lo <= hi {
				both = append(both, span{lo, hi})
			}
			if a[i].hi < b[j].hi {
				i++
			} else {
				j++
			}
		}
		c.max[k] = top
		c.setHoles(k, both)
	}
}

// Clone returns an independent copy.
func (c *Clock) Clone() VC {
	out := &Clock{max: make(map[Key]uint64, len(c.max))}
	for k, s := range c.max {
		out.max[k] = s
	}
	for k, hs := range c.holes {
		out.setHoles(k, append([]span(nil), hs...))
	}
	return out
}

// Equal reports coverage equality (zero entries are ignored).
func (c *Clock) Equal(o *Clock) bool {
	return c.Dominates(o) && o.Dominates(c)
}

// Dominates reports whether c covers everything o covers.
func (c *Clock) Dominates(o *Clock) bool {
	for k, omax := range o.max {
		if omax == 0 {
			continue
		}
		if omax > c.max[k] {
			// o covers omax itself (the maximum is always contained).
			return false
		}
		// c's only coverage gaps are its hole runs: each, as far as it
		// reaches into o's range, must lie inside one of o's runs (a run
		// reaching omax never does: o contains its maximum).
		ohs := o.holes[k]
		for _, h := range c.holes[k] {
			if h.lo > omax {
				break
			}
			hi := h.hi
			if hi > omax {
				hi = omax
			}
			if i := find(ohs, h.lo); i < 0 || ohs[i].hi < hi {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns the keys in deterministic order (for encoding).
func (c *Clock) sortedKeys() []Key {
	keys := make([]Key, 0, len(c.max))
	for k := range c.max {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Sender != keys[j].Sender {
			return keys[i].Sender < keys[j].Sender
		}
		return keys[i].Incarnation < keys[j].Incarnation
	})
	return keys
}

// Encode appends the clock to w deterministically: per stream its maximum
// and its hole runs as (lo, length-1) pairs.
func (c *Clock) Encode(w *wire.Writer) {
	keys := c.sortedKeys()
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.I64(int64(k.Sender))
		w.U64(uint64(k.Incarnation))
		w.U64(c.max[k])
		hs := c.holes[k]
		w.U64(uint64(len(hs)))
		for _, h := range hs {
			w.U64(h.lo)
			w.U64(h.hi - h.lo)
		}
	}
}

// Decode reads a clock from r; nil on malformed input.
func Decode(r *wire.Reader) VC {
	n := r.U64()
	if r.Err() != nil {
		return nil
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096
	}
	c := &Clock{max: make(map[Key]uint64, capHint)}
	for i := uint64(0); i < n; i++ {
		var k Key
		k.Sender = ids.ProcessID(r.I64())
		k.Incarnation = uint32(r.U64())
		max := r.U64()
		c.max[k] = max
		hn := r.U64()
		// hn is disk/attacker-controlled: every run costs at least two
		// encoded bytes, so a count beyond the remaining buffer is
		// malformed — reject it before looping anywhere near it.
		if r.Err() != nil || hn > uint64(r.Remaining()) {
			return nil
		}
		var hs []span
		var prev uint64 // the previous run's hi
		for j := uint64(0); j < hn; j++ {
			lo := r.U64()
			hi := lo + r.U64()
			// Runs start at 1, end below the maximum, and are sorted,
			// disjoint and non-adjacent.
			if r.Err() != nil || lo == 0 || hi < lo || hi >= max || (j > 0 && (lo <= prev || lo-prev < 2)) {
				return nil
			}
			hs = append(hs, span{lo, hi})
			prev = hi
		}
		c.setHoles(k, hs)
	}
	return c
}
