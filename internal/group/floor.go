package group

import (
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// FloorTracker aggregates the per-process merge frontiers gossiped on the
// digest lane into the cluster-wide GC floor: the lowest global round any
// live process has yet to merge past. Checkpoint folds and WAL compaction
// gate on this floor instead of the purely local frontier, so a process
// that crashes and recovers slowly finds the rounds it is missing still
// gossipable — no GC-forced state transfer — as long as it returns within
// the staleness cap.
//
// The cap bounds the damage a dead process can do: a peer whose last report
// is older than the cap stops holding the floor down (its report goes
// stale), so garbage collection resumes at the pace of the live cluster.
// That peer, if it eventually returns, may then need the ordinary
// state-transfer path — exactly the pre-existing behaviour, now reserved
// for outages longer than the cap instead of any outage at all.
type FloorTracker struct {
	mu      sync.Mutex
	self    func() uint64 // local merge frontier (global rounds)
	cap     time.Duration
	now     func() time.Time
	floors  map[ids.ProcessID]uint64
	seen    map[ids.ProcessID]time.Time
	created time.Time
}

// NewFloorTracker builds a tracker for the local process. self returns the
// local merge frontier in global rounds; stalenessCap bounds how long an
// unreported peer holds the floor (0 means reports never go stale).
func NewFloorTracker(self func() uint64, stalenessCap time.Duration) *FloorTracker {
	return &FloorTracker{
		self:    self,
		cap:     stalenessCap,
		now:     time.Now,
		floors:  make(map[ids.ProcessID]uint64),
		seen:    make(map[ids.ProcessID]time.Time),
		created: time.Now(),
	}
}

// Report records a peer's gossiped frontier (monotone per peer: stale
// reorderings on the wire cannot lower an earlier report).
func (t *FloorTracker) Report(from ids.ProcessID, floor uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if floor >= t.floors[from] {
		t.floors[from] = floor
	}
	t.seen[from] = t.now()
}

// ClusterFloor returns min(local frontier, every fresh peer's reported
// frontier). Peers that have never reported count as floor 0 until the
// staleness cap has elapsed since the tracker was created — a conservative
// start that keeps early folds from outrunning slow joiners.
func (t *FloorTracker) ClusterFloor(peers []ids.ProcessID) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	floor := t.self()
	now := t.now()
	for _, p := range peers {
		last, ok := t.seen[p]
		if !ok {
			// Never heard from this peer: hold the floor at 0 until the
			// cap expires, then stop waiting for it.
			if t.cap == 0 || now.Sub(t.created) < t.cap {
				return 0
			}
			continue
		}
		if t.cap != 0 && now.Sub(last) >= t.cap {
			continue // stale: stop holding the floor for it
		}
		if f := t.floors[p]; f < floor {
			floor = f
		}
	}
	return floor
}

// HeardSince returns how many of peers have reported at or after since.
func (t *FloorTracker) HeardSince(peers []ids.ProcessID, since time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range peers {
		if last, ok := t.seen[p]; ok && !last.Before(since) {
			n++
		}
	}
	return n
}

// AppendFloor encodes the floor report a sharded process's groups gossip
// (core.Shard.AppendFloor): its durable merge frontier, and the epoch and
// encoding of the topology it was computed under.
func AppendFloor(w *wire.Writer, floor, epoch uint64, topo []byte) {
	w.U64(floor)
	w.U64(epoch)
	w.Bytes32(topo)
}

// DecodeFloor parses an AppendFloor report; topo aliases b.
func DecodeFloor(b []byte) (floor, epoch uint64, topo []byte, err error) {
	r := wire.NewReader(b)
	floor, epoch, topo = r.U64(), r.U64(), r.Bytes32()
	return floor, epoch, topo, r.Err()
}
