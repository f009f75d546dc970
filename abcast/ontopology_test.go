package abcast

import (
	"testing"

	"repro/internal/group"
)

// TestOnTopologyKeepsNewerSnapshot: two delivery goroutines may hand the
// topology hook their snapshots out of epoch order. The older one, arriving
// last, must leave the router's epoch, the persisted abcast/topo cell (what
// NewSharded restores from) and the newer one's seal as they are.
func TestOnTopologyKeepsNewerSnapshot(t *testing.T) {
	inner := NewMemNetwork(1, MemNetOptions{})
	defer inner.Close()
	st := NewMemStorage()
	s, err := NewSharded(ShardedConfig{PID: 0, N: 1}, st, NewShardedNetwork(inner, 2))
	if err != nil {
		t.Fatal(err)
	}
	older := group.NewStaticTopology(2)
	older.ApplyJoin(0, 5, 2)
	newer := older.Clone()
	newer.ApplySeal(1, 10, 0)

	s.onTopology(newer)
	s.onTopology(older)

	enc, _, _ := st.Get(keyTopo)
	got, err := group.DecodeTopology(enc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != newer.Epoch || got.Epoch != newer.Epoch || !got.Spans[1].Sealed || !s.seen[1].Sealed {
		t.Fatalf("after the stale snapshot: Epoch() %d, persisted epoch %d (group 1 sealed %v), observed group 1 sealed %v; want epoch %d, sealed",
			s.Epoch(), got.Epoch, got.Spans[1].Sealed, s.seen[1].Sealed, newer.Epoch)
	}
}
