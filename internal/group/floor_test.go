package group

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// floorClock is a manual clock for FloorTracker tests.
type floorClock struct{ t time.Time }

func (c *floorClock) now() time.Time          { return c.t }
func (c *floorClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(self func() uint64, cap_ time.Duration) (*FloorTracker, *floorClock) {
	clk := &floorClock{t: time.Unix(1000, 0)}
	tr := NewFloorTracker(self, cap_)
	tr.now = clk.now
	tr.created = clk.t
	return tr, clk
}

func TestFloorTrackerClusterMinimum(t *testing.T) {
	local := uint64(100)
	tr, _ := newTestTracker(func() uint64 { return local }, time.Second)
	peers := []ids.ProcessID{1, 2}

	// Never-reported peers hold the floor at 0 (conservative start).
	if f := tr.ClusterFloor(peers); f != 0 {
		t.Fatalf("floor before any report = %d; want 0", f)
	}
	tr.Report(1, 40)
	tr.Report(2, 70)
	if f := tr.ClusterFloor(peers); f != 40 {
		t.Fatalf("floor = %d; want the slowest fresh peer (40)", f)
	}
	// The local frontier participates in the minimum.
	local = 30
	if f := tr.ClusterFloor(peers); f != 30 {
		t.Fatalf("floor = %d; want the local frontier (30)", f)
	}
	local = 100

	// Reports are monotone per peer: a reordered older report cannot
	// lower an earlier one.
	tr.Report(1, 25)
	if f := tr.ClusterFloor(peers); f != 40 {
		t.Fatalf("floor = %d after stale reorder; want 40", f)
	}
	tr.Report(1, 90)
	if f := tr.ClusterFloor(peers); f != 70 {
		t.Fatalf("floor = %d; want 70", f)
	}
}

func TestFloorTrackerStalenessCap(t *testing.T) {
	tr, clk := newTestTracker(func() uint64 { return 100 }, time.Second)
	peers := []ids.ProcessID{1, 2}
	tr.Report(1, 10)
	tr.Report(2, 80)
	if f := tr.ClusterFloor(peers); f != 10 {
		t.Fatalf("floor = %d; want 10", f)
	}

	// p1 goes silent past the cap: it stops holding the floor down. p2
	// keeps reporting and still gates.
	clk.advance(1500 * time.Millisecond)
	tr.Report(2, 80)
	if f := tr.ClusterFloor(peers); f != 80 {
		t.Fatalf("floor = %d after p1 went stale; want 80", f)
	}
	// p1 returns within a fresh report: it gates again.
	tr.Report(1, 20)
	if f := tr.ClusterFloor(peers); f != 20 {
		t.Fatalf("floor = %d after p1 returned; want 20", f)
	}

	// A peer that NEVER reported stops holding the floor once the cap has
	// elapsed since creation.
	tr2, clk2 := newTestTracker(func() uint64 { return 50 }, time.Second)
	if f := tr2.ClusterFloor(peers); f != 0 {
		t.Fatalf("young tracker floor = %d; want 0", f)
	}
	clk2.advance(2 * time.Second)
	if f := tr2.ClusterFloor(peers); f != 50 {
		t.Fatalf("aged tracker floor = %d; want the local frontier", f)
	}

	// cap 0 = never stale: an unreported peer holds the floor forever.
	tr3, clk3 := newTestTracker(func() uint64 { return 50 }, 0)
	clk3.advance(time.Hour)
	if f := tr3.ClusterFloor(peers); f != 0 {
		t.Fatalf("uncapped tracker floor = %d; want 0 (waits indefinitely)", f)
	}
}

// TestFloorTrackerHeardSince: a peer counts once it has reported at or
// after the given time, however often; a report from before it does not.
func TestFloorTrackerHeardSince(t *testing.T) {
	tr, clk := newTestTracker(func() uint64 { return 0 }, time.Second)
	peers := []ids.ProcessID{1, 2}
	tr.Report(1, 5)
	clk.advance(time.Millisecond)
	since := clk.now()
	if n := tr.HeardSince(peers, since); n != 0 {
		t.Fatalf("heard %d peers since a time after every report; want 0", n)
	}
	tr.Report(2, 9)
	tr.Report(2, 9)
	if n := tr.HeardSince(peers, since); n != 1 {
		t.Fatalf("heard %d peers; want 1 (p2)", n)
	}
	tr.Report(1, 6)
	if n := tr.HeardSince(peers, since); n != 2 {
		t.Fatalf("heard %d peers; want 2", n)
	}
	if n := tr.HeardSince(peers[:1], since); n != 1 {
		t.Fatalf("heard %d of [p1]; want 1", n)
	}
}

// FuzzDecodeFloor feeds arbitrary floor reports, as a peer's gossip
// carries them, to the decoder and on to the topology decoder, as
// abcast.Sharded does. Neither may panic, and what the report decoder
// accepts must survive a re-encode. testdata/fuzz holds today's encoding
// (floor 7 under epoch 2 with a joined and a sealed span), an empty
// topology and a topology length the report cannot hold.
func FuzzDecodeFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		floor, epoch, topo, err := DecodeFloor(b)
		if err != nil {
			return
		}
		_, _ = DecodeTopology(topo)
		w := wire.NewWriter(len(b))
		AppendFloor(w, floor, epoch, topo)
		f2, e2, t2, err := DecodeFloor(w.Bytes())
		if err != nil || f2 != floor || e2 != epoch || !bytes.Equal(t2, topo) {
			t.Fatalf("round trip of (%d, %d, %x): (%d, %d, %x), %v", floor, epoch, topo, f2, e2, t2, err)
		}
	})
}

// TestFloorReportLayout pins the report's bytes: floor and epoch as
// uvarints, then the length-prefixed topology, the layout every peer of
// a running cluster decodes.
func TestFloorReportLayout(t *testing.T) {
	topo := NewStaticTopology(2).Encode()
	w := wire.NewWriter(0)
	AppendFloor(w, 7, 300, topo)
	want := append([]byte{7, 0xac, 0x02, byte(len(topo))}, topo...)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("report %x, want %x", w.Bytes(), want)
	}
	if _, _, _, err := DecodeFloor(want[:len(want)-1]); err == nil {
		t.Fatal("a report cut inside its topology decoded")
	}
}
