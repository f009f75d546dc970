package group

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

func TestTopologyMarkerCodecs(t *testing.T) {
	seal := EncodeSealMarker(7)
	if w, ok := DecodeSealMarker(seal); !ok || w != 7 {
		t.Fatalf("seal round-trip: w=%d ok=%v", w, ok)
	}
	if _, ok := DecodeJoinMarker(seal); ok {
		t.Fatal("seal marker decoded as join")
	}
	join := EncodeJoinMarker(9)
	if g, ok := DecodeJoinMarker(join); !ok || g != 9 {
		t.Fatalf("join round-trip: g=%v ok=%v", g, ok)
	}
	if _, ok := DecodeSealMarker(join); ok {
		t.Fatal("join marker decoded as seal")
	}
	for _, p := range [][]byte{seal, join} {
		if !IsMarker(p) {
			t.Fatalf("IsMarker(%q) = false", p)
		}
	}
	for _, p := range [][]byte{nil, []byte("x"), []byte("\x00ab/"), []byte("application payload")} {
		if IsMarker(p) {
			t.Fatalf("IsMarker(%q) = true for application content", p)
		}
		if _, ok := DecodeSealMarker(p); ok {
			t.Fatalf("DecodeSealMarker accepted %q", p)
		}
		if _, ok := DecodeJoinMarker(p); ok {
			t.Fatalf("DecodeJoinMarker accepted %q", p)
		}
	}
	// Truncated magic without a varint body is not a marker.
	if _, ok := DecodeSealMarker([]byte("\x00ab/seal1\x00")); ok {
		t.Fatal("seal marker without a window decoded")
	}
}

func TestTopologySealJoinTransitions(t *testing.T) {
	topo := NewStaticTopology(2)
	if topo.Epoch != 0 || len(topo.Spans) != 2 {
		t.Fatalf("static topology: %+v", topo)
	}
	if a, ok := topo.Anchor(); !ok || a != 0 {
		t.Fatalf("anchor = %v, %v", a, ok)
	}

	// Join: offset = anchorOffset + r_j + 1, epoch bumps, duplicates inert.
	if !topo.ApplyJoin(0, 4, 2) {
		t.Fatal("join not applied")
	}
	if topo.ApplyJoin(0, 9, 2) {
		t.Fatal("duplicate join applied (first marker's position must be authoritative)")
	}
	if sp := topo.Spans[2]; sp.Offset != 5 || sp.Sealed {
		t.Fatalf("joined span = %+v; want offset 5", sp)
	}
	if topo.Epoch != 1 {
		t.Fatalf("epoch = %d after one join", topo.Epoch)
	}
	// Join anchored at an unknown group is inert.
	if topo.ApplyJoin(7, 0, 3) {
		t.Fatal("join through unknown anchor applied")
	}

	// Seal: final = r_s + W, epoch bumps, duplicates inert.
	if !topo.ApplySeal(1, 10, 3) {
		t.Fatal("seal not applied")
	}
	if topo.ApplySeal(1, 20, 9) {
		t.Fatal("duplicate seal applied")
	}
	if sp := topo.Spans[1]; !sp.Sealed || sp.Final != 13 {
		t.Fatalf("sealed span = %+v; want final 13", sp)
	}
	if topo.Epoch != 2 {
		t.Fatalf("epoch = %d after join+seal", topo.Epoch)
	}
	if gf, ok := topo.GlobalFinal(1); !ok || gf != 13 {
		t.Fatalf("GlobalFinal(1) = %d, %v", gf, ok)
	}
	if _, ok := topo.GlobalFinal(0); ok {
		t.Fatal("GlobalFinal returned a value for an unsealed group")
	}

	active := topo.Active()
	if len(active) != 2 || active[0] != 0 || active[1] != 2 {
		t.Fatalf("active = %v; want [0 2]", active)
	}
	if gs := topo.Groups(); len(gs) != 3 {
		t.Fatalf("groups = %v; want all three (sealed included)", gs)
	}

	// Seal the anchor too: the anchor moves to the lowest surviving group.
	if !topo.ApplySeal(0, 0, 1) {
		t.Fatal("anchor seal not applied")
	}
	if a, ok := topo.Anchor(); !ok || a != 2 {
		t.Fatalf("anchor after sealing 0 = %v, %v; want 2", a, ok)
	}
}

func TestTopologyEncodeDecodeRoundTrip(t *testing.T) {
	topo := NewStaticTopology(2)
	topo.ApplyJoin(0, 4, 2)
	topo.ApplySeal(1, 10, 3)

	enc := topo.Encode()
	dec, err := DecodeTopology(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != topo.Epoch || len(dec.Spans) != len(topo.Spans) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", dec, topo)
	}
	for g, sp := range topo.Spans {
		if dec.Spans[g] != sp {
			t.Fatalf("span %v: %+v vs %+v", g, dec.Spans[g], sp)
		}
	}
	// Deterministic encoding (the floor gossip compares descriptors).
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("Encode is not deterministic across a decode round-trip")
	}
	// Corrupt/truncated descriptors are rejected, not misread.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeTopology(enc[:i]); err == nil && i < len(enc)-1 {
			t.Fatalf("truncated descriptor of %d/%d bytes decoded", i, len(enc))
		}
	}

	// Clone is deep: mutating the clone leaves the original alone.
	cl := topo.Clone()
	cl.ApplySeal(0, 5, 1)
	if topo.Spans[0].Sealed {
		t.Fatal("Clone shares span storage with the original")
	}
}

func TestTopologyGlobalRounds(t *testing.T) {
	// The doc's splice arithmetic: a group joining off anchor round r_j
	// gets offset anchorOffset+r_j+1, chained joins compose.
	topo := NewStaticTopology(1)
	topo.ApplyJoin(0, 9, 1) // g1 at offset 10
	topo.ApplyJoin(1, 4, 2) // g2 anchored in g1: offset 10+4+1 = 15
	if sp := topo.Spans[1]; sp.Offset != 10 {
		t.Fatalf("g1 offset = %d; want 10", sp.Offset)
	}
	if sp := topo.Spans[2]; sp.Offset != 15 {
		t.Fatalf("g2 offset = %d; want 15", sp.Offset)
	}
}

// TestDecodeTopologyBoundsCount: a five-byte descriptor claiming 2^24 spans
// (a peer's floor gossip or a corrupt abcast/topo cell) is refused before
// anything is sized by the count.
func TestDecodeTopologyBoundsCount(t *testing.T) {
	b := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTopology(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a descriptor claiming 2^24 spans in no bytes decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("decoding it allocated %d bytes", n)
	}
}

// FuzzDecodeTopology feeds arbitrary descriptors to the decoder. None may
// panic it, and what it accepts must survive a re-encode:
// decode(encode(decode(x))) == decode(x). testdata/fuzz holds today's
// encodings (static, joined and sealed spans) and the hostile count.
func FuzzDecodeTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		topo, err := DecodeTopology(b)
		if err != nil {
			return
		}
		back, err := DecodeTopology(topo.Encode())
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", topo, err)
		}
		if !reflect.DeepEqual(back, topo) {
			t.Fatalf("round trip: %+v, want %+v", back, topo)
		}
	})
}
