package abcast

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// TestDecodeReapedBoundsCount: an abcast/reaped cell claiming 2^24 groups
// in no bytes is refused before a slice is sized by the count, and a real
// one round-trips.
func TestDecodeReapedBoundsCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeReaped(binary.AppendUvarint(nil, 1<<24))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a reaped set claiming 2^24 groups in no bytes decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("decoding it allocated %d bytes", n)
	}
	gs, err := decodeReaped(encodeReaped([]GroupID{3, 1}))
	if err != nil || !reflect.DeepEqual(gs, []GroupID{1, 3}) {
		t.Fatalf("round trip: %v, %v", gs, err)
	}
}

// TestDecodeReapedRejectsWideGroup: an entry wider than a GroupID is
// refused, not truncated onto another group (FuzzDecodeReaped found 2^32+3
// decoding as group 3, and wider values as negative groups).
func TestDecodeReapedRejectsWideGroup(t *testing.T) {
	b := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<32|3)
	if gs, err := decodeReaped(b); err == nil {
		t.Fatalf("an entry of 2^32+3 decoded as %v", gs)
	}
}

// FuzzDecodeReaped feeds arbitrary bytes to the decoder of the reaped-group
// cell NewSharded reads back from disk. None may panic it; what it accepts
// sizes its result by the input (at most one group per byte), holds only
// GroupIDs, and survives a re-encode: encodeReaped∘decodeReaped is stable.
// testdata/fuzz holds an empty set, a real set, the hostile count and a
// group wider than 32 bits.
func FuzzDecodeReaped(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		gs, err := decodeReaped(b)
		if err != nil {
			return
		}
		if cap(gs) > len(b) {
			t.Fatalf("%d bytes decoded into a slice of capacity %d", len(b), cap(gs))
		}
		for _, g := range gs {
			if g < 0 {
				t.Fatalf("decoded group %v", g)
			}
		}
		enc := encodeReaped(gs)
		back, err := decodeReaped(enc)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", gs, err)
		}
		if again := encodeReaped(back); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable: %x, then %x", enc, again)
		}
	})
}
