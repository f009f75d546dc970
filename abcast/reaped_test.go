package abcast

import (
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
