package consensus

import (
	"reflect"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary consensus-channel frames to the
// decoder. No frame may panic it, and what it accepts must survive a
// re-encode: decode(encode(decode(x))) == decode(x). The round trip is on
// the decoded message, not the bytes, because Bool reads any non-zero byte
// as true and writes it back as 1. testdata/fuzz holds one encoding of
// each of the twelve message kinds as the seed corpus.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeMessage(frame)
		if err != nil {
			return
		}
		back, err := decodeMessage(m.encode())
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip: %+v, want %+v", back, m)
		}
	})
}
