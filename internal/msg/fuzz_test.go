package msg

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// The decoders below read bytes that arrive from the network (a decided
// consensus value, a gossip frame) or come back from the disk (a logged
// proposal, an unordered-log record). Whatever the input, they must not
// panic, and what they accept must re-encode within BatchSize and decode
// back to the same messages. testdata/fuzz holds today's encodings as the
// seed corpus, replayed by every go test run.

func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		ms := DecodeBatch(r)
		// AppendBatch onto a slice with room decodes the same messages
		// behind what it holds, or, on failure, hands it back with its
		// spare capacity clear.
		held := Message{ID: ids.MsgID{Sender: 7, Seq: 7}, Payload: []byte{7}}
		dst := append(make([]Message, 0, 8), held)
		got := AppendBatch(dst, wire.NewReader(data))
		if len(got) == 0 || !got[0].Equal(held) || len(got)-1 != len(ms) {
			t.Fatalf("AppendBatch: %d messages behind %v; DecodeBatch read %d", len(got)-1, got, len(ms))
		}
		for i := range ms {
			if !got[1+i].Equal(ms[i]) {
				t.Fatalf("AppendBatch: message %d is %v; DecodeBatch read %v", i, got[1+i], ms[i])
			}
		}
		for _, mm := range dst[1:cap(dst)] {
			if r.Err() != nil && mm.Payload != nil {
				t.Fatalf("a failed AppendBatch left %v in the spare capacity", mm)
			}
		}
		if r.Err() != nil {
			if ms != nil {
				t.Fatalf("failed decode returned %d messages", len(ms))
			}
			return
		}
		w := wire.NewWriter(0)
		EncodeBatch(w, ms)
		if w.Len() > BatchSize(ms) {
			t.Fatalf("encoding is %d bytes, BatchSize promised at most %d", w.Len(), BatchSize(ms))
		}
		back := DecodeBatch(wire.NewReader(w.Bytes()))
		if len(back) != len(ms) {
			t.Fatalf("round trip: %d messages, want %d", len(back), len(ms))
		}
		for i := range ms {
			if !back[i].Equal(ms[i]) {
				t.Fatalf("round trip: message %d is %v, want %v", i, back[i], ms[i])
			}
		}
	})
}

func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		m := DecodeMessage(r)
		if r.Err() != nil {
			return
		}
		w := wire.NewWriter(0)
		m.Encode(w)
		if w.Len() > maxHeaderLen+len(m.Payload) {
			t.Fatalf("encoding is %d bytes, over the %d-byte header bound", w.Len(), maxHeaderLen)
		}
		r = wire.NewReader(w.Bytes())
		if back := DecodeMessage(r); r.Done() != nil || !back.Equal(m) {
			t.Fatalf("round trip: %v (%v), want %v", back, r.Done(), m)
		}
	})
}
