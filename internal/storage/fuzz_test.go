package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// A walLogSnap value whose entry count exceeds what its bytes can hold is
// malformed before it sizes anything: 2^32-1 entries would ask replay for
// ~96 GB of slice headers.
func TestDecodeLogSnapBoundsCount(t *testing.T) {
	val := binary.LittleEndian.AppendUint32(nil, 1<<32-1)
	val = append(val, 0, 0, 0, 0, 0, 0, 0, 0) // room for two empty entries
	var ok bool
	allocs := testing.AllocsPerRun(1, func() { _, ok = decodeLogSnap(val) })
	if ok || allocs != 0 {
		t.Fatalf("decodeLogSnap accepted=%v with %v allocations; want a rejection that allocates nothing", ok, allocs)
	}
}

// FuzzDecodeWALRecord feeds arbitrary record bytes (what unframe hands
// replay once a frame's CRC matched) to the record decoders and to replay
// itself. Nothing may panic; a record that decodes re-frames to exactly its
// bytes; a walLogSnap value that decodes re-encodes to the same entries;
// and replaying the record into an empty index leaves its live-bytes
// counter equal to what the index holds. testdata/fuzz holds today's
// encodings of every record kind as the seed corpus.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec []byte) {
		if entries, ok := decodeLogSnap(rec); ok {
			checkLogSnap(t, rec, entries)
		}
		op, key, val, ok := decodeWALRec(rec)
		if !ok {
			return
		}
		if back, _, ok := unframe(appendRec(nil, op, string(key), val)); !ok || !bytes.Equal(back, rec) {
			t.Fatalf("record %x re-framed as %x (ok=%v)", rec, back, ok)
		}
		if entries, ok := decodeLogSnap(val); ok {
			checkLogSnap(t, val, entries)
		}

		w := &WAL{cells: make(map[string][]byte), logs: make(map[string][][]byte)}
		w.applyRec(rec)
		var live int64
		for k, v := range w.cells {
			live += recLiveBytes(k, len(v))
		}
		for k, recs := range w.logs {
			for _, r := range recs {
				live += recLiveBytes(k, len(r))
			}
		}
		if live != w.liveBytes {
			t.Fatalf("replay counted %d live bytes, the index holds %d", w.liveBytes, live)
		}
	})
}

// checkLogSnap re-encodes entries decoded from val and decodes them again.
func checkLogSnap(t *testing.T, val []byte, entries [][]byte) {
	t.Helper()
	if len(entries) > len(val)/4 {
		t.Fatalf("%d entries decoded from %d bytes", len(entries), len(val))
	}
	rec, _, ok := unframe(appendLogSnapRec(nil, "k", entries))
	if !ok {
		t.Fatal("re-encoded log snapshot does not unframe")
	}
	_, _, back, _ := decodeWALRec(rec)
	again, ok := decodeLogSnap(back)
	if !ok || len(again) != len(entries) {
		t.Fatalf("log snapshot round trip: %d entries (ok=%v), want %d", len(again), ok, len(entries))
	}
	for i := range entries {
		if !bytes.Equal(again[i], entries[i]) {
			t.Fatalf("log snapshot round trip: entry %d is %x, want %x", i, again[i], entries[i])
		}
	}
}
