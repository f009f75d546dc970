package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// FuzzDecodeWALRecord feeds arbitrary record bytes (what a segment scan
// hands replay once a frame's CRC matched) to the record decoders and to
// replay itself. Nothing may panic; a record that decodes re-frames to
// exactly its bytes; a walLogSnap value that decodes re-encodes to the same
// entries; and replaying the record into an empty index leaves its
// live-bytes counter equal to what the index holds, every location inside
// the record. testdata/fuzz holds today's encodings of every record kind as
// the seed corpus.
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

		const seg, at = 7, 100 // replay the record as if found at offset 100 of segment 7
		w := &WAL{cells: make(map[string]loc), logs: make(map[string][]loc)}
		w.applyRec(seg, at, rec)
		var live int64
		inside := func(l loc) {
			if l.seg != seg || l.off < at || l.off+int64(l.n) > at+int64(len(rec)) {
				t.Fatalf("replay located a value at %+v, outside the record (%d bytes at %d)", l, len(rec), at)
			}
		}
		for k, l := range w.cells {
			inside(l)
			live += recLiveBytes(k, l.n)
		}
		for k, recs := range w.logs {
			for _, l := range recs {
				inside(l)
				live += recLiveBytes(k, l.n)
			}
		}
		if live != w.liveBytes {
			t.Fatalf("replay counted %d live bytes, the index holds %d", w.liveBytes, live)
		}
	})
}

// appendRec frames one (op, key, val) record onto buf, as an issued write
// and the committer together do.
func appendRec(buf []byte, op byte, key string, val []byte) []byte {
	buf, start := beginRec(buf, op, key)
	buf = endRec(append(buf, val...), start)
	sealFrames(buf[start:])
	return buf
}

// unframe extracts one framed payload, returning it, the remaining bytes and
// whether the frame was intact, as a segment scan checks it.
func unframe(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if uint32(len(b)-8) < n {
		return nil, nil, false
	}
	payload = b[8 : 8+n : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, false
	}
	return payload, b[8+n:], true
}

// checkLogSnap re-encodes entries decoded from val and decodes them again.
func checkLogSnap(t *testing.T, val []byte, entries []loc) {
	t.Helper()
	if len(entries) > len(val)/4 {
		t.Fatalf("%d entries decoded from %d bytes", len(entries), len(val))
	}
	from := func(b []byte) func(dst []byte, e loc) error {
		return func(dst []byte, e loc) error {
			copy(dst, b[e.off:e.off+int64(e.n)])
			return nil
		}
	}
	framed, err := appendLogSnapRec(nil, "k", entries, from(val))
	if err != nil {
		t.Fatal(err)
	}
	sealFrames(framed)
	rec, _, ok := unframe(framed)
	if !ok {
		t.Fatal("re-encoded log snapshot does not unframe")
	}
	_, _, back, _ := decodeWALRec(rec)
	again, ok := decodeLogSnap(back)
	if !ok || len(again) != len(entries) {
		t.Fatalf("log snapshot round trip: %d entries (ok=%v), want %d", len(again), ok, len(entries))
	}
	for i := range entries {
		got, want := back[again[i].off:again[i].off+int64(again[i].n)], val[entries[i].off:entries[i].off+int64(entries[i].n)]
		if !bytes.Equal(got, want) {
			t.Fatalf("log snapshot round trip: entry %d is %x, want %x", i, got, want)
		}
	}
}

// FuzzWALAgainstMem runs an operation sequence decoded from its input
// against a WAL and against the Mem model, on a few keys with values up to
// 64 KiB: PutAsync, AppendAsync, DeleteAsync, Sync, Compact, close and
// reopen, ExportNamespace between two Prefixed namespaces, and
// DeleteRangeAsync over bounds drawn from the keys and the two ends (the
// model takes DeleteRange, the synchronous engines' form). After every
// operation, and so after every reopen, Get, Records and List on the WAL
// must equal the model's, and the completions issued since the last
// barrier must resolve in issue order (a later one done means every
// earlier one is, whether or not they share a group's completion); when
// Sync returns, every one issued before it is done. Small segments and
// background compaction keep records moving between the group buffers,
// the segments and the rescue.
func FuzzWALAgainstMem(f *testing.F) {
	keys := []string{"src/a", "src/b", "dst/a", "dst/b", "x"}
	bounds := append([]string{"", "~"}, keys...)
	opts := WALOptions{SegmentBytes: 64 << 10, CompactFactor: 2, CompactMinBytes: 64 << 10, NoSync: true}
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		w, err := OpenWAL(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { w.Close() }()
		model := NewMem()
		var pending []*Completion
		inOrder := func(when string) {
			// Latest first: resolution is monotonic and in order, so once a
			// later completion reads done, every earlier one must.
			later := -1
			for i := len(pending) - 1; i >= 0; i-- {
				if _, done := pending[i].Poll(); done && later < 0 {
					later = i
				} else if !done && later >= 0 {
					t.Fatalf("%s: completion %d is pending while the later %d is done", when, i, later)
				}
			}
		}
		settle := func() {
			for _, c := range pending {
				if err := c.Wait(); err != nil {
					t.Fatalf("write failed: %v", err)
				}
			}
			pending = pending[:0]
		}
		for step := 0; len(in) > 0 && step < 64; step++ {
			op := in[0] % 8
			var key, to string
			var val []byte
			if len(in) > 1 {
				key = keys[int(in[1])%len(keys)]
			}
			if op == 7 && len(in) > 2 {
				key, to = bounds[int(in[1])%len(bounds)], bounds[int(in[2])%len(bounds)]
				in = in[1:]
			}
			if len(in) > 4 && (op == 0 || op == 1) {
				val = make([]byte, int(binary.LittleEndian.Uint16(in[2:]))+int(in[4]%2))
				for i := range val {
					val[i] = in[4] + byte(i)
				}
				in = in[3:]
			}
			in = in[min(len(in), 2):]
			var what string
			switch op {
			case 0:
				what = fmt.Sprintf("PutAsync(%q, %d B)", key, len(val))
				pending = append(pending, w.PutAsync(key, val))
				model.Put(key, val)
			case 1:
				what = fmt.Sprintf("AppendAsync(%q, %d B)", key, len(val))
				pending = append(pending, w.AppendAsync(key, val))
				model.Append(key, val)
			case 2:
				what = fmt.Sprintf("DeleteAsync(%q)", key)
				pending = append(pending, w.DeleteAsync(key))
				model.Delete(key)
			case 3:
				what = "Sync"
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
				for i, c := range pending {
					if _, done := c.Poll(); !done {
						t.Fatalf("step %d: Sync returned before completion %d of %d issued before it", step, i, len(pending))
					}
				}
				settle()
			case 4:
				what = "Compact"
				if err := w.Compact(); err != nil {
					t.Fatal(err)
				}
			case 5:
				what = "reopen"
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				settle()
				if w, err = OpenWAL(dir, opts); err != nil {
					t.Fatal(err)
				}
			case 6:
				what = "ExportNamespace(src/, dst/)"
				if _, _, err := ExportNamespace(NewPrefixed(w, "src"), NewPrefixed(w, "dst")); err != nil {
					t.Fatal(err)
				}
				ExportNamespace(NewPrefixed(model, "src"), NewPrefixed(model, "dst"))
			case 7:
				what = fmt.Sprintf("DeleteRangeAsync(%q, %q)", key, to)
				pending = append(pending, w.DeleteRangeAsync(key, to))
				DeleteRange(model, key, to)
			}
			inOrder(fmt.Sprintf("step %d, %s", step, what))
			checkAgainstModel(t, w, model, keys, fmt.Sprintf("step %d, %s", step, what))
		}
		settle()
	})
}

// checkAgainstModel fails unless Get, Records and List agree between the
// WAL and the model on every key.
func checkAgainstModel(t *testing.T, w *WAL, model *Mem, keys []string, when string) {
	t.Helper()
	got, err := w.List("")
	if err != nil {
		t.Fatalf("%s: List: %v", when, err)
	}
	want, _ := model.List("")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: List = %q, model %q", when, got, want)
	}
	for _, k := range keys {
		v, ok, err := w.Get(k)
		mv, mok, _ := model.Get(k)
		if err != nil || ok != mok || !bytes.Equal(v, mv) {
			t.Fatalf("%s: Get(%q) = %d B, %v, %v; model %d B, %v", when, k, len(v), ok, err, len(mv), mok)
		}
		recs, err := w.Records(k)
		mrecs, _ := model.Records(k)
		if err != nil || len(recs) != len(mrecs) {
			t.Fatalf("%s: Records(%q) = %d, %v; model %d", when, k, len(recs), err, len(mrecs))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], mrecs[i]) {
				t.Fatalf("%s: Records(%q)[%d] = %d B, model %d B", when, k, i, len(recs[i]), len(mrecs[i]))
			}
		}
	}
}
