package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// indexDump captures a WAL's full logical state for exact-recovery
// comparisons.
type indexDump struct {
	cells map[string]string
	logs  map[string][]string
}

func dumpWAL(t *testing.T, w Stable) indexDump {
	t.Helper()
	d := indexDump{cells: make(map[string]string), logs: make(map[string][]string)}
	keys, err := w.List("")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, k := range keys {
		if v, ok, err := w.Get(k); err != nil {
			t.Fatalf("get %q: %v", k, err)
		} else if ok {
			d.cells[k] = string(v)
		}
		recs, err := w.Records(k)
		if err != nil {
			t.Fatalf("records %q: %v", k, err)
		}
		for _, r := range recs {
			d.logs[k] = append(d.logs[k], string(r))
		}
	}
	return d
}

func compareDumps(t *testing.T, want, got indexDump, context string) {
	t.Helper()
	if len(want.cells) != len(got.cells) {
		t.Fatalf("%s: %d cells recovered; want %d", context, len(got.cells), len(want.cells))
	}
	for k, v := range want.cells {
		if got.cells[k] != v {
			t.Fatalf("%s: cell %q = %q; want %q", context, k, got.cells[k], v)
		}
	}
	if len(want.logs) != len(got.logs) {
		t.Fatalf("%s: %d logs recovered; want %d", context, len(got.logs), len(want.logs))
	}
	for k, recs := range want.logs {
		if len(got.logs[k]) != len(recs) {
			t.Fatalf("%s: log %q has %d records; want %d (lost or duplicated)",
				context, k, len(got.logs[k]), len(recs))
		}
		for i, r := range recs {
			if got.logs[k][i] != r {
				t.Fatalf("%s: log %q record %d = %q; want %q", context, k, i, got.logs[k][i], r)
			}
		}
	}
}

// fillChurn writes a workload with plenty of dead records: cells
// overwritten many times, logs appended and periodically deleted.
func fillChurn(t *testing.T, w *WAL, rounds int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < rounds; i++ {
		for c := 0; c < 8; c++ {
			if err := w.Put(fmt.Sprintf("cell-%d", c), append(val, byte(i), byte(c))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append("log-a", fmt.Appendf(nil, "rec-%d", i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := w.Delete("log-a"); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Delete(fmt.Sprintf("cell-%d", i%8)); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestWALCompactPreservesIndex: an explicit compaction must leave the
// logical state untouched, reclaim the dead segments, and survive a clean
// reopen.
func TestWALCompactPreservesIndex(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts()
	opts.SegmentBytes = 4 << 10 // force many segments
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fillChurn(t, w, 60)
	before := dumpWAL(t, w)
	segsBefore := len(segmentFiles(t, dir))
	diskBefore := w.DiskBytes()

	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	compareDumps(t, before, dumpWAL(t, w), "after compact")
	if got := w.CompactCount(); got != 1 {
		t.Fatalf("compact count %d; want 1", got)
	}
	if segs := len(segmentFiles(t, dir)); segs >= segsBefore {
		t.Fatalf("segments not reclaimed: %d before, %d after", segsBefore, segs)
	}
	if w.DiskBytes() >= diskBefore {
		t.Fatalf("disk not reclaimed: %d before, %d after", diskBefore, w.DiskBytes())
	}

	// Writes after the compaction land in the surviving tail.
	if err := w.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer w2.Close()
	want := before
	want.cells["post"] = "compact"
	compareDumps(t, want, dumpWAL(t, w2), "reopen after compact")
}

// crashStateAt runs a workload (fill), triggers a compaction pass, and
// copies the directory's file state at the named stage — the exact
// on-disk bytes a crash at that instant would leave (the hook runs on the
// committer goroutine, so no segment write races the copy). It returns
// the copy directory, the expected logical state, and the tail segment's
// durable size recorded at the "begin" stage — rescue records land past
// that offset, so crash cuts must stay within the rescue suffix (the
// bytes before it were fsynced long before the pass started).
func crashStateAt(t *testing.T, stage string, fill func(w *WAL)) (string, indexDump, int) {
	t.Helper()
	dir := t.TempDir()
	copyDir := t.TempDir()
	opts := walOpts()
	opts.SegmentBytes = 4 << 10
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(w)
	expect := dumpWAL(t, w)

	copied := false
	rescueStart := -1
	w.mu.Lock()
	w.compactHook = func(s string) {
		if s == "begin" && rescueStart < 0 {
			// The tail (highest-numbered segment) is about to grow rescue
			// records; everything in it so far is durable.
			segs := segmentFiles(t, dir)
			st, err := os.Stat(filepath.Join(dir, segs[len(segs)-1]))
			if err != nil {
				t.Errorf("hook stat tail: %v", err)
				return
			}
			rescueStart = int(st.Size())
		}
		if s != stage || copied {
			return
		}
		copied = true
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("hook readdir: %v", err)
			return
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Errorf("hook read %s: %v", e.Name(), err)
				return
			}
			if err := os.WriteFile(filepath.Join(copyDir, e.Name()), data, 0o644); err != nil {
				t.Errorf("hook write %s: %v", e.Name(), err)
				return
			}
		}
	}
	w.mu.Unlock()
	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !copied {
		t.Fatalf("compaction never reached stage %q", stage)
	}
	if rescueStart < 0 {
		t.Fatal("compaction never reached stage \"begin\"")
	}
	return copyDir, expect, rescueStart
}

// TestWALCompactCrashBeforeUnlink: crash after the rescue is durable but
// before the victim segment is unlinked — replay sees the whole old
// stream plus the complete rescue records and must recover the exact
// index (the rescue is idempotent over the state it describes).
func TestWALCompactCrashBeforeUnlink(t *testing.T) {
	crashDir, expect, _ := crashStateAt(t, "unlink", func(w *WAL) { fillChurn(t, w, 60) })
	w, err := OpenWAL(crashDir, walOpts())
	if err != nil {
		t.Fatalf("reopen crash state: %v", err)
	}
	defer w.Close()
	compareDumps(t, expect, dumpWAL(t, w), "crash before unlink")
}

// TestWALCompactCrashMidRewrite: crash while the rescue records are
// being appended to the tail — the old segments (victim included) are
// all present and the rescue is a partial (possibly torn) suffix of the
// tail. Replay must recover the exact index at every truncation point
// within the rescue suffix: a torn frame is discarded by the CRC
// framing, and the complete put / log-snapshot records that survive are
// idempotent — in particular a log snapshot replaces its log atomically,
// never partially. Cuts before the rescue suffix are not valid crash
// states: those bytes were covered by fsyncs that completed before the
// pass began.
func TestWALCompactCrashMidRewrite(t *testing.T) {
	crashDir, expect, rescueStart := crashStateAt(t, "rewrite", func(w *WAL) { fillChurn(t, w, 60) })
	segs := segmentFiles(t, crashDir)
	rewriteSeg := segs[len(segs)-1] // the tail the rescue was appended to
	full, err := os.ReadFile(filepath.Join(crashDir, rewriteSeg))
	if err != nil {
		t.Fatal(err)
	}
	span := len(full) - rescueStart
	if span <= 0 {
		t.Fatalf("no rescue records written: tail %d bytes, durable prefix %d", len(full), rescueStart)
	}
	// Sweep truncation points across the rescue suffix, cutting mid-frame
	// and at arbitrary byte offsets.
	cuts := []int{
		rescueStart, rescueStart + 1, rescueStart + span/4,
		rescueStart + span/2, len(full) - 1, len(full),
	}
	for _, cut := range cuts {
		if cut < rescueStart || cut > len(full) {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			caseDir := t.TempDir()
			for _, name := range segs {
				data, err := os.ReadFile(filepath.Join(crashDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == rewriteSeg {
					data = data[:cut]
				}
				if err := os.WriteFile(filepath.Join(caseDir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			w, err := OpenWAL(caseDir, walOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer w.Close()
			compareDumps(t, expect, dumpWAL(t, w), fmt.Sprintf("mid-rewrite cut=%d", cut))
		})
	}
}

// TestWALCompactRangeRecord: a range record needs no case of its own in
// compaction. The victim is the oldest segment, so a range record masks
// only records older than itself: where it sits in a later segment, the
// victim's cells it masks are dead and are not rescued; where the victim
// holds the range record itself, the records it masks are in the victim
// too and go with it. Replay recovers the model's index with the rescue
// cut at every byte offset, and after the pass.
func TestWALCompactRangeRecord(t *testing.T) {
	// Values sized so that 4 KiB segments split where the comments say;
	// the cells the victim keeps are small, which keeps the rescue short.
	val := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	for _, tc := range []struct {
		name          string
		rangeInVictim bool
		ops           func(w Stable, ok func(error))
	}{
		{"range in a later segment", false, func(w Stable, ok func(error)) {
			ok(w.Put("r/0", val('0', 2000)))
			ok(w.Put("r/1", val('1', 1900)))
			ok(w.Put("r/2", val('2', 50)))
			ok(w.Put("r/3", val('3', 50)))
			ok(w.Put("k/0", val('k', 50)))                     // the next segment
			ok(Async(w).DeleteRangeAsync("r/0", "r/2").Wait()) // masks r/0 and r/1 in the victim
			ok(w.Put("r/1", val('x', 50)))                     // in range, after the record: live
		}},
		{"range in the victim", true, func(w Stable, ok func(error)) {
			ok(w.Put("r/0", val('0', 2000)))
			ok(w.Put("r/1", val('1', 1900)))
			ok(Async(w).DeleteRangeAsync("r/0", "r/5").Wait())
			ok(w.Put("r/2", val('2', 50))) // in range, after the record: live
			ok(w.Put("k/0", val('k', 50)))
			ok(w.Put("k/1", val('y', 50))) // the next segment
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			model := NewMem()
			tc.ops(model, ok)
			fill := func(w *WAL) {
				tc.ops(w, ok)
				compareDumps(t, dumpWAL(t, model), dumpWAL(t, w), "before the pass")
			}
			crashDir, expect, rescueStart := crashStateAt(t, "rewrite", fill)
			segs := segmentFiles(t, crashDir)
			var ranges []int // the segment of each range record
			for i, name := range segs {
				data, err := os.ReadFile(filepath.Join(crashDir, name))
				if err != nil {
					t.Fatal(err)
				}
				for rec, rest, ok := unframe(data); ok; rec, rest, ok = unframe(rest) {
					if rec[0] == walDeleteRange {
						ranges = append(ranges, i)
					}
				}
			}
			if len(ranges) != 1 || (ranges[0] == 0) != tc.rangeInVictim {
				t.Fatalf("range records in segments %v of %v; want one, in the victim (0): %v", ranges, segs, tc.rangeInVictim)
			}
			tail := segs[len(segs)-1]
			full, err := os.ReadFile(filepath.Join(crashDir, tail))
			if err != nil {
				t.Fatal(err)
			}
			if rescueStart >= len(full) {
				t.Fatalf("no rescue records written: tail %d bytes, durable prefix %d", len(full), rescueStart)
			}
			for cut := rescueStart; cut <= len(full); cut++ {
				caseDir := t.TempDir()
				for _, name := range segs {
					data, err := os.ReadFile(filepath.Join(crashDir, name))
					if err != nil {
						t.Fatal(err)
					}
					if name == tail {
						data = data[:cut]
					}
					if err := os.WriteFile(filepath.Join(caseDir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				w, err := OpenWAL(caseDir, walOpts())
				if err != nil {
					t.Fatalf("cut=%d: reopen: %v", cut, err)
				}
				got := dumpWAL(t, w)
				w.Close()
				compareDumps(t, expect, got, fmt.Sprintf("rescue cut at %d", cut))
			}
			// The pass itself, run to its end and replayed.
			dir := t.TempDir()
			opts := walOpts()
			opts.SegmentBytes = 4 << 10
			w, err := OpenWAL(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			fill(w)
			if err := w.Compact(); err != nil {
				t.Fatal(err)
			}
			compareDumps(t, expect, dumpWAL(t, w), "after the pass")
			w.Close()
			if w, err = OpenWAL(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			compareDumps(t, expect, dumpWAL(t, w), "replay after the pass")
		})
	}
}

// TestWALCompactConcurrentWrites: writes issued while a compaction cycle
// runs must neither be lost nor duplicated, whether they land before or
// after the rewrite in the stream.
func TestWALCompactConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillChurn(t, w, 40)

	done := make(chan error, 1)
	go func() { done <- w.Compact() }()
	for i := 0; i < 50; i++ {
		if err := w.Append("during", fmt.Appendf(nil, "d-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Put("during-cell", fmt.Appendf(nil, "v-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("compact: %v", err)
	}
	expect := dumpWAL(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := dumpWAL(t, w2)
	compareDumps(t, expect, got, "concurrent writes across compaction")
	if len(got.logs["during"]) != 50 {
		t.Fatalf("log written during compaction has %d records; want 50", len(got.logs["during"]))
	}
}

// TestCompactionBoundsWALSize is the regression guard for the log
// lifecycle: under a sustained overwrite/delete workload with background
// compaction enabled, steady-state disk usage must stay within a fixed
// multiple of the live state — at unchanged durability (every Put still
// blocks on its covering fsync). Without compaction the same workload
// grows the log without bound (checked as the control).
func TestCompactionBoundsWALSize(t *testing.T) {
	churn := func(w *WAL, rounds int) {
		val := bytes.Repeat([]byte("x"), 256)
		for i := 0; i < rounds; i++ {
			for c := 0; c < 16; c++ {
				if err := w.Put(fmt.Sprintf("cell-%d", c), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Append("log", val[:64]); err != nil {
				t.Fatal(err)
			}
			if i%8 == 7 {
				if err := w.Delete("log"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const rounds = 400

	// Both runs skip fsync: the record STREAMS are identical either way
	// (so the durability of the two runs is equal by construction), and
	// the property under test is bytes on disk, not sync latency — the
	// fsync-ordering half of compaction crash safety is covered by the
	// crash tests above.
	// Control: no compaction — the dead records accumulate.
	ctrl, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	churn(ctrl, rounds)
	ctrlDisk, ctrlLive := ctrl.DiskBytes(), ctrl.LiveBytes()
	ctrl.Close()

	opts := WALOptions{
		SyncEvery:       64,
		SegmentBytes:    32 << 10,
		CompactFactor:   4,
		CompactMinBytes: 16 << 10,
		NoSync:          true,
	}
	w, err := OpenWAL(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	churn(w, rounds)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	disk, live := w.DiskBytes(), w.LiveBytes()
	t.Logf("control: disk=%d live=%d (ratio %.1f); compacted: disk=%d live=%d (ratio %.1f), %d cycles",
		ctrlDisk, ctrlLive, float64(ctrlDisk)/float64(ctrlLive),
		disk, live, float64(disk)/float64(live), w.CompactCount())
	if w.CompactCount() == 0 {
		t.Fatal("background compaction never triggered")
	}
	// The trigger fires at CompactFactor x live; between cycles the log
	// can grow back up to the trigger plus one in-flight burst, so 2 x
	// factor is a safe steady-state bound — far below the unbounded
	// control.
	bound := int64(2 * opts.CompactFactor * float64(live))
	if bound < opts.CompactMinBytes*2 {
		bound = opts.CompactMinBytes * 2
	}
	if disk > bound {
		t.Fatalf("WAL disk %d exceeds %d (live %d x factor %.0f x 2)", disk, bound, live, opts.CompactFactor)
	}
	if ctrlDisk < disk*2 {
		t.Fatalf("control run should dwarf the compacted run: control %d vs compacted %d", ctrlDisk, disk)
	}
}
