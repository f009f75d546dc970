package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/testenv"
)

// TestWALIndexHoldsLocationsNotValues: once 1000 live 32 KiB cells are
// durable, the WAL keeps where they are, not what they hold — what it
// retains is a small fraction of the 32 MB the values take on disk.
func TestWALIndexHoldsLocationsNotValues(t *testing.T) {
	if testenv.Race {
		t.Skip("heap budgets are measured without the race detector")
	}
	val := make([]byte, 32<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 1000; i++ {
		val[0], val[1] = byte(i), byte(i>>8)
		if err := w.Put(fmt.Sprintf("cons/a/%016x", i), val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("1000 live 32 KiB cells: the WAL retains %d B", retained)
	if retained >= 4<<20 {
		t.Fatalf("the WAL retains %d B for 1000 live 32 KiB cells; budget 4 MB", retained)
	}
	for _, i := range []int{0, 517, 999} {
		got, ok, err := w.Get(fmt.Sprintf("cons/a/%016x", i))
		if err != nil || !ok || len(got) != len(val) || got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("cell %d read back as %d bytes, ok=%v, err=%v", i, len(got), ok, err)
		}
	}
}

// TestWALCompactAllocatesPerKey: a compaction pass allocates for the keys
// it rescues — their names and new locations — never for the bytes it
// streams or copies, which go through buffers the WAL reuses.
func TestWALCompactAllocatesPerKey(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true, SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	val := make([]byte, 32<<10)
	for i := 0; i < 64; i++ {
		if err := w.Put(fmt.Sprintf("cell/%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil { // warm-up: sizes the reused buffers
		t.Fatal(err)
	}
	// The second segment holds seven live cells, 224 KiB, all rescued.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("a pass rescuing seven 32 KiB cells allocated %d B", allocated)
	if allocated > 16<<10 {
		t.Fatalf("a pass rescuing seven 32 KiB cells allocated %d B; budget 16 KiB", allocated)
	}
}

// TestWALReadYourWritesWhileHeld: a record held back by MaxSyncDelay is
// not durable, yet reads see it at once.
func TestWALReadYourWritesWhileHeld(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: 1000, MaxSyncDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pending := []*Completion{
		w.PutAsync("cell", []byte("held")),
		w.AppendAsync("log", []byte("r1")),
		w.AppendAsync("log", []byte("r2")),
		w.PutAsync("gone", []byte("x")),
		w.DeleteAsync("gone"),
	}
	want := func(w *WAL, when string) {
		t.Helper()
		if v, ok, err := w.Get("cell"); err != nil || !ok || string(v) != "held" {
			t.Fatalf("%s: cell = %q, %v, %v", when, v, ok, err)
		}
		if recs, err := w.Records("log"); err != nil || len(recs) != 2 || string(recs[0]) != "r1" || string(recs[1]) != "r2" {
			t.Fatalf("%s: log = %q, %v", when, recs, err)
		}
		if _, ok, err := w.Get("gone"); err != nil || ok {
			t.Fatalf("%s: deleted cell reads ok=%v, %v", when, ok, err)
		}
	}
	want(w, "held")
	for i, c := range pending {
		if _, done := c.Poll(); done {
			t.Fatalf("write %d resolved inside its MaxSyncDelay hold", i)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	want(w, "after the sync")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want(re, "after reopen")
}

// TestWALReadYourWritesDuringGroupWrite: while the committer writes a
// group, that group's records read from the in-flight buffer and writes
// issued meanwhile read from the next pending one.
func TestWALReadYourWritesDuringGroupWrite(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 1000, MaxSyncDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var seen []string
	read := func() {
		v, _, err := w.Get("cell")
		recs, rerr := w.Records("log")
		seen = append(seen, fmt.Sprintf("%s %q %v %v", v, recs, err, rerr))
	}
	w.mu.Lock()
	w.compactHook = func(stage string) {
		if stage != "write" || len(seen) > 0 {
			return
		}
		read() // the drained group, in flight
		w.PutAsync("cell", []byte("v2"))
		w.AppendAsync("log", []byte("r2"))
		read() // the next group, pending behind it
	}
	w.mu.Unlock()
	w.PutAsync("cell", []byte("v1"))
	w.AppendAsync("log", []byte("r1"))
	if err := w.Sync(); err != nil { // drains the group: the hook runs
		t.Fatal(err)
	}
	read() // v1 and r1 on disk, v2 and r2 still pending
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	read() // all on disk
	want := []string{
		`v1 ["r1"] <nil> <nil>`,
		`v2 ["r1" "r2"] <nil> <nil>`,
		`v2 ["r1" "r2"] <nil> <nil>`,
		`v2 ["r1" "r2"] <nil> <nil>`,
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("reads across a group write:\n got %q\nwant %q", seen, want)
	}
}

// TestWALWriteDuringRescue: a key overwritten or deleted while a pass
// rescues its old record reads its new state, before and after reopen —
// and a crash after the victim is gone but before those writes are durable
// recovers the old state from the rescue, since the writes never
// completed.
func TestWALWriteDuringRescue(t *testing.T) {
	dir, crashDir := t.TempDir(), t.TempDir()
	// The first segment holds three 300 B cells and the log; the filler
	// rolls to the second, so the first is the victim.
	opts := WALOptions{SegmentBytes: 1 << 10}
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("o"), 300)
	for _, k := range []string{"over", "del", "keep"} {
		if err := w.Put(k, old); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := w.Append("log", fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put("filler", bytes.Repeat([]byte("f"), 1<<10)); err != nil { // rolls past the first segment
		t.Fatal(err)
	}
	// The committer runs the pass, so writes issued at its start stay
	// queued until it ends; the crash copy is taken as their group is
	// about to be written, after the victim's unlink.
	var during []*Completion
	copied := false
	w.mu.Lock()
	w.compactHook = func(stage string) {
		switch {
		case stage == "begin":
			during = append(during,
				w.PutAsync("over", []byte("new")),
				w.DeleteAsync("del"),
				w.DeleteAsync("log"),
				w.AppendAsync("log", []byte("fresh")))
		case stage == "write" && len(during) > 0 && !copied:
			copyDir(t, dir, crashDir)
			copied = true
		}
	}
	w.mu.Unlock()
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}

	oldState := indexDump{
		cells: map[string]string{"over": string(old), "del": string(old), "keep": string(old), "filler": strings.Repeat("f", 1<<10)},
		logs:  map[string][]string{"log": {"r0", "r1", "r2"}},
	}
	newState := indexDump{
		cells: map[string]string{"over": "new", "keep": string(old), "filler": strings.Repeat("f", 1<<10)},
		logs:  map[string][]string{"log": {"fresh"}},
	}
	compareDumps(t, newState, dumpWAL(t, w), "live, writes issued")
	for _, c := range during {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !copied {
		t.Fatal("the writes issued during the pass were never written")
	}
	compareDumps(t, newState, dumpWAL(t, w), "live, writes durable")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	compareDumps(t, newState, dumpWAL(t, re), "after reopen")

	crashed, err := OpenWAL(crashDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if segs := segmentFiles(t, crashDir); len(segs) == 0 || segs[0] == segName(1) {
		t.Fatalf("crash copy has segments %v; the pass's victim should be gone", segs)
	}
	compareDumps(t, oldState, dumpWAL(t, crashed), "crash before the writes were durable")
}

// copyDir copies every file of src into dst (the committer is frozen in a
// hook, so no segment write races the copy).
func copyDir(t *testing.T, src, dst string) {
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Error(err)
		return
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// TestWALPoisonedReads: after a failed group write, reads return the
// poison error — never a value whose group did not reach disk, nor one
// that did.
func TestWALPoisonedReads(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("durable", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("log", []byte("r")); err != nil {
		t.Fatal(err)
	}
	w.seg.Close() // the committer is idle: its next write fails
	werr := w.Put("lost", []byte("never written"))
	if werr == nil {
		t.Fatal("a write to a closed segment succeeded")
	}
	for _, k := range []string{"durable", "lost"} {
		if v, ok, err := w.Get(k); !errors.Is(err, werr) || ok || v != nil {
			t.Fatalf("Get(%q) on a poisoned engine: %q, %v, %v; want %v", k, v, ok, err, werr)
		}
	}
	if recs, err := w.Records("log"); !errors.Is(err, werr) || recs != nil {
		t.Fatalf("Records on a poisoned engine: %q, %v; want %v", recs, err, werr)
	}
	if keys, err := w.List(""); !errors.Is(err, werr) || keys != nil {
		t.Fatalf("List on a poisoned engine: %q, %v; want %v", keys, err, werr)
	}
	if err := w.PutAsync("later", nil).Wait(); !errors.Is(err, werr) {
		t.Fatalf("write after poisoning: %v; want %v", err, werr)
	}
	w.Close() // the segment is already closed; its error is expected
}

// indexOnly is a WAL with an index and nothing else: the apply functions
// run on it as they do under w.mu.
func indexOnly() *WAL {
	return &WAL{cells: make(map[string]loc), logs: make(map[string][]loc)}
}

// TestWALReusesADeletedLogsIndex: a log deleted and a new one appended
// to, over and over, as the unordered log is at every checkpoint, grow
// their index in the array the last deleted log left: the steady cycle
// allocates nothing for the index.
func TestWALReusesADeletedLogsIndex(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	w := indexOnly()
	cycle := func() {
		for i := range 64 {
			w.applyAppend("log", loc{seg: 1, off: int64(i), n: 8})
		}
		w.applyDelete("log")
	}
	cycle() // grows the array once
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("64 appends to a new log after a delete allocate %.0f objects; want 0", n)
	}
}

// TestWALKeepsThePassesCopyOfADeletedLog: a log a running compaction pass
// drained and that is then deleted keeps its array for the pass, which
// reads it outside the lock; appends to a new log leave it untouched.
func TestWALKeepsThePassesCopyOfADeletedLog(t *testing.T) {
	w := indexOnly()
	for i := range 8 {
		w.applyAppend("old", loc{seg: 1, off: int64(100 * i), n: 8})
	}
	w.pass = &passState{gen: 7, cells: make(map[string]loc), logs: make(map[string][]loc)}
	w.applyDelete("old")
	saved := w.pass.logs["old"]
	want := slices.Clone(saved[:cap(saved)])
	for i := range 64 {
		w.applyAppend("new", loc{seg: -8, off: int64(i), n: 1})
	}
	if got := saved[:cap(saved)]; !slices.Equal(got, want) {
		t.Fatalf("the pass's copy of a deleted log changed under appends to a new one:\n got %v\nwant %v", got, want)
	}
}
