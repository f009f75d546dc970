package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/testenv"
)

// walOpts returns fast test options (tiny delay so tests don't sleep).
func walOpts() WALOptions {
	return WALOptions{SyncEvery: 8, MaxSyncDelay: 200 * time.Microsecond}
}

func TestWALSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("cell", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("log", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("log", []byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("cell", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, ok, _ := w2.Get("cell")
	if !ok || string(got) != "overwritten" {
		t.Fatalf("cell after reopen: %q %v", got, ok)
	}
	recs, _ := w2.Records("log")
	if len(recs) != 2 || string(recs[0]) != "r1" || string(recs[1]) != "r2" {
		t.Fatalf("log after reopen: %v", recs)
	}
}

func TestWALDeleteIsDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	w.Put("k", []byte("v"))
	w.Append("k", []byte("r"))
	if err := w.Delete("k"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, ok, _ := w2.Get("k"); ok {
		t.Fatal("cell survived a durable delete")
	}
	if recs, _ := w2.Records("k"); len(recs) != 0 {
		t.Fatal("log survived a durable delete")
	}
}

// TestWALTornTailMidGroupCommit simulates a crash in the middle of a group
// commit: the tail of the segment holds a partial frame (and garbage). On
// reopen the torn tail must be discarded, the durable prefix replayed, and
// new writes must land cleanly after the truncation point.
func TestWALTornTailMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append("log", []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Put("cell", []byte("stable"))
	w.Close()

	// A group commit was cut short by the crash: a full frame header that
	// claims more payload than was written, then nothing.
	path := filepath.Join(dir, segName(1))
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	fh.Close()

	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	recs, _ := w2.Records("log")
	if len(recs) != 5 || string(recs[4]) != "r4" {
		t.Fatalf("durable prefix lost: %v", recs)
	}
	if got, ok, _ := w2.Get("cell"); !ok || string(got) != "stable" {
		t.Fatalf("cell lost: %q %v", got, ok)
	}
	// The tail was truncated, so post-recovery writes are readable after
	// yet another reopen.
	if err := w2.Append("log", []byte("after")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	recs, _ = w3.Records("log")
	if len(recs) != 6 || string(recs[5]) != "after" {
		t.Fatalf("post-recovery append lost: %v", recs)
	}
}

// TestWALTornFrameMidStreamIsCorruption: a torn frame that is NOT the tail
// (more segments follow) cannot be a crash artifact and must fail the open.
func TestWALTornFrameMidStreamIsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: 1, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes 1 rolls on every group: at least two segments.
	w.Put("a", []byte("1"))
	w.Put("b", []byte("2"))
	w.Close()

	// Corrupt the FIRST segment's tail.
	path := filepath.Join(dir, segName(1))
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte{99, 0, 0, 0, 1})
	fh.Close()

	if _, err := OpenWAL(dir, walOpts()); err == nil {
		t.Fatal("mid-stream torn frame accepted as a tail")
	}
}

func TestWALSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: 1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 20; i++ {
		payload[0] = byte(i)
		if err := w.Append("log", payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("expected several segments, got %d", len(entries))
	}
	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, _ := w2.Records("log")
	if len(recs) != 20 {
		t.Fatalf("cross-segment replay lost records: %d", len(recs))
	}
	for i, r := range recs {
		if r[0] != byte(i) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestWALGroupCommitCoalesces drives many concurrent synchronous writers
// and checks they shared fsyncs: the engine's whole point.
func TestWALGroupCommitCoalesces(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 16, MaxSyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, per = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append(fmt.Sprintf("log/%d", g), []byte("rec")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ops := int64(writers * per)
	if w.RecordCount() != ops {
		t.Fatalf("records = %d, want %d", w.RecordCount(), ops)
	}
	if s := w.SyncCount(); s >= ops/2 {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d records", s, ops)
	}
	t.Logf("%d records, %d fsyncs, %d groups", ops, w.SyncCount(), w.GroupCount())
}

// TestWALAsyncCompletionOrderAndBarrier checks the async pipeline: issued
// writes resolve, in order, and Sync() is a full barrier.
func TestWALAsyncCompletionOrderAndBarrier(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var mu sync.Mutex
	var order []int
	var comps []*Completion
	for i := 0; i < 50; i++ {
		c := w.AppendAsync("log", []byte{byte(i)})
		i := i
		c.OnDone(func(err error) {
			if err != nil {
				t.Errorf("completion %d: %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		comps = append(comps, c)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, c := range comps {
		if err, done := c.Poll(); !done || err != nil {
			t.Fatalf("completion %d not resolved after barrier: done=%v err=%v", i, done, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 50 {
		t.Fatalf("callbacks: %d of 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("callback order broken at %d: %v", i, order[:i+1])
		}
	}
}

// TestWALFaultyInjection exercises the ISSUE's composition: a Faulty
// trigger on top of the WAL fails log operations at the trigger point,
// async and sync alike, while the durable prefix stays readable on reopen.
func TestWALFaultyInjection(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(w)
	f.FailAfter(3, nil)
	if err := f.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAsync("log", []byte("2")).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.PutAsync("b", []byte("3")).Wait(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("sync on tripped store: %v", err)
	}
	f.Disarm()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenWAL(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if v, ok, _ := w2.Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatal("pre-trip put lost")
	}
	if _, ok, _ := w2.Get("b"); ok {
		t.Fatal("injected-crash write became durable")
	}
}

func TestWALClosedOps(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if err := w.AppendAsync("k", nil).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, _, err := w.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestAsyncShimAdaptsSyncEngines: the shim gives every engine the async
// API with eager completions, and Async is the identity on AsyncStables.
func TestAsyncShimAdaptsSyncEngines(t *testing.T) {
	m := NewMem()
	as := Async(m)
	c := as.PutAsync("k", []byte("v"))
	if err, done := c.Poll(); !done || err != nil {
		t.Fatalf("shim completion not eager: %v %v", err, done)
	}
	ran := make(chan struct{})
	c.OnDone(func(err error) { close(ran) })
	select {
	case <-ran:
	case <-time.After(time.Second):
		t.Fatal("OnDone after resolution never ran")
	}
	if err := as.Sync(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m.Get("k"); !ok || string(v) != "v" {
		t.Fatal("shim write lost")
	}

	w, err := OpenWAL(t.TempDir(), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if Async(w) != AsyncStable(w) {
		t.Fatal("Async should be the identity on a native AsyncStable")
	}
	// Wrappers forward asyncness.
	if _, ok := any(NewAccounted(w)).(AsyncStable); !ok {
		t.Fatal("Accounted lost the async API")
	}
	if _, ok := any(NewFaulty(w)).(AsyncStable); !ok {
		t.Fatal("Faulty lost the async API")
	}
}

// TestWALSmallIssueAllocs: a small write costs its memcpy into the pending
// group and a slot in a reused queue. Its completion is the group's, made
// once per group, so eight writes per Wait share one.
func TestWALSmallIssueAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	val := make([]byte, 64)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var c *Completion
		for i := 0; i < b.N; i++ {
			c = w.PutAsync("cell", val)
			if i%8 == 7 {
				if err := c.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := c.Wait(); err != nil {
			b.Fatal(err)
		}
	})
	t.Logf("64 B PutAsync, a Wait every 8: %d B/op, %.2f allocs/op",
		res.AllocedBytesPerOp(), float64(res.MemAllocs)/float64(res.N))
	if res.AllocedBytesPerOp() > 32 || res.MemAllocs >= uint64(res.N) {
		t.Fatalf("64 B PutAsync: %d B/op, %d allocs in %d ops; budget 32 B/op and under 1 alloc/op",
			res.AllocedBytesPerOp(), res.MemAllocs, res.N)
	}
}

// TestWALRecordAfterDrainGetsNextGroup: a record issued while the drained
// group is in flight belongs to the next group, so it gets another
// completion, unresolved until its own group is written; a Sync issued
// meanwhile covers both groups.
func TestWALRecordAfterDrainGetsNextGroup(t *testing.T) {
	// Two records close a group; a lone one waits for a barrier.
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEvery: 2, MaxSyncDelay: time.Hour, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	frozen, release := make(chan struct{}), make(chan struct{})
	var freeze, unfreeze sync.Once
	defer unfreeze.Do(func() { close(release) }) // before Close, also on a failure
	w.mu.Lock()
	w.compactHook = func(stage string) {
		if stage == "write" {
			freeze.Do(func() {
				close(frozen)
				<-release
			})
		}
	}
	w.mu.Unlock()
	first := w.PutAsync("a", []byte("1"))
	if second := w.PutAsync("b", []byte("2")); second != first {
		t.Fatal("two writes of one pending group got different completions")
	}
	<-frozen // the group of a and b is drained, its write frozen
	next := w.PutAsync("c", []byte("3"))
	if next == first {
		t.Fatal("a record issued after the drain shares the drained group's completion")
	}
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	time.Sleep(20 * time.Millisecond)
	if done(first) || done(next) {
		t.Fatalf("resolved before the frozen group was written: first %v, next %v", done(first), done(next))
	}
	select {
	case err := <-synced:
		t.Fatalf("Sync returned %v while a group was frozen", err)
	default:
	}
	unfreeze.Do(func() { close(release) })
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if !done(first) || !done(next) {
		t.Fatalf("Sync returned before the writes it covers: first %v, next %v", done(first), done(next))
	}
}

// done reports whether c has resolved.
func done(c *Completion) bool {
	_, ok := c.Poll()
	return ok
}
