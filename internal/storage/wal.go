package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// WAL is the group-commit write-ahead-log engine: a single segmented
// append-only file per store (not per key), CRC-framed records, an
// in-memory index of cells and logs, and a committer that coalesces all
// concurrent Put/Append calls into one write + one fsync.
//
// # Durability policy
//
// Every mutation (Put, Append, Delete) becomes one framed record in the
// current segment. Records are made durable in groups: the committer
// flushes + fsyncs when SyncEvery records are pending or when the oldest
// pending record has waited MaxSyncDelay, whichever comes first (a Sync
// barrier or Close flushes immediately). A synchronous Put/Append blocks
// until the fsync that covers its record, so the Stable contract
// ("returned => durable") is unchanged — concurrent callers simply share
// one fsync, which is the classic group-commit discipline. PutAsync /
// AppendAsync return a Completion that resolves at the same point,
// letting a caller issue many writes and pay one fsync for the lot.
//
// Reads (Get/Records/List) are served from the in-memory index and
// therefore see issued-but-not-yet-durable writes of this same WAL
// instance (read-your-writes). After a crash, reopening replays only the
// durable prefix: a torn tail (partial group at the moment of the crash)
// is detected by the CRC framing and truncated, exactly the recovery
// discipline of §5.5 — which is safe because no operation covering those
// records ever completed, so no process acted on them.
//
// # Compaction
//
// Deleted and overwritten records stay on disk until segment compaction
// reclaims them. Compaction is incremental — one segment per pass: with
// CompactFactor > 0 (or an explicit Compact call) the committer picks
// the oldest segment, rescues the current state of every still-live key
// it touches into the tail (cells as fresh put records, logs as one
// atomic log-snapshot record each), fsyncs, and unlinks just that
// segment. A pass therefore costs one segment plus the live state it
// shadows, never a whole-log rewrite; the background trigger keeps
// firing a pass per commit group until the dead-space ratio is back
// under CompactFactor. The rescue rides the same group-commit pipeline
// position as the records it replaces: the queue is drained first, the
// snapshot is taken at exactly that stream position, and the victim is
// unlinked only after the rescue's fsync — so a crash at any point
// replays to the same index (see the package doc's "Log lifecycle"
// section for the crash argument).
//
// # Failure model
//
// A write or fsync error poisons the engine: the failed group and every
// later operation resolve with the error. This mirrors a dying
// incarnation — the caller must crash and recover from the durable
// prefix.
type WAL struct {
	dir  string
	opts WALOptions

	mu         sync.Mutex
	cells      map[string][]byte
	logs       map[string][][]byte
	queue      []*walOp
	oldest     time.Time // arrival of queue[0]
	urgent     bool      // a barrier (or Close) demands an immediate flush
	closed     bool
	failed     error         // first IO error; poisons all later operations
	liveBytes  int64         // approximate record bytes of the live index
	compactReq []*Completion // explicit Compact callers awaiting a cycle

	// compactHook, when set (tests only, under mu), is called from the
	// committer at named stages of a compaction cycle to freeze crash
	// points.
	compactHook func(stage string)

	// Committer-owned (no lock needed: single goroutine). groupBuf is the
	// buffer every write is framed in — a commit group, a chunk of rescue
	// records — reused from one write to the next.
	seg      *os.File
	segSeq   int
	segSize  int64
	groupBuf []byte

	kick    chan struct{} // wakes the committer (capacity 1)
	closeCh chan struct{}
	// notify carries flushed groups, in order, to the dispatcher that
	// resolves their completions — off the committer goroutine so a slow
	// completion callback cannot stall the next fsync.
	notify       chan []*walOp
	commitDone   chan struct{}
	displDone    chan struct{}
	syncCount    atomic.Int64
	groupCount   atomic.Int64
	recordCount  atomic.Int64
	diskBytes    atomic.Int64
	compactCount atomic.Int64

	// obsState is the fsync-latency instrumentation (SetObs); atomic so
	// wiring can land while the committer is already flushing.
	obsState atomic.Pointer[storeObs]
}

// WALOptions tunes the group-commit policy.
type WALOptions struct {
	// SyncEvery is the pending-record count that forces a flush (size
	// trigger; default 64).
	SyncEvery int
	// MaxSyncDelay bounds how long a record may wait for its group (time
	// trigger). The default, 0, is natural batching: the committer
	// flushes as soon as it is free, so each fsync coalesces exactly
	// what queued while the previous one ran. A positive delay holds
	// groups open longer — fewer, larger fsyncs at the cost of commit
	// latency (worthwhile on slow disks).
	MaxSyncDelay time.Duration
	// SegmentBytes is the segment-roll threshold (default 64 MiB).
	SegmentBytes int64
	// NoSync skips fsync entirely (throughput ceiling / tests). Records
	// are still written; durability is whatever the OS page cache gives.
	NoSync bool
	// CompactFactor enables background segment compaction: once the
	// on-disk bytes exceed CompactFactor times the live index bytes (and
	// CompactMinBytes), the committer runs one incremental pass per
	// commit group — rescuing the oldest segment's live keys into the
	// tail and unlinking it — until the ratio recovers, bounding
	// steady-state disk usage at roughly CompactFactor x live state
	// without ever paying a whole-log rewrite. 0 disables compaction
	// (records are reclaimed only by an explicit Compact call); values
	// below 1.5 are clamped to 1.5 — a lower factor would re-trigger
	// immediately after every pass.
	CompactFactor float64
	// CompactMinBytes is the disk-size floor below which background
	// compaction never triggers (default 1 MiB): rewriting a tiny log
	// costs more than the bytes it reclaims.
	CompactMinBytes int64
}

func (o *WALOptions) fill() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.MaxSyncDelay < 0 {
		o.MaxSyncDelay = 0
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactFactor > 0 && o.CompactFactor < 1.5 {
		o.CompactFactor = 1.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
}

var (
	_ Stable      = (*WAL)(nil)
	_ AsyncStable = (*WAL)(nil)
	_ Closer      = (*WAL)(nil)
)

// walOp is one queued mutation and its completion. val is the index's own
// copy of the value — immutable once installed, so the committer frames the
// record straight from it and the value is allocated once on its way to
// disk. A barrier has op 0.
type walOp struct {
	op  byte
	key string
	val []byte
	c   *Completion
	err error
}

// maxGroupBuf caps the framing buffer the committer keeps between writes;
// one huge group must not pin its buffer for good.
const maxGroupBuf = 4 << 20

// Record ops.
const (
	walPut byte = iota + 1
	walAppend
	walDelete
	// walLogSnap atomically replaces a whole append-log with the entries
	// carried in its value — the compactor's rewrite form of a log. One
	// frame per log keeps the replacement crash-atomic: a torn or missing
	// snapshot record leaves the pre-compaction log intact, never a
	// truncated one.
	walLogSnap
)

// The on-disk format is one frame per record, [len u32][crc u32][record],
// the record being [op][keylen u32][key][value] and the CRC covering it.
// beginRec/endRec are its only encoder: they frame in place, onto a buffer
// the caller reuses, so no record is assembled anywhere else first.

// beginRec appends a frame header (patched by endRec) and the record header
// for (op, key); the caller appends the value, then calls endRec with the
// returned start offset.
func beginRec(buf []byte, op byte, key string) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...), start
}

// endRec completes the frame begun at start: length and CRC of everything
// appended after the frame header.
func endRec(buf []byte, start int) []byte {
	rec := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(rec))
	return buf
}

// appendRec frames one (op, key, val) record onto buf.
func appendRec(buf []byte, op byte, key string, val []byte) []byte {
	buf, start := beginRec(buf, op, key)
	return endRec(append(buf, val...), start)
}

// unframe extracts one framed payload, returning it, the remaining bytes and
// whether the frame was intact. The payload aliases b: a caller whose result
// must not pin b (one record of a whole segment) copies it out.
func unframe(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if uint32(len(b)-8) < n {
		return nil, nil, false
	}
	payload = b[8 : 8+n : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, false
	}
	return payload, b[8+n:], true
}

// appendLogSnapRec frames a walLogSnap record onto buf. Its value packs
// the log's entries: [count u32] then per entry [len u32][bytes].
func appendLogSnapRec(buf []byte, key string, entries [][]byte) []byte {
	buf, start := beginRec(buf, walLogSnap, key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return endRec(buf, start)
}

// decodeLogSnap unpacks a walLogSnap value; nil, false on malformed input.
// Every entry takes at least its 4-byte length, so a count past len(b)/4
// is malformed before it sizes anything: a bad record must not ask replay
// for gigabytes.
func decodeLogSnap(b []byte) ([][]byte, bool) {
	if len(b) < 4 {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if int64(count) > int64(len(b)/4) {
		return nil, false
	}
	entries := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, false
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, false
		}
		cp := make([]byte, l)
		copy(cp, b[:l])
		entries = append(entries, cp)
		b = b[l:]
	}
	return entries, true
}

// decodeWALRec splits a record; key and val alias b.
func decodeWALRec(b []byte) (op byte, key, val []byte, ok bool) {
	if len(b) < 5 {
		return 0, nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b[1:5])
	if uint32(len(b)-5) < n {
		return 0, nil, nil, false
	}
	return b[0], b[5 : 5+n], b[5+n:], true
}

func segName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// OpenWAL opens (creating if needed) a WAL store rooted at dir and replays
// the durable record stream into the in-memory index. A torn frame in the
// last segment truncates the segment there (anything at or past the first
// torn frame of the tail segment was never covered by a completed fsync —
// an fsync persists the whole file — so no operation over it ever
// completed); a torn frame in an earlier segment is corruption and fails
// the open.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	w := &WAL{
		dir:        dir,
		opts:       opts,
		cells:      make(map[string][]byte),
		logs:       make(map[string][][]byte),
		kick:       make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		notify:     make(chan []*walOp, 128),
		commitDone: make(chan struct{}),
		displDone:  make(chan struct{}),
	}
	if err := w.replay(); err != nil {
		return nil, err
	}
	go w.commitLoop()
	go w.dispatchLoop()
	return w, nil
}

// replay rebuilds the index from the segments and opens the tail segment
// for appending.
func (w *WAL) replay() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("storage: wal list: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)

	for i, seq := range seqs {
		path := filepath.Join(w.dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("storage: wal read %s: %w", path, err)
		}
		b := data
		kept := len(data)
		for len(b) > 0 {
			rec, rest, ok := unframe(b)
			if !ok {
				// Torn frame: fine at the very tail of the last
				// segment (crash mid-group-commit; nothing covering
				// these bytes ever completed), corruption anywhere
				// else.
				if i != len(seqs)-1 {
					return fmt.Errorf("storage: wal segment %s: torn frame mid-stream", path)
				}
				off := int64(len(data) - len(b))
				if err := os.Truncate(path, off); err != nil {
					return fmt.Errorf("storage: wal truncate torn tail: %w", err)
				}
				kept = int(off)
				break
			}
			w.applyRec(rec)
			b = rest
		}
		w.diskBytes.Add(int64(kept))
	}

	w.segSeq = 1
	if n := len(seqs); n > 0 {
		w.segSeq = seqs[n-1]
	}
	path := filepath.Join(w.dir, segName(w.segSeq))
	seg, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal open segment: %w", err)
	}
	st, err := seg.Stat()
	if err != nil {
		seg.Close()
		return fmt.Errorf("storage: wal stat segment: %w", err)
	}
	// Make the segment's directory entry durable before any record in it
	// is acknowledged: an fsynced file that the directory forgot on power
	// loss would silently drop acknowledged records.
	if err := syncDirEntry(w.dir); err != nil {
		seg.Close()
		return err
	}
	w.seg = seg
	w.segSize = st.Size()
	return nil
}

// syncDirEntry fsyncs a directory so freshly created file entries survive
// power loss.
func syncDirEntry(dir string) error {
	dh, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: wal open dir: %w", err)
	}
	defer dh.Close()
	if err := dh.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync dir: %w", err)
	}
	return nil
}

// applyRec replays one durable record into the index. rec aliases the
// segment's read buffer; what the index keeps is copied out of it.
func (w *WAL) applyRec(rec []byte) {
	op, k, val, ok := decodeWALRec(rec)
	if !ok {
		return // framed but malformed: skip (forward compatibility)
	}
	key := string(k)
	switch op {
	case walPut:
		cp := make([]byte, len(val))
		copy(cp, val)
		w.applyPut(key, cp)
	case walAppend:
		cp := make([]byte, len(val))
		copy(cp, val)
		w.applyAppend(key, cp)
	case walDelete:
		w.applyDelete(key)
	case walLogSnap:
		if entries, ok := decodeLogSnap(val); ok {
			w.applyLogSnap(key, entries)
		}
	}
}

// recLiveBytes is the on-disk footprint of one record (frame + header +
// key + value): the live-bytes counter driving the compaction trigger sums
// it over the index, and the committer sizes a group with it.
func recLiveBytes(key string, valLen int) int64 {
	return int64(13 + len(key) + valLen)
}

// applyPut installs a cell value (already copied). Callers hold w.mu or
// run single-threaded (replay, committer snapshot application).
func (w *WAL) applyPut(key string, cp []byte) {
	if old, ok := w.cells[key]; ok {
		w.liveBytes -= recLiveBytes(key, len(old))
	}
	w.liveBytes += recLiveBytes(key, len(cp))
	w.cells[key] = cp
}

// applyAppend appends one (already copied) log entry.
func (w *WAL) applyAppend(key string, cp []byte) {
	w.liveBytes += recLiveBytes(key, len(cp))
	w.logs[key] = append(w.logs[key], cp)
}

// applyDelete removes a cell or log.
func (w *WAL) applyDelete(key string) {
	if old, ok := w.cells[key]; ok {
		w.liveBytes -= recLiveBytes(key, len(old))
		delete(w.cells, key)
	}
	if recs, ok := w.logs[key]; ok {
		for _, r := range recs {
			w.liveBytes -= recLiveBytes(key, len(r))
		}
		delete(w.logs, key)
	}
}

// applyLogSnap replaces a whole log with the snapshot's entries.
func (w *WAL) applyLogSnap(key string, entries [][]byte) {
	if recs, ok := w.logs[key]; ok {
		for _, r := range recs {
			w.liveBytes -= recLiveBytes(key, len(r))
		}
	}
	for _, e := range entries {
		w.liveBytes += recLiveBytes(key, len(e))
	}
	if len(entries) == 0 {
		delete(w.logs, key)
		return
	}
	w.logs[key] = entries
}

// enqueueLocked queues one mutation (op 0: a barrier); val must be the
// index's copy, never the caller's buffer. w.mu held.
func (w *WAL) enqueueLocked(op byte, key string, val []byte) *Completion {
	c := newCompletion()
	if len(w.queue) == 0 {
		w.oldest = time.Now()
	}
	w.queue = append(w.queue, &walOp{op: op, key: key, val: val, c: c})
	return c
}

func (w *WAL) wakeCommitter() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// PutAsync implements AsyncStable: the index is updated immediately
// (read-your-writes), durability resolves with the group's fsync.
func (w *WAL) PutAsync(key string, val []byte) *Completion {
	w.mu.Lock()
	if c, bad := w.unusableLocked(); bad {
		w.mu.Unlock()
		return c
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	w.applyPut(key, cp)
	c := w.enqueueLocked(walPut, key, cp)
	w.mu.Unlock()
	w.wakeCommitter()
	return c
}

// AppendAsync implements AsyncStable.
func (w *WAL) AppendAsync(key string, rec []byte) *Completion {
	w.mu.Lock()
	if c, bad := w.unusableLocked(); bad {
		w.mu.Unlock()
		return c
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	w.applyAppend(key, cp)
	c := w.enqueueLocked(walAppend, key, cp)
	w.mu.Unlock()
	w.wakeCommitter()
	return c
}

// unusableLocked returns a resolved error completion when the engine can
// no longer accept writes. w.mu held.
func (w *WAL) unusableLocked() (*Completion, bool) {
	if w.closed {
		return completed(ErrClosed), true
	}
	if w.failed != nil {
		return completed(w.failed), true
	}
	return nil, false
}

// Put implements Stable: PutAsync + wait, so concurrent synchronous
// callers share one fsync.
func (w *WAL) Put(key string, val []byte) error {
	return w.PutAsync(key, val).Wait()
}

// Append implements Stable.
func (w *WAL) Append(key string, rec []byte) error {
	return w.AppendAsync(key, rec).Wait()
}

// DeleteAsync implements AsyncStable. Deletions are logged records too, so
// they survive recovery.
func (w *WAL) DeleteAsync(key string) *Completion {
	w.mu.Lock()
	if c, bad := w.unusableLocked(); bad {
		w.mu.Unlock()
		return c
	}
	w.applyDelete(key)
	c := w.enqueueLocked(walDelete, key, nil)
	w.mu.Unlock()
	w.wakeCommitter()
	return c
}

// Delete implements Stable.
func (w *WAL) Delete(key string) error {
	return w.DeleteAsync(key).Wait()
}

// Sync implements AsyncStable: a barrier that returns once every write
// issued before it is durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if c, bad := w.unusableLocked(); bad {
		w.mu.Unlock()
		return c.Wait()
	}
	c := w.enqueueLocked(0, "", nil)
	w.urgent = true
	w.mu.Unlock()
	w.wakeCommitter()
	return c.Wait()
}

// Get implements Stable (from the index).
func (w *WAL) Get(key string) ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, false, ErrClosed
	}
	v, ok := w.cells[key]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true, nil
}

// Records implements Stable (from the index).
func (w *WAL) Records(key string) ([][]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	recs := w.logs[key]
	out := make([][]byte, len(recs))
	for i, r := range recs {
		cp := make([]byte, len(r))
		copy(cp, r)
		out[i] = cp
	}
	return out, nil
}

// List implements Stable (from the index).
func (w *WAL) List(prefix string) ([]string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	var keys []string
	for k := range w.cells {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	for k := range w.logs {
		if _, dup := w.cells[k]; dup {
			continue
		}
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Close implements Closer: flushes the queue, stops the pipeline, closes
// the segment. Pending completions resolve before Close returns.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.closeCh)
	w.wakeCommitter()
	<-w.commitDone
	<-w.displDone
	err := w.seg.Close()
	w.seg = nil
	return err
}

// Compact forces one incremental compaction pass: the pending queue is
// flushed, the still-live keys of the oldest segment are rescued into
// the tail (group-committed: the rescue's fsync completes first), and
// that one segment is unlinked. It returns once the pass is durable.
// One call reclaims one segment; call it repeatedly — or rely on
// background compaction (WALOptions.CompactFactor), which runs the same
// pass automatically whenever dead records outgrow the live state —
// to converge on a fully compacted log.
func (w *WAL) Compact() error {
	w.mu.Lock()
	if c, bad := w.unusableLocked(); bad {
		w.mu.Unlock()
		return c.Wait()
	}
	c := newCompletion()
	w.compactReq = append(w.compactReq, c)
	w.urgent = true
	w.mu.Unlock()
	w.wakeCommitter()
	return c.Wait()
}

// SyncCount returns the number of fsyncs issued (observability; the
// benchmark's storage.fsyncs_per_msg shows the amortization).
func (w *WAL) SyncCount() int64 { return w.syncCount.Load() }

// CompactCount returns the number of completed compaction cycles.
func (w *WAL) CompactCount() int64 { return w.compactCount.Load() }

// DiskBytes returns the total bytes across all live segments
// (observability; the compaction regression guard and the benchmark's
// storage.wal_mb_end read it).
func (w *WAL) DiskBytes() int64 { return w.diskBytes.Load() }

// LiveBytes returns the approximate record bytes of the live index — what
// a compaction cycle would rewrite. DiskBytes/LiveBytes is the dead-space
// ratio the CompactFactor trigger watches.
func (w *WAL) LiveBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveBytes
}

// GroupCount returns the number of commit groups flushed.
func (w *WAL) GroupCount() int64 { return w.groupCount.Load() }

// RecordCount returns the number of records written.
func (w *WAL) RecordCount() int64 { return w.recordCount.Load() }

// commitLoop is the group-commit engine: it waits for work, optionally
// holds the group open to let it grow (size/time triggers, mirroring the
// protocol's adaptive batching), then writes the whole group with one
// write and one fsync and hands it to the dispatcher. Compaction runs on
// this goroutine too: the queue is drained and the index snapshotted in
// one critical section, so the rewrite sits at exactly its stream
// position.
func (w *WAL) commitLoop() {
	defer close(w.commitDone)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && len(w.compactReq) == 0 && !w.closed {
			w.mu.Unlock()
			select {
			case <-w.kick:
			case <-w.closeCh:
			}
			w.mu.Lock()
		}
		if len(w.queue) == 0 && w.closed {
			reqs := w.compactReq
			w.compactReq = nil
			w.mu.Unlock()
			for _, c := range reqs {
				c.complete(ErrClosed)
			}
			close(w.notify)
			return
		}
		// Hold the group open under light load: flush on SyncEvery
		// pending records, the oldest record aging past MaxSyncDelay, a
		// barrier, or shutdown — whichever comes first.
		if !w.closed && !w.urgent && w.opts.MaxSyncDelay > 0 &&
			len(w.queue) > 0 && len(w.queue) < w.opts.SyncEvery {
			wait := w.opts.MaxSyncDelay - time.Since(w.oldest)
			if wait > 0 {
				w.mu.Unlock()
				timer := time.NewTimer(wait)
				select {
				case <-w.kick:
				case <-w.closeCh:
				case <-timer.C:
				}
				timer.Stop()
				continue
			}
		}
		batch := w.queue
		w.queue = nil
		w.urgent = false
		err := w.failed
		reqs := w.compactReq
		w.compactReq = nil
		// The compaction snapshot is taken in the same critical section
		// that drains the queue: the snapshot's logical position in the
		// record stream is exactly "after batch, before anything enqueued
		// later", which is where the rewrite will be written.
		var snap *compactSnap
		if err == nil && !w.closed && (len(reqs) > 0 || w.compactDueLocked()) {
			snap = w.snapshotLocked()
		}
		w.mu.Unlock()

		if err == nil {
			err = w.writeGroup(batch)
			if err != nil {
				w.poison(err)
			}
		}
		for _, op := range batch {
			op.err = err
		}
		w.notify <- batch

		if snap != nil && err == nil {
			if cerr := w.compact(snap); cerr != nil {
				w.poison(cerr)
				err = cerr
			}
		}
		if len(reqs) > 0 {
			cerr := err
			if cerr == nil && snap == nil {
				cerr = ErrClosed // Close raced the request; the cycle never ran
			}
			for _, c := range reqs {
				c.complete(cerr)
			}
		}
	}
}

// poison records the first IO error; every later operation resolves with
// it.
func (w *WAL) poison(err error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.mu.Unlock()
}

// compactSnap is the live index at one record-stream position, pending
// rewrite.
type compactSnap struct {
	cells map[string][]byte
	logs  map[string][][]byte
	hook  func(stage string)
}

// compactDueLocked evaluates the background trigger. w.mu held.
func (w *WAL) compactDueLocked() bool {
	if w.opts.CompactFactor <= 0 {
		return false
	}
	disk := w.diskBytes.Load()
	return disk > w.opts.CompactMinBytes &&
		float64(disk) > w.opts.CompactFactor*float64(w.liveBytes)
}

// snapshotLocked shallow-copies the index (values and log entries are
// immutable once installed, so copying the map headers suffices). w.mu
// held.
func (w *WAL) snapshotLocked() *compactSnap {
	cs := &compactSnap{
		cells: make(map[string][]byte, len(w.cells)),
		logs:  make(map[string][][]byte, len(w.logs)),
		hook:  w.compactHook,
	}
	for k, v := range w.cells {
		cs.cells[k] = v
	}
	for k, recs := range w.logs {
		// Clamp the capacity so a concurrent append to the live log
		// allocates a new backing array instead of sharing this one.
		cs.logs[k] = recs[:len(recs):len(recs)]
	}
	return cs
}

// oldestSegment returns the lowest segment sequence present on disk.
func (w *WAL) oldestSegment() (int, bool, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, false, fmt.Errorf("storage: wal compact list: %w", err)
	}
	oldest, found := 0, false
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil {
			if !found || seq < oldest {
				oldest, found = seq, true
			}
		}
	}
	return oldest, found, nil
}

// victimKeys streams one sealed segment, one record at a time through a
// scratch buffer, and returns the set of keys its records touch plus the
// segment's size; only the keys are kept. The segment is sealed (never the
// write target), so every frame is complete — a torn frame here is
// corruption, not a crash artifact.
func (w *WAL) victimKeys(path string) (map[string]struct{}, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: wal compact read: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("storage: wal compact stat: %w", err)
	}
	torn := fmt.Errorf("storage: wal compact: torn frame in sealed segment %s", path)
	br := bufio.NewReaderSize(f, 64<<10)
	keys := make(map[string]struct{})
	var size int64
	var hdr [8]byte
	var rec []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return keys, size, nil
		} else if err != nil {
			return nil, 0, torn
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if int64(n) > st.Size()-size-8 {
			return nil, 0, torn // the length runs past the end of the file
		}
		if uint32(cap(rec)) < n {
			rec = make([]byte, n)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, 0, torn
		}
		if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return nil, 0, torn
		}
		if _, key, _, ok := decodeWALRec(rec); ok {
			// The lookup converts without allocating; only a key's
			// first sighting pays for its string.
			if _, seen := keys[string(key)]; !seen {
				keys[string(key)] = struct{}{}
			}
		}
		size += 8 + int64(n)
	}
}

// compact performs ONE incremental compaction pass on the committer
// goroutine: pick the oldest segment on disk as the victim, rescue the
// current state of every still-live key it touches into the active tail
// (cells as put records, logs as atomic log-snapshot records), fsync,
// then unlink just that one segment. The pass cost is bounded by one
// segment plus the live state it shadows — not by total log size, which
// is what the old whole-log rewrite paid. Repeated passes (one per
// commit-loop iteration while the CompactFactor trigger stays hot, or
// one per explicit Compact call) converge on a fully compacted log.
//
// Correctness: the victim is the oldest segment, so its records sit at
// the bottom of the replay stream — every key it touches is either dead
// (masked by a later record; dropping it changes nothing) or rescued as
// a put / log-snapshot appended at the very top, which replays to
// exactly the current state no matter what the intervening segments
// say. A log-snapshot replaces its log atomically, so middle-segment
// appends beneath it cannot double-apply. Crash safety: until the
// unlink, replay sees the victim plus (a possibly torn suffix of) the
// rescue records, which are idempotent over the state they describe;
// after the fsync the rescue fully substitutes for the victim. When the
// victim IS the active tail (a lone segment full of dead bytes), it is
// rolled first so the frozen file can be rescued and unlinked — without
// that, a single-segment log could never shrink.
func (w *WAL) compact(snap *compactSnap) error {
	victim, found, err := w.oldestSegment()
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	if victim == w.segSeq {
		if err := w.rollSegment(); err != nil {
			return err
		}
	}
	victimPath := filepath.Join(w.dir, segName(victim))
	touched, victimSize, err := w.victimKeys(victimPath)
	if err != nil {
		return err
	}
	// "begin": the victim is chosen and the tail is about to grow rescue
	// records; crash tests record the tail's durable size here.
	if snap.hook != nil {
		snap.hook("begin")
	}

	keys := make([]string, 0, len(touched))
	for k := range touched {
		if _, live := snap.cells[k]; live {
			keys = append(keys, k)
			continue
		}
		if len(snap.logs[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var rescued int64
	buf := w.groupBuf[:0]
	defer func() { w.keepGroupBuf(buf) }()
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := w.seg.Write(buf); err != nil {
			return fmt.Errorf("storage: wal compact write: %w", err)
		}
		w.segSize += int64(len(buf))
		rescued += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	for _, k := range keys {
		if v, ok := snap.cells[k]; ok {
			buf = appendRec(buf, walPut, k, v)
		}
		if entries := snap.logs[k]; len(entries) > 0 {
			buf = appendLogSnapRec(buf, k, entries)
		}
		if len(buf) >= 1<<20 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// "rewrite": the rescue records are written but not yet durable — a
	// crash here leaves an arbitrary suffix of them torn off the tail.
	if snap.hook != nil {
		snap.hook("rewrite")
	}
	if !w.opts.NoSync {
		if err := w.seg.Sync(); err != nil {
			return fmt.Errorf("storage: wal compact fsync: %w", err)
		}
		w.syncCount.Add(1)
	}
	if snap.hook != nil {
		snap.hook("unlink")
	}

	// The rescue is durable: the victim is garbage. It is the oldest
	// segment, so removing it keeps the survivors a contiguous suffix.
	if err := os.Remove(victimPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: wal compact unlink: %w", err)
	}
	// Make the unlink durable: a power loss that resurrected the victim
	// is harmless for correctness (its records are masked from above) but
	// would skew the disk accounting on replay.
	if err := syncDirEntry(w.dir); err != nil {
		return err
	}
	w.diskBytes.Add(rescued - victimSize)
	w.compactCount.Add(1)
	if st := w.obsState.Load(); st != nil {
		st.plane.Flight().Event(obs.EvCompaction, 0, uint64(w.compactCount.Load()),
			rescued, victimSize, "segment reclaimed")
	}
	return nil
}

// writeGroup writes one group to the current segment (rolling it first if
// the group would overflow) and fsyncs once. Committer goroutine only.
func (w *WAL) writeGroup(batch []*walOp) error {
	var n int64
	var recs int
	for _, op := range batch {
		if op.op != 0 {
			n += recLiveBytes(op.key, len(op.val))
			recs++
		}
	}
	if recs == 0 {
		return nil // pure barrier: all prior groups already synced
	}
	if w.segSize > 0 && w.segSize+n > w.opts.SegmentBytes {
		if err := w.rollSegment(); err != nil {
			return err
		}
	}
	// Frame the whole group — header, key, value, CRC per record, straight
	// from the index's copies — into the reused buffer, then one write.
	buf := w.groupBuf[:0]
	if int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for _, op := range batch {
		if op.op != 0 {
			buf = appendRec(buf, op.op, op.key, op.val)
		}
	}
	w.keepGroupBuf(buf)
	if _, err := w.seg.Write(buf); err != nil {
		return fmt.Errorf("storage: wal write: %w", err)
	}
	w.segSize += int64(len(buf))
	w.diskBytes.Add(int64(len(buf)))
	if !w.opts.NoSync {
		start := time.Now()
		if err := w.seg.Sync(); err != nil {
			return fmt.Errorf("storage: wal fsync: %w", err)
		}
		w.syncCount.Add(1)
		w.obsState.Load().observe(start, "wal fsync")
	}
	w.groupCount.Add(1)
	w.recordCount.Add(int64(recs))
	return nil
}

// keepGroupBuf keeps buf as the next write's framing buffer unless it grew
// past maxGroupBuf. Committer goroutine only.
func (w *WAL) keepGroupBuf(buf []byte) {
	w.groupBuf = nil
	if cap(buf) <= maxGroupBuf {
		w.groupBuf = buf[:0]
	}
}

// rollSegment closes the current (fully synced) segment and starts the
// next one. Committer goroutine only.
func (w *WAL) rollSegment() error {
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("storage: wal roll: %w", err)
	}
	w.segSeq++
	seg, err := os.OpenFile(filepath.Join(w.dir, segName(w.segSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal roll open: %w", err)
	}
	// The records fsynced into this segment are only as durable as its
	// directory entry.
	if err := syncDirEntry(w.dir); err != nil {
		seg.Close()
		return err
	}
	w.seg = seg
	w.segSize = 0
	return nil
}

// dispatchLoop resolves completions in group order, off the committer
// goroutine so callbacks (which may send network messages or take protocol
// locks) cannot stall the next fsync.
func (w *WAL) dispatchLoop() {
	defer close(w.displDone)
	for batch := range w.notify {
		for _, op := range batch {
			op.c.complete(op.err)
		}
	}
}
