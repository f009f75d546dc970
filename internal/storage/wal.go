package storage

import (
	"encoding/binary"
	"errors"
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
// in-memory index of where each live record is, and a committer that
// coalesces all concurrent Put/Append calls into one write + one fsync.
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
// # Index
//
// The index maps each live cell to the location of its latest record and
// each log to the locations of its entries — never to a copy of the
// bytes. An issued write frames its record straight into the pending
// group buffer, the one in-memory copy of its value, and the committer
// writes that buffer as it is. Reads (Get/Records) follow the location:
// into the pending or in-flight group buffer while the record is not yet
// written, otherwise a pread from its segment. They therefore see
// issued-but-not-yet-durable writes of this same WAL instance
// (read-your-writes) without ever waiting for an fsync. Resident memory is
// O(live keys); the values live on disk. After a crash, reopening replays
// only the durable prefix: a torn tail (partial group at the moment of the
// crash) is detected by the CRC framing and truncated, exactly the
// recovery discipline of §5.5 — which is safe because no operation
// covering those records ever completed, so no process acted on them.
//
// # Compaction
//
// Deleted and overwritten records stay on disk until segment compaction
// reclaims them. Compaction is incremental — one segment per pass: with
// CompactFactor > 0 (or an explicit Compact call) the committer picks
// the oldest segment, streams it, rescues the current state of every
// still-live key it touches into the tail (cells as fresh put records,
// logs as one atomic log-snapshot record each; a value the victim holds is
// copied from the stream, any other is read by location), fsyncs,
// repoints the index and unlinks just that segment. A pass
// therefore costs one segment plus the live state it shadows, never a
// whole-log rewrite; the background trigger keeps firing a pass per
// commit group until the dead-space ratio is back under CompactFactor.
// The rescue sits at the stream position of the group drained with it:
// it writes the index as it stood there, writes issued later land after
// it, and the victim is unlinked only after the rescue's fsync — so a
// crash at any point replays to the same index (see the package doc's
// "Log lifecycle" section for the crash argument).
//
// # Failure model
//
// A write or fsync error poisons the engine: the failed group and every
// later operation, reads included, resolve with the error. This mirrors a
// dying incarnation — the caller must crash and recover from the durable
// prefix.
type WAL struct {
	dir  string
	opts WALOptions

	mu         sync.Mutex
	cells      map[string]loc
	logs       map[string][]loc
	spare      []loc       // a deleted log's emptied index array, for the next new log
	queue      []walOp     // the pending group's mutations, in issue order
	queueC     *Completion // the pending group's one completion; nil while queue is empty
	oldest     time.Time   // arrival of queue[0]
	urgent     bool        // a barrier (or Close) demands an immediate flush
	closed     bool
	failed     error         // first IO error; poisons all later operations
	liveBytes  int64         // approximate record bytes of the live index
	compactReq []*Completion // explicit Compact callers awaiting a cycle

	// pend is the pending group: every queued record framed in place, its
	// CRC left for the committer. flight is the group the committer is
	// writing. A record still in one of them is located by the group's
	// generation (loc.seg = -gen).
	pend      []byte
	pendGen   int
	flight    []byte
	flightGen int
	// files holds one read handle per segment, opened on first use and
	// closed when the segment is unlinked or the WAL closes.
	files map[int]*os.File
	// pass is the drained index a compaction pass rescues; nil between
	// passes.
	pass *passState

	// compactHook, when set (tests only, under mu), is called from the
	// committer at named stages of a compaction cycle to freeze crash
	// points, and at "write" while a drained group is in flight.
	compactHook func(stage string)

	// Committer-owned (no lock needed: single goroutine). segs lists the
	// segments on disk, oldest first. groupBuf is the spare group buffer
	// (the next pending group) and queueBuf the spare queue, rescueBuf the
	// buffer compaction frames its rescue records in, and scanBuf the one
	// segments stream through; each is reused from one use to the next.
	seg       *os.File
	segSeq    int
	segSize   int64
	segs      []int
	groupBuf  []byte
	queueBuf  []walOp
	rescueBuf []byte
	scanBuf   []byte

	kick    chan struct{} // wakes the committer (capacity 1)
	closeCh chan struct{}
	// notify carries flushed groups, in order, to the dispatcher that
	// resolves their completions — off the committer goroutine so a slow
	// completion callback cannot stall the next fsync.
	notify       chan groupDone
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

// loc is where a value's bytes are: n bytes at offset off of segment seg
// (segments number from 1), or, while the record is not yet written, at
// offset off of the group buffer of generation -seg.
type loc struct {
	seg int
	off int64
	n   int
}

// walOp is one queued mutation; its record sits in the group buffer, in
// queue order. A barrier has op 0. The queue holds values, and every op of
// a group resolves through the group's one Completion.
type walOp struct {
	op  byte
	key string
}

// groupDone is one flushed group's completion and the error it resolves
// with.
type groupDone struct {
	c   *Completion
	err error
}

// passState is the index as it stood at a compaction pass's drain point,
// kept copy-on-write: a write issued after the drain that overwrites or
// deletes a drained cell, or deletes a drained log, saves the drained
// state here first. Appends save nothing — they only add entries past the
// drained ones.
type passState struct {
	gen   int              // generation of the group drained with the pass
	cells map[string]loc   // drained cells since overwritten or deleted
	logs  map[string][]loc // drained logs since deleted
}

// maxGroupBuf caps the buffers the WAL keeps between uses, and maxQueue
// the ops a kept queue holds; one huge group or record must not pin its
// buffer for good.
const (
	maxGroupBuf = 4 << 20
	maxQueue    = 1 << 16
)

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
	// walDeleteRange removes every cell and log whose key is in [key,
	// value): [op][from][to]. Like walDelete it masks only records older
	// than itself.
	walDeleteRange
)

// The on-disk format is one frame per record, [len u32][crc u32][record],
// the record being [op][keylen u32][key][value] and the CRC covering it.
// beginRec/endRec are its only encoder: they frame in place, onto a buffer
// the caller reuses, so no record is assembled anywhere else first, and
// sealFrames adds the CRCs when the buffer is written.

// beginRec appends a frame header (patched by endRec and sealFrames) and
// the record header for (op, key); the caller appends the value, then
// calls endRec with the returned start offset.
func beginRec(buf []byte, op byte, key string) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...), start
}

// endRec writes the length of the frame begun at start: everything
// appended after its header.
func endRec(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-8))
	return buf
}

// sealFrames computes the CRC of every frame in buf and returns the number
// of frames. The committer runs it on each buffer it writes, so an issued
// write costs its memcpy alone under w.mu.
func sealFrames(buf []byte) (frames int) {
	for ; len(buf) > 0; frames++ {
		n := binary.LittleEndian.Uint32(buf)
		binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:8+n]))
		buf = buf[8+n:]
	}
	return frames
}

// appendLogSnapRec frames a walLogSnap record onto buf. Its value packs
// the log's entries: [count u32] then per entry [len u32][bytes], read
// writing each entry's bytes into the space made for them.
func appendLogSnapRec(buf []byte, key string, entries []loc, read func(dst []byte, e loc) error) ([]byte, error) {
	buf, start := beginRec(buf, walLogSnap, key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.n))
		at := len(buf)
		buf = append(buf, make([]byte, e.n)...)
		if err := read(buf[at:], e); err != nil {
			return buf[:start], err
		}
	}
	return endRec(buf, start), nil
}

// decodeLogSnap unpacks a walLogSnap value into the locations of its
// entries, as offsets into b; nil, false on malformed input. Every entry
// takes at least its 4-byte length, so a count past len(b)/4 is malformed
// before it sizes anything: a bad record must not ask replay for
// gigabytes.
func decodeLogSnap(b []byte) ([]loc, bool) {
	if len(b) < 4 {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(b)
	if int64(count) > int64(len(b)/4-1) {
		return nil, false
	}
	entries := make([]loc, 0, count)
	off := 4
	for i := uint32(0); i < count; i++ {
		if len(b)-off < 4 {
			return nil, false
		}
		l := binary.LittleEndian.Uint32(b[off:])
		off += 4
		if uint32(len(b)-off) < l {
			return nil, false
		}
		entries = append(entries, loc{off: int64(off), n: int(l)})
		off += int(l)
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

// errTorn marks a frame cut short or failing its CRC.
var errTorn = errors.New("storage: wal torn frame")

// segScanner streams one segment's frames through a buffer reused from
// segment to segment; a record larger than the buffer grows it to fit.
type segScanner struct {
	f      *os.File
	size   int64 // the segment's length
	buf    []byte
	base   int64 // file offset of buf[0]
	lo, hi int   // buf[lo:hi] is read but not yet scanned
}

// scanner starts streaming f (size bytes) through the WAL's scan buffer;
// release hands the buffer back.
func (w *WAL) scanner(f *os.File, size int64) *segScanner {
	buf := w.scanBuf
	if want := int(min(size, 256<<10)); len(buf) < want {
		buf = make([]byte, want)
	}
	return &segScanner{f: f, size: size, buf: buf}
}

func (w *WAL) release(s *segScanner) {
	w.scanBuf = nil
	if len(s.buf) <= maxGroupBuf {
		w.scanBuf = s.buf
	}
}

// next returns the next frame's record, aliasing the buffer until the
// following call, and the file offset of the frame; io.EOF at the end of
// the segment, errTorn at a frame that is cut short or fails its CRC.
func (s *segScanner) next() (rec []byte, at int64, err error) {
	at = s.base + int64(s.lo)
	if at == s.size {
		return nil, at, io.EOF
	}
	if err := s.fill(8); err != nil {
		return nil, at, err
	}
	n := int64(binary.LittleEndian.Uint32(s.buf[s.lo:]))
	if n > s.size-at-8 {
		return nil, at, errTorn // the length runs past the end of the segment
	}
	if err := s.fill(8 + int(n)); err != nil {
		return nil, at, err
	}
	frame := s.buf[s.lo : s.lo+8+int(n)]
	rec = frame[8:len(frame):len(frame)]
	if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, at, errTorn
	}
	s.lo += len(frame)
	return rec, at, nil
}

// fill makes buf[lo:hi] hold at least need bytes.
func (s *segScanner) fill(need int) error {
	if s.hi-s.lo >= need {
		return nil
	}
	if need > len(s.buf) {
		grown := make([]byte, max(need, 2*len(s.buf)))
		s.hi = copy(grown, s.buf[s.lo:s.hi])
		s.buf = grown
	} else {
		s.hi = copy(s.buf, s.buf[s.lo:s.hi])
	}
	s.base += int64(s.lo)
	s.lo = 0
	for s.hi < need {
		want := min(int64(len(s.buf)-s.hi), s.size-s.base-int64(s.hi))
		if want <= 0 {
			return errTorn
		}
		n, err := s.f.ReadAt(s.buf[s.hi:s.hi+int(want)], s.base+int64(s.hi))
		s.hi += n
		if err != nil && int64(n) < want {
			if err == io.EOF {
				return errTorn
			}
			return fmt.Errorf("storage: wal read: %w", err)
		}
	}
	return nil
}

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
		cells:      make(map[string]loc),
		logs:       make(map[string][]loc),
		pendGen:    1,
		files:      make(map[int]*os.File),
		kick:       make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		notify:     make(chan groupDone, 128),
		commitDone: make(chan struct{}),
		displDone:  make(chan struct{}),
	}
	if err := w.replay(); err != nil {
		w.closeFiles()
		return nil, err
	}
	go w.commitLoop()
	go w.dispatchLoop()
	return w, nil
}

// replay rebuilds the index from the segments, streaming each through the
// scan buffer, and opens the tail segment for appending.
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
		f, err := w.segFileLocked(seq)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("storage: wal stat %s: %w", path, err)
		}
		sc := w.scanner(f, st.Size())
		kept := st.Size()
		for {
			rec, at, err := sc.next()
			if err == io.EOF {
				break
			}
			if err == errTorn {
				// Torn frame: fine at the very tail of the last segment
				// (crash mid-group-commit; nothing covering these bytes
				// ever completed), corruption anywhere else.
				if i != len(seqs)-1 {
					return fmt.Errorf("storage: wal segment %s: torn frame mid-stream", path)
				}
				if err := os.Truncate(path, at); err != nil {
					return fmt.Errorf("storage: wal truncate torn tail: %w", err)
				}
				kept = at
				break
			}
			if err != nil {
				return err
			}
			w.applyRec(seq, at+8, rec)
		}
		w.release(sc)
		w.diskBytes.Add(kept)
	}

	if len(seqs) == 0 {
		seqs = []int{1}
	}
	w.segs = seqs
	w.segSeq = seqs[len(seqs)-1]
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

// applyRec replays one durable record, found at offset off of segment seg,
// into the index: what it keeps is where the value is.
func (w *WAL) applyRec(seg int, off int64, rec []byte) {
	op, k, val, ok := decodeWALRec(rec)
	if !ok {
		return // framed but malformed: skip (forward compatibility)
	}
	key := string(k)
	at := loc{seg: seg, off: off + 5 + int64(len(k)), n: len(val)}
	if op != walLogSnap {
		w.apply(op, key, at, val)
	} else if entries, ok := decodeLogSnap(val); ok {
		for i := range entries {
			entries[i].seg = seg
			entries[i].off += at.off
		}
		w.applyLogSnap(key, entries)
	}
}

// apply points the index at one put or append's value, which is at at,
// or deletes a key, or every key in [key, val). Callers hold w.mu or run
// single-threaded (replay).
func (w *WAL) apply(op byte, key string, at loc, val []byte) {
	switch op {
	case walPut:
		w.applyPut(key, at)
	case walAppend:
		w.applyAppend(key, at)
	case walDelete:
		w.applyDelete(key)
	case walDeleteRange:
		for k := range w.cells {
			if k >= key && k < string(val) {
				w.applyDelete(k)
			}
		}
		for k := range w.logs {
			if k >= key && k < string(val) {
				w.applyDelete(k)
			}
		}
	}
}

// recLiveBytes is the on-disk footprint of one record (frame + header +
// key + value): the live-bytes counter driving the compaction trigger sums
// it over the index.
func recLiveBytes(key string, valLen int) int64 {
	return int64(13 + len(key) + valLen)
}

// applyPut points a cell at its new value.
func (w *WAL) applyPut(key string, at loc) {
	if old, ok := w.cells[key]; ok {
		w.liveBytes -= recLiveBytes(key, old.n)
		w.saveDrainedCell(key, old)
	}
	w.liveBytes += recLiveBytes(key, at.n)
	w.cells[key] = at
}

// applyAppend appends one log entry. A new log starts in the spare
// array, if a deleted log left one.
func (w *WAL) applyAppend(key string, at loc) {
	w.liveBytes += recLiveBytes(key, at.n)
	recs, ok := w.logs[key]
	if !ok {
		recs, w.spare = w.spare, nil
	}
	w.logs[key] = append(recs, at)
}

// applyDelete removes a cell or log.
func (w *WAL) applyDelete(key string) {
	if old, ok := w.cells[key]; ok {
		w.liveBytes -= recLiveBytes(key, old.n)
		w.saveDrainedCell(key, old)
		delete(w.cells, key)
	}
	if recs, ok := w.logs[key]; ok {
		for _, r := range recs {
			w.liveBytes -= recLiveBytes(key, r.n)
		}
		// The running pass may read a drained log outside the lock: it
		// keeps that array. Any other is nobody's once deleted.
		if w.pass != nil && w.pass.drained(recs[0]) {
			w.pass.logs[key] = recs
		} else if cap(recs) <= maxQueue {
			w.spare = recs[:0]
		}
		delete(w.logs, key)
	}
}

// applyLogSnap replaces a whole log with the snapshot's entries (replay
// only).
func (w *WAL) applyLogSnap(key string, entries []loc) {
	if recs, ok := w.logs[key]; ok {
		for _, r := range recs {
			w.liveBytes -= recLiveBytes(key, r.n)
		}
	}
	for _, e := range entries {
		w.liveBytes += recLiveBytes(key, e.n)
	}
	if len(entries) == 0 {
		delete(w.logs, key)
		return
	}
	w.logs[key] = entries
}

// saveDrainedCell keeps a cell's drained state for the running pass
// before a write replaces it. w.mu held.
func (w *WAL) saveDrainedCell(key string, old loc) {
	if w.pass != nil && w.pass.drained(old) {
		w.pass.cells[key] = old
	}
}

// drained reports whether l belongs to the index as it stood at the drain:
// on disk, or in the group drained with the pass. Anything later was
// issued after the drain, so the first write to replace a drained location
// is the one that saves it.
func (p *passState) drained(l loc) bool {
	return l.seg > 0 || l.seg == -p.gen
}

// enqueueLocked queues one mutation (op 0: a barrier) whose record, if
// any, is already in the pending group, and returns the group's
// completion, made with its first op: every op of a group is durable at
// the same fsync. w.mu held.
func (w *WAL) enqueueLocked(op byte, key string) *Completion {
	if w.queueC == nil {
		w.queueC = newCompletion()
		w.oldest = time.Now()
	}
	w.queue = append(w.queue, walOp{op: op, key: key})
	return w.queueC
}

func (w *WAL) wakeCommitter() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// issue frames one mutation into the pending group — the one copy of its
// value the WAL makes — points the index at it (read-your-writes) and
// queues it; it returns the group's completion, which resolves with the
// group's fsync.
func (w *WAL) issue(op byte, key string, val []byte) *Completion {
	w.mu.Lock()
	if err := w.errLocked(); err != nil {
		w.mu.Unlock()
		return completed(err)
	}
	buf, start := beginRec(w.pend, op, key)
	at := loc{seg: -w.pendGen, off: int64(len(buf)), n: len(val)}
	w.pend = endRec(append(buf, val...), start)
	w.apply(op, key, at, val)
	c := w.enqueueLocked(op, key)
	w.mu.Unlock()
	w.wakeCommitter()
	return c
}

// PutAsync implements AsyncStable.
func (w *WAL) PutAsync(key string, val []byte) *Completion {
	return w.issue(walPut, key, val)
}

// AppendAsync implements AsyncStable.
func (w *WAL) AppendAsync(key string, rec []byte) *Completion {
	return w.issue(walAppend, key, rec)
}

// DeleteAsync implements AsyncStable. Deletions are logged records too, so
// they survive recovery.
func (w *WAL) DeleteAsync(key string) *Completion {
	return w.issue(walDelete, key, nil)
}

// DeleteRangeAsync implements AsyncStable: one record, however many keys
// it removes.
func (w *WAL) DeleteRangeAsync(from, to string) *Completion {
	return w.issue(walDeleteRange, from, []byte(to))
}

// errLocked is the error every operation returns once the engine is
// closed or poisoned. w.mu held.
func (w *WAL) errLocked() error {
	if w.closed {
		return ErrClosed
	}
	return w.failed
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

// Delete implements Stable.
func (w *WAL) Delete(key string) error {
	return w.DeleteAsync(key).Wait()
}

// Sync implements AsyncStable: a barrier that returns once every write
// issued before it is durable. It joins the pending group and waits on that
// group's completion, which resolves after every earlier group's.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if err := w.errLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	c := w.enqueueLocked(0, "")
	w.urgent = true
	w.mu.Unlock()
	w.wakeCommitter()
	return c.Wait()
}

// readLocked returns a fresh copy of the value at l: from its group buffer
// if not yet written, else read from its segment. w.mu held.
func (w *WAL) readLocked(l loc) ([]byte, error) {
	out := make([]byte, l.n)
	if l.seg < 0 {
		buf := w.flight
		if -l.seg == w.pendGen {
			buf = w.pend
		}
		copy(out, buf[l.off:])
		return out, nil
	}
	f, err := w.segFileLocked(l.seg)
	if err != nil {
		return nil, err
	}
	if _, err := f.ReadAt(out, l.off); err != nil {
		return nil, fmt.Errorf("storage: wal read %s: %w", segName(l.seg), err)
	}
	return out, nil
}

// segFileLocked returns the read handle of segment seq, opening it on
// first use. w.mu held, or replay.
func (w *WAL) segFileLocked(seq int) (*os.File, error) {
	if f, ok := w.files[seq]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(w.dir, segName(seq)))
	if err != nil {
		return nil, fmt.Errorf("storage: wal open for read: %w", err)
	}
	w.files[seq] = f
	return f, nil
}

// segFile is segFileLocked for the committer.
func (w *WAL) segFile(seq int) (*os.File, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segFileLocked(seq)
}

// closeFiles closes every read handle.
func (w *WAL) closeFiles() {
	for seq, f := range w.files {
		f.Close()
		delete(w.files, seq)
	}
}

// Get implements Stable.
func (w *WAL) Get(key string) ([]byte, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return nil, false, err
	}
	l, ok := w.cells[key]
	if !ok {
		return nil, false, nil
	}
	v, err := w.readLocked(l)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Records implements Stable.
func (w *WAL) Records(key string) ([][]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return nil, err
	}
	recs := w.logs[key]
	out := make([][]byte, len(recs))
	for i, r := range recs {
		v, err := w.readLocked(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// List implements Stable (from the index).
func (w *WAL) List(prefix string) ([]string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return nil, err
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
// the segments. Pending completions resolve before Close returns.
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
	w.mu.Lock()
	w.closeFiles()
	w.mu.Unlock()
	err := w.seg.Close()
	w.seg = nil
	return err
}

// Compact forces one incremental compaction pass: the pending queue is
// flushed, the still-live records of the oldest segment are rescued into
// the tail (group-committed: the rescue's fsync completes first), and
// that one segment is unlinked. It returns once the pass is durable.
// One call reclaims one segment; call it repeatedly — or rely on
// background compaction (WALOptions.CompactFactor), which runs the same
// pass automatically whenever dead records outgrow the live state —
// to converge on a fully compacted log.
func (w *WAL) Compact() error {
	w.mu.Lock()
	if err := w.errLocked(); err != nil {
		w.mu.Unlock()
		return err
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
// this goroutine too: a pass is opened in the critical section that
// drains the queue, so its rescue sits at exactly that stream position.
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
		batch, c := w.queue, w.queueC
		w.queue, w.queueC, w.queueBuf = w.queueBuf[:0], nil, nil
		w.urgent = false
		err := w.failed
		reqs := w.compactReq
		w.compactReq = nil
		group, gen := w.pend, w.pendGen
		w.flight, w.flightGen = group, gen
		w.pend, w.groupBuf = w.groupBuf[:0], nil
		w.pendGen++
		// A pass opens in the same critical section that drains the
		// queue: the index it rescues is the one "after batch, before
		// anything enqueued later", which is where the rescue will be
		// written.
		compacting := err == nil && !w.closed && (len(reqs) > 0 || w.compactDueLocked())
		if compacting {
			w.pass = &passState{gen: gen, cells: make(map[string]loc), logs: make(map[string][]loc)}
		}
		hook := w.compactHook
		w.mu.Unlock()

		var seg int
		var base int64
		if err == nil {
			if hook != nil && len(group) > 0 {
				hook("write")
			}
			seg, base, err = w.writeGroup(group)
			if err != nil {
				w.poison(err)
			}
		}
		if c != nil {
			w.notify <- groupDone{c, err}
		}
		// Until it is placed, the group reads from the in-flight buffer.
		w.mu.Lock()
		if err == nil {
			w.placeLocked(batch, gen, seg, base)
		}
		w.flight, w.flightGen = nil, 0
		w.mu.Unlock()
		w.groupBuf = reusable(group)
		if cap(batch) <= maxQueue {
			clear(batch) // drop the keys
			w.queueBuf = batch[:0]
		}

		if compacting {
			if err == nil {
				if cerr := w.compact(hook); cerr != nil {
					w.poison(cerr)
					err = cerr
				}
			}
			w.mu.Lock()
			w.pass = nil
			w.mu.Unlock()
		}
		if len(reqs) > 0 {
			cerr := err
			if cerr == nil && !compacting {
				cerr = ErrClosed // Close raced the request; the cycle never ran
			}
			for _, c := range reqs {
				c.complete(cerr)
			}
		}
	}
}

// placeLocked repoints the index from the group buffer of generation gen,
// now written at offset base of segment seg, to the disk. A location that
// no longer names that buffer was overwritten or deleted meanwhile; the
// drained state a pass saved is repointed too. w.mu held.
func (w *WAL) placeLocked(batch []walOp, gen, seg int, base int64) {
	place := func(l *loc) bool {
		if l.seg != -gen {
			return false
		}
		l.seg, l.off = seg, base+l.off
		return true
	}
	placeLog := func(recs []loc) {
		// The group's entries sit in the log's not-yet-written tail.
		for i := len(recs) - 1; i >= 0 && recs[i].seg < 0; i-- {
			place(&recs[i])
		}
	}
	for _, op := range batch {
		switch op.op {
		case walPut:
			if l, ok := w.cells[op.key]; ok && place(&l) {
				w.cells[op.key] = l
			}
			if w.pass != nil {
				if l, ok := w.pass.cells[op.key]; ok && place(&l) {
					w.pass.cells[op.key] = l
				}
			}
		case walAppend:
			placeLog(w.logs[op.key])
			if w.pass != nil {
				placeLog(w.pass.logs[op.key])
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

// compactDueLocked evaluates the background trigger. w.mu held.
func (w *WAL) compactDueLocked() bool {
	if w.opts.CompactFactor <= 0 {
		return false
	}
	disk := w.diskBytes.Load()
	return disk > w.opts.CompactMinBytes &&
		float64(disk) > w.opts.CompactFactor*float64(w.liveBytes)
}

// moved is one rescued cell or log: its drained location (a cell's, or a
// log's first entry) and where the rescue record put its bytes.
type moved struct {
	key  string
	from loc
	to   []loc // the cell's new location, or the log's entries'
	cell bool
}

// compact performs ONE incremental compaction pass on the committer
// goroutine: pick the oldest segment on disk as the victim, stream it, and
// rescue the drained state of every still-live key its records touch into
// the active tail — a cell as a put record, its value copied from the
// stream when the victim holds it and read by location otherwise; a log as
// one log-snapshot record whose entries are read by location — fsync,
// repoint the index at the copies, then unlink just that one segment. The
// pass cost is bounded by one segment plus the live state it shadows —
// not by total log size. Repeated passes (one per commit-loop iteration
// while the CompactFactor trigger stays hot, or one per explicit Compact
// call) converge on a fully compacted log.
//
// Correctness: the victim is the oldest segment, so its records sit at
// the bottom of the replay stream — every key it touches is either dead
// (masked by a later record; dropping it changes nothing) or rescued as
// a put / log-snapshot appended at the very top, which replays to
// exactly the drained state no matter what the intervening segments
// say. A log-snapshot replaces its log atomically, so middle-segment
// appends beneath it cannot double-apply. Crash safety: until the unlink,
// replay sees the victim plus (a possibly torn suffix of) the rescue
// records, which are idempotent over the state they describe; after the
// fsync the rescue fully substitutes for the victim. When the victim IS
// the active tail (a lone segment full of dead bytes), it is rolled first
// so the frozen file can be rescued and unlinked — without that, a
// single-segment log could never shrink.
func (w *WAL) compact(hook func(stage string)) error {
	victim := w.segs[0]
	if victim == w.segSeq {
		if err := w.rollSegment(); err != nil {
			return err
		}
	}
	vf, err := w.segFile(victim)
	if err != nil {
		return err
	}
	st, err := vf.Stat()
	if err != nil {
		return fmt.Errorf("storage: wal compact stat: %w", err)
	}
	victimSize := st.Size()
	// "begin": the victim is chosen and the tail is about to grow rescue
	// records; crash tests record the tail's durable size here.
	if hook != nil {
		hook("begin")
	}

	var moves []moved
	rescuedKeys := make(map[string]struct{})
	var rescued int64
	buf := w.rescueBuf[:0]
	defer func() { w.rescueBuf = reusable(buf) }()
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sealFrames(buf)
		if _, err := w.seg.Write(buf); err != nil {
			return fmt.Errorf("storage: wal compact write: %w", err)
		}
		w.segSize += int64(len(buf))
		rescued += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	read := func(dst []byte, e loc) error {
		f, err := w.segFile(e.seg)
		if err != nil {
			return err
		}
		if _, err := f.ReadAt(dst, e.off); err != nil {
			return fmt.Errorf("storage: wal compact read: %w", err)
		}
		return nil
	}

	sc := w.scanner(vf, victimSize)
	defer w.release(sc)
	for {
		rec, at, err := sc.next()
		if err == io.EOF {
			break
		}
		if err == errTorn {
			// The victim is sealed (never the write target), so every
			// frame is complete: a torn one is corruption.
			return fmt.Errorf("storage: wal compact: torn frame in sealed segment %s", segName(victim))
		} else if err != nil {
			return err
		}
		op, k, val, ok := decodeWALRec(rec)
		if !ok {
			continue
		}
		if _, done := rescuedKeys[string(k)]; done {
			continue
		}
		// The key's drained state: a cell still on disk unless a later
		// write saved it first, and the log entries on disk — everything
		// issued since the drain is past them.
		w.mu.Lock()
		cell, hasCell := w.pass.cells[string(k)]
		if !hasCell {
			cell, hasCell = w.cells[string(k)]
			hasCell = hasCell && cell.seg > 0
		}
		recs, saved := w.pass.logs[string(k)]
		if !saved {
			recs = w.logs[string(k)]
		}
		n := 0
		for n < len(recs) && recs[n].seg > 0 {
			n++
		}
		entries := recs[:n:n]
		w.mu.Unlock()
		if !hasCell && n == 0 {
			continue // dead: masked by later records
		}
		key := string(k)
		rescuedKeys[key] = struct{}{}
		if hasCell {
			var start int
			buf, start = beginRec(buf, walPut, key)
			valAt := len(buf)
			if op == walPut && cell == (loc{seg: victim, off: at + 13 + int64(len(k)), n: len(val)}) {
				buf = append(buf, val...) // the live record itself: copy it from the stream
			} else {
				buf = append(buf, make([]byte, cell.n)...)
				if err := read(buf[valAt:], cell); err != nil {
					return err
				}
			}
			buf = endRec(buf, start)
			to := loc{seg: w.segSeq, off: w.segSize + int64(valAt), n: cell.n}
			moves = append(moves, moved{key: key, from: cell, to: []loc{to}, cell: true})
		}
		if n > 0 {
			valAt := len(buf) + 13 + len(key)
			if buf, err = appendLogSnapRec(buf, key, entries, read); err != nil {
				return err
			}
			to, _ := decodeLogSnap(buf[valAt:])
			for i := range to {
				to[i].seg = w.segSeq
				to[i].off += w.segSize + int64(valAt)
			}
			moves = append(moves, moved{key: key, from: entries[0], to: to})
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
	if hook != nil {
		hook("rewrite")
	}
	if !w.opts.NoSync {
		if err := w.seg.Sync(); err != nil {
			return fmt.Errorf("storage: wal compact fsync: %w", err)
		}
		w.syncCount.Add(1)
	}
	if hook != nil {
		hook("unlink")
	}

	// The rescue is durable: repoint every key still in its drained state
	// at its copy, after which nothing refers to the victim.
	w.mu.Lock()
	for _, m := range moves {
		if m.cell {
			if w.cells[m.key] == m.from {
				w.cells[m.key] = m.to[0]
			}
		} else if recs := w.logs[m.key]; len(recs) > 0 && recs[0] == m.from {
			copy(recs, m.to)
		}
	}
	delete(w.files, victim)
	w.mu.Unlock()
	vf.Close()
	// The victim is the oldest segment, so removing it keeps the
	// survivors a contiguous suffix.
	if err := os.Remove(filepath.Join(w.dir, segName(victim))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: wal compact unlink: %w", err)
	}
	w.segs = w.segs[1:]
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

// writeGroup seals one group's frames, writes it to the current segment
// (rolling it first if the group would overflow) and fsyncs once,
// returning where the group landed. Committer goroutine only.
func (w *WAL) writeGroup(group []byte) (seg int, base int64, err error) {
	if len(group) == 0 {
		return 0, 0, nil // pure barrier: all prior groups already synced
	}
	if w.segSize > 0 && w.segSize+int64(len(group)) > w.opts.SegmentBytes {
		if err := w.rollSegment(); err != nil {
			return 0, 0, err
		}
	}
	recs := sealFrames(group)
	if _, err := w.seg.Write(group); err != nil {
		return 0, 0, fmt.Errorf("storage: wal write: %w", err)
	}
	seg, base = w.segSeq, w.segSize
	w.segSize += int64(len(group))
	w.diskBytes.Add(int64(len(group)))
	if !w.opts.NoSync {
		start := time.Now()
		if err := w.seg.Sync(); err != nil {
			return 0, 0, fmt.Errorf("storage: wal fsync: %w", err)
		}
		w.syncCount.Add(1)
		w.obsState.Load().observe(start, "wal fsync")
	}
	w.groupCount.Add(1)
	w.recordCount.Add(int64(recs))
	return seg, base, nil
}

// reusable returns buf emptied for its next use, or nil if it grew past
// maxGroupBuf.
func reusable(buf []byte) []byte {
	if cap(buf) > maxGroupBuf {
		return nil
	}
	return buf[:0]
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
	w.segs = append(w.segs, w.segSeq)
	return nil
}

// dispatchLoop resolves completions in group order, off the committer
// goroutine so callbacks (which may send network messages or take protocol
// locks) cannot stall the next fsync.
func (w *WAL) dispatchLoop() {
	defer close(w.displDone)
	for g := range w.notify {
		g.c.complete(g.err)
	}
}
