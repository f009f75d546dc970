package storage

import (
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
)

// File is a file-backed Stable engine for real deployments. Each cell is a
// file written via temp-file-plus-rename (atomic on POSIX); each log is an
// append-only file of CRC-framed records. A torn tail (partial record from a
// crash mid-append) is detected by the CRC and discarded on read, which is
// the standard write-ahead-log recovery discipline.
//
// Open log handles are cached per key (an Append used to reopen the file on
// every record); Close releases them. With syncWrites the engine fsyncs
// every single record: the same durability as the group-commit WAL at one
// fsync per record instead of one per commit group.
type File struct {
	mu     sync.Mutex
	dir    string
	closed bool
	sync   bool // fsync after every write (durability vs. throughput knob)
	logs   map[string]*os.File
	syncs  atomic.Int64
}

var _ Stable = (*File)(nil)
var _ Closer = (*File)(nil)

// NewFile opens (creating if needed) a file-backed store rooted at dir.
// If syncWrites is true every Put/Append is fsynced before returning.
func NewFile(dir string, syncWrites bool) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &File{dir: dir, sync: syncWrites, logs: make(map[string]*os.File)}, nil
}

// Close implements Closer: cached log handles are released.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var first error
	for key, fh := range f.logs {
		if err := fh.Close(); err != nil && first == nil {
			first = err
		}
		delete(f.logs, key)
	}
	return first
}

// SyncCount returns the number of fsyncs issued (observability).
func (f *File) SyncCount() int64 { return f.syncs.Load() }

// escape maps a storage key to a safe file name. Keys use '/' as a logical
// separator; it is flattened so every key is a single file in dir.
func escape(key string) string {
	r := strings.NewReplacer("/", "~", "\\", "~", ":", "~")
	return r.Replace(key)
}

func unescape(name string) string {
	return strings.ReplaceAll(name, "~", "/")
}

func (f *File) cellPath(key string) string { return filepath.Join(f.dir, "c."+escape(key)) }
func (f *File) logPath(key string) string  { return filepath.Join(f.dir, "l."+escape(key)) }

// Put implements Stable.
func (f *File) Put(key string, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	path := f.cellPath(key)
	tmp := path + ".tmp"
	framed := frame(val)
	if err := os.WriteFile(tmp, framed, 0o644); err != nil {
		return fmt.Errorf("storage: write cell: %w", err)
	}
	if f.sync {
		if err := syncFile(tmp); err != nil {
			return err
		}
		f.syncs.Add(1)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename cell: %w", err)
	}
	return nil
}

// Get implements Stable.
func (f *File) Get(key string) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false, ErrClosed
	}
	b, err := os.ReadFile(f.cellPath(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: read cell: %w", err)
	}
	val, _, ok := unframe(b)
	if !ok {
		// A torn cell write lost the update; the old value was already
		// renamed away only on success, so this means corruption.
		return nil, false, fmt.Errorf("storage: cell %q corrupt", key)
	}
	return val, true, nil
}

// Append implements Stable. The open handle is cached per key so repeated
// appends to the same log skip the open/close pair.
func (f *File) Append(key string, rec []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	fh, ok := f.logs[key]
	if !ok {
		var err error
		fh, err = os.OpenFile(f.logPath(key), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("storage: open log: %w", err)
		}
		f.logs[key] = fh
	}
	if _, err := fh.Write(frame(rec)); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	if f.sync {
		if err := fh.Sync(); err != nil {
			return fmt.Errorf("storage: fsync: %w", err)
		}
		f.syncs.Add(1)
	}
	return nil
}

// Records implements Stable.
func (f *File) Records(key string) ([][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	b, err := os.ReadFile(f.logPath(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read log: %w", err)
	}
	var recs [][]byte
	for len(b) > 0 {
		rec, rest, ok := unframe(b)
		if !ok {
			// Torn tail from a crash mid-append: discard it.
			break
		}
		// Copied: each record is its collector's own, and one kept
		// record must not keep the whole log file's buffer alive.
		recs = append(recs, append([]byte(nil), rec...))
		b = rest
	}
	return recs, nil
}

// Delete implements Stable.
func (f *File) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if fh, ok := f.logs[key]; ok {
		fh.Close()
		delete(f.logs, key)
	}
	for _, p := range []string{f.cellPath(key), f.logPath(key)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: delete: %w", err)
		}
	}
	return nil
}

// List implements Stable.
func (f *File) List(prefix string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list: %w", err)
	}
	seen := make(map[string]bool)
	var keys []string
	for _, e := range entries {
		name := e.Name()
		var key string
		switch {
		case strings.HasPrefix(name, "c."):
			key = unescape(strings.TrimPrefix(name, "c."))
		case strings.HasPrefix(name, "l."):
			key = unescape(strings.TrimPrefix(name, "l."))
		default:
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		if strings.HasPrefix(key, prefix) && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// frame wraps a payload as [len u32][crc u32][payload].
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// unframe extracts one framed payload, returning it, the remaining bytes and
// whether the frame was intact. The payload aliases b: a caller whose result
// must not pin b (one record of a whole log file) copies it out.
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

func syncFile(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open for fsync: %w", err)
	}
	defer fh.Close()
	if err := fh.Sync(); err != nil && err != io.EOF {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return nil
}
