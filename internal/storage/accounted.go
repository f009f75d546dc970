package storage

import (
	"sort"
	"strings"
	"sync"
)

// LayerStats aggregates the stable-storage traffic of one protocol layer.
type LayerStats struct {
	PutOps      int64
	PutBytes    int64
	AppendOps   int64
	AppendBytes int64
	GetOps      int64
	DeleteOps   int64
}

// LogOps returns the number of forced-write ("log") operations: the quantity
// the paper's minimal-logging claim (§4.3) is stated in.
func (s LayerStats) LogOps() int64 { return s.PutOps + s.AppendOps }

// LogBytes returns the number of bytes written by log operations.
func (s LayerStats) LogBytes() int64 { return s.PutBytes + s.AppendBytes }

// Add accumulates o into s.
func (s *LayerStats) Add(o LayerStats) {
	s.PutOps += o.PutOps
	s.PutBytes += o.PutBytes
	s.AppendOps += o.AppendOps
	s.AppendBytes += o.AppendBytes
	s.GetOps += o.GetOps
	s.DeleteOps += o.DeleteOps
}

// Accounted wraps a Stable engine and attributes each operation to a layer
// derived from the key's first path segment ("cons/..." -> "cons",
// "abcast/..." -> "abcast", ...). Experiment E1 uses it to verify that the
// basic protocol's only log writes are the Consensus proposals.
type Accounted struct {
	inner Stable

	mu     sync.Mutex
	layers map[string]*LayerStats
}

var (
	_ Stable      = (*Accounted)(nil)
	_ AsyncStable = (*Accounted)(nil)
)

// NewAccounted wraps inner with per-layer accounting.
func NewAccounted(inner Stable) *Accounted {
	return &Accounted{inner: inner, layers: make(map[string]*LayerStats)}
}

// Inner returns the wrapped engine.
func (a *Accounted) Inner() Stable { return a.inner }

func layerOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// bump applies fn to the stats of key's layer under the lock.
func (a *Accounted) bump(key string, fn func(*LayerStats)) {
	layer := layerOf(key)
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.layers[layer]
	if !ok {
		st = &LayerStats{}
		a.layers[layer] = st
	}
	fn(st)
}

// Put implements Stable.
func (a *Accounted) Put(key string, val []byte) error {
	a.bump(key, func(st *LayerStats) {
		st.PutOps++
		st.PutBytes += int64(len(val))
	})
	return a.inner.Put(key, val)
}

// PutAsync implements AsyncStable, forwarding to the inner engine's
// asynchronous pipeline when it has one (accounting at issue time).
func (a *Accounted) PutAsync(key string, val []byte) *Completion {
	a.bump(key, func(st *LayerStats) {
		st.PutOps++
		st.PutBytes += int64(len(val))
	})
	if as, ok := a.inner.(AsyncStable); ok {
		return as.PutAsync(key, val)
	}
	return completed(a.inner.Put(key, val))
}

// AppendAsync implements AsyncStable.
func (a *Accounted) AppendAsync(key string, rec []byte) *Completion {
	a.bump(key, func(st *LayerStats) {
		st.AppendOps++
		st.AppendBytes += int64(len(rec))
	})
	if as, ok := a.inner.(AsyncStable); ok {
		return as.AppendAsync(key, rec)
	}
	return completed(a.inner.Append(key, rec))
}

// DeleteAsync implements AsyncStable.
func (a *Accounted) DeleteAsync(key string) *Completion {
	a.bump(key, func(st *LayerStats) { st.DeleteOps++ })
	if as, ok := a.inner.(AsyncStable); ok {
		return as.DeleteAsync(key)
	}
	return completed(a.inner.Delete(key))
}

// DeleteRangeAsync implements AsyncStable: one delete, attributed to
// from's layer.
func (a *Accounted) DeleteRangeAsync(from, to string) *Completion {
	a.bump(from, func(st *LayerStats) { st.DeleteOps++ })
	if as, ok := a.inner.(AsyncStable); ok {
		return as.DeleteRangeAsync(from, to)
	}
	return completed(DeleteRange(a.inner, from, to))
}

// Sync implements AsyncStable (barrier on the inner pipeline).
func (a *Accounted) Sync() error {
	if as, ok := a.inner.(AsyncStable); ok {
		return as.Sync()
	}
	return nil
}

// Get implements Stable.
func (a *Accounted) Get(key string) ([]byte, bool, error) {
	a.bump(key, func(st *LayerStats) { st.GetOps++ })
	return a.inner.Get(key)
}

// Append implements Stable.
func (a *Accounted) Append(key string, rec []byte) error {
	a.bump(key, func(st *LayerStats) {
		st.AppendOps++
		st.AppendBytes += int64(len(rec))
	})
	return a.inner.Append(key, rec)
}

// Records implements Stable.
func (a *Accounted) Records(key string) ([][]byte, error) {
	return a.inner.Records(key)
}

// Delete implements Stable.
func (a *Accounted) Delete(key string) error {
	a.bump(key, func(st *LayerStats) { st.DeleteOps++ })
	return a.inner.Delete(key)
}

// List implements Stable.
func (a *Accounted) List(prefix string) ([]string, error) {
	return a.inner.List(prefix)
}

// Layer returns a snapshot of the stats of one layer.
func (a *Accounted) Layer(name string) LayerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.layers[name]; ok {
		return *st
	}
	return LayerStats{}
}

// Layers returns a snapshot of all layer stats.
func (a *Accounted) Layers() map[string]LayerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]LayerStats, len(a.layers))
	for k, v := range a.layers {
		out[k] = *v
	}
	return out
}

// LayerNames returns the known layers, sorted.
func (a *Accounted) LayerNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.layers))
	for k := range a.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Total returns the sum over all layers.
func (a *Accounted) Total() LayerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t LayerStats
	for _, v := range a.layers {
		t.Add(*v)
	}
	return t
}

// Reset zeroes all counters (used between benchmark phases).
func (a *Accounted) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.layers = make(map[string]*LayerStats)
}
