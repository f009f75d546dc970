package storage

import "strings"

// Prefixed is a namespacing wrapper: every key of the wrapped engine is
// transparently qualified with a fixed prefix, so several independent
// components (the ordering groups of a sharded process, most prominently)
// can share one physical store without key collisions — and, when the
// shared engine is the group-commit WAL, share its fsyncs: cross-namespace
// writes coalesce into the same commit group, which is exactly why a
// sharded process runs all its groups over one WAL.
//
// The asynchronous durability API (AsyncStable) is forwarded to the inner
// engine when it has one, so the protocol hot path keeps its group-commit
// pipeline through the wrapper; synchronous engines get the usual eager
// shim semantics.
//
// Prefixed deliberately does NOT implement Closer: the inner engine is
// shared, and the component that owns it — not the namespaces borrowed from
// it — decides when it closes.
type Prefixed struct {
	inner  Stable
	prefix string
}

var (
	_ Stable      = (*Prefixed)(nil)
	_ AsyncStable = (*Prefixed)(nil)
)

// NewPrefixed wraps inner so every key is qualified as "<namespace>/key".
// A trailing separator in namespace is optional; the empty namespace
// returns a wrapper that leaves keys untouched.
func NewPrefixed(inner Stable, namespace string) *Prefixed {
	p := namespace
	if p != "" && !strings.HasSuffix(p, "/") {
		p += "/"
	}
	return &Prefixed{inner: inner, prefix: p}
}

// Inner returns the shared engine underneath the namespace.
func (p *Prefixed) Inner() Stable { return p.inner }

// Namespace returns the qualifying prefix (with its trailing separator).
func (p *Prefixed) Namespace() string { return p.prefix }

// Put implements Stable.
func (p *Prefixed) Put(key string, val []byte) error {
	return p.inner.Put(p.prefix+key, val)
}

// Get implements Stable.
func (p *Prefixed) Get(key string) ([]byte, bool, error) {
	return p.inner.Get(p.prefix + key)
}

// Append implements Stable.
func (p *Prefixed) Append(key string, rec []byte) error {
	return p.inner.Append(p.prefix+key, rec)
}

// Records implements Stable.
func (p *Prefixed) Records(key string) ([][]byte, error) {
	return p.inner.Records(p.prefix + key)
}

// Delete implements Stable.
func (p *Prefixed) Delete(key string) error {
	return p.inner.Delete(p.prefix + key)
}

// List implements Stable. Keys come back in the namespace's coordinates
// (the qualifying prefix is stripped), so callers cannot tell they are
// sharing the engine.
func (p *Prefixed) List(prefix string) ([]string, error) {
	keys, err := p.inner.List(p.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, strings.TrimPrefix(k, p.prefix))
	}
	return out, nil
}

// PutAsync implements AsyncStable, forwarding to the inner engine's
// asynchronous pipeline when it has one.
func (p *Prefixed) PutAsync(key string, val []byte) *Completion {
	if as, ok := p.inner.(AsyncStable); ok {
		return as.PutAsync(p.prefix+key, val)
	}
	return completed(p.inner.Put(p.prefix+key, val))
}

// AppendAsync implements AsyncStable.
func (p *Prefixed) AppendAsync(key string, rec []byte) *Completion {
	if as, ok := p.inner.(AsyncStable); ok {
		return as.AppendAsync(p.prefix+key, rec)
	}
	return completed(p.inner.Append(p.prefix+key, rec))
}

// DeleteAsync implements AsyncStable.
func (p *Prefixed) DeleteAsync(key string) *Completion {
	if as, ok := p.inner.(AsyncStable); ok {
		return as.DeleteAsync(p.prefix + key)
	}
	return completed(p.inner.Delete(p.prefix + key))
}

// DeleteRangeAsync implements AsyncStable. Both bounds carry the
// namespace, so the range cannot reach past it: every key between two
// keys with the same prefix has that prefix.
func (p *Prefixed) DeleteRangeAsync(from, to string) *Completion {
	if as, ok := p.inner.(AsyncStable); ok {
		return as.DeleteRangeAsync(p.prefix+from, p.prefix+to)
	}
	return completed(DeleteRange(p.inner, p.prefix+from, p.prefix+to))
}

// Sync implements AsyncStable (barrier on the shared pipeline: it covers
// the writes of every namespace, not just this one — a shared fsync is the
// point of sharing the engine).
func (p *Prefixed) Sync() error {
	if as, ok := p.inner.(AsyncStable); ok {
		return as.Sync()
	}
	return nil
}
