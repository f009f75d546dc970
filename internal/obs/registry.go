package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ids"
)

// Registry is the named-metric namespace of one Plane. Metric names follow
// "abcast.<layer>.<name>" and may carry a raw Prometheus label suffix in
// braces — "abcast.core.delivered{group=\"2\"}" — so sharded groups sharing
// one registry keep distinct series.
//
// All lookup methods are safe on a nil *Registry: they return a fresh,
// fully usable but unregistered metric, so instrumentation code never
// branches on whether observability is wired.
type Registry struct {
	labels string // extra const labels appended to every exported series

	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaug  map[string]*Gauge
	hists map[string]*Histogram
	funcs map[string]func() int64
}

// NewRegistry creates a registry; labels (may be empty) is a raw Prometheus
// label list like `pid="3"` added to every series it exports.
func NewRegistry(labels string) *Registry {
	return &Registry{
		labels: labels,
		ctrs:   make(map[string]*Counter),
		gaug:   make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		funcs:  make(map[string]func() int64),
	}
}

// Counter returns the counter named name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = new(Counter)
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gaug[name]
	if g == nil {
		g = new(Gauge)
		r.gaug[name] = g
	}
	return g
}

// Histogram returns the histogram named name, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Func registers a read-on-scrape gauge backed by fn — how layers that
// already keep atomic counters (group mux, WAL) export them without
// double bookkeeping. Re-registering a name replaces the function.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// names returns all metric names of one kind, sorted (for stable export).
func sortedKeys[M any](m map[string]M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Each walks every metric as (name, value) pairs — counters and funcs as
// monotonic/instant values, gauges as instants — in sorted name order.
// Histograms are walked separately via EachHistogram.
func (r *Registry) Each(fn func(name string, value int64, counter bool)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for n, c := range r.ctrs {
		ctrs[n] = c
	}
	gaug := make(map[string]*Gauge, len(r.gaug))
	for n, g := range r.gaug {
		gaug[n] = g
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.Unlock()
	for _, n := range sortedKeys(ctrs) {
		fn(n, int64(ctrs[n].Value()), true)
	}
	for _, n := range sortedKeys(gaug) {
		fn(n, gaug[n].Value(), false)
	}
	for _, n := range sortedKeys(funcs) {
		fn(n, funcs[n](), false)
	}
}

// EachHistogram walks every histogram snapshot in sorted name order.
func (r *Registry) EachHistogram(fn func(name string, s HistSnapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	for _, n := range sortedKeys(hists) {
		fn(n, hists[n].Snapshot())
	}
}

// HistogramSnapshot returns the named histogram's snapshot and whether it
// exists (without creating it).
func (r *Registry) HistogramSnapshot(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	if h == nil {
		return HistSnapshot{}, false
	}
	return h.Snapshot(), true
}

// GroupLabel suffixes a metric name with its ordering-group label, the
// convention every layer uses so sharded groups sharing one registry keep
// distinct series: GroupLabel("abcast.core.delivered", 2) →
// `abcast.core.delivered{group="2"}`.
func GroupLabel(name string, g ids.GroupID) string {
	return fmt.Sprintf("%s{group=\"%d\"}", name, g)
}

// splitName separates a metric name into its base and an optional raw
// label list: "abcast.core.delivered{group=\"1\"}" → base
// "abcast.core.delivered", labels `group="1"`.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels merges two raw label lists.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// promName rewrites a dotted metric base name to a Prometheus-legal one
// (dots and other separators become underscores).
func promName(base string) string {
	var b strings.Builder
	b.Grow(len(base))
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// expvarPublished guards expvar.Publish, which panics on duplicate names —
// relevant when tests build multiple planes in one process.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exposes the registry under expvar as a single JSON map
// variable (histograms as {count,sum,max,p50,p90,p99}). The name is
// typically "abcast" or "abcast.p3"; duplicate publishes are ignored.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any {
		out := map[string]any{}
		r.Each(func(n string, v int64, _ bool) { out[n] = v })
		r.EachHistogram(func(n string, s HistSnapshot) {
			out[n] = map[string]any{
				"count": s.Count,
				"sum":   s.Sum,
				"max":   s.Max,
				"p50":   s.Quantile(0.50),
				"p90":   s.Quantile(0.90),
				"p99":   s.Quantile(0.99),
			}
		})
		return out
	}))
}

// String renders a compact human-readable dump (debugging aid).
func (r *Registry) String() string {
	if r == nil {
		return "(no registry)"
	}
	var b strings.Builder
	r.Each(func(n string, v int64, _ bool) {
		fmt.Fprintf(&b, "%s = %d\n", n, v)
	})
	r.EachHistogram(func(n string, s HistSnapshot) {
		fmt.Fprintf(&b, "%s = count=%d p50=%d p99=%d max=%d\n",
			n, s.Count, s.Quantile(0.5), s.Quantile(0.99), s.Max)
	})
	return b.String()
}
