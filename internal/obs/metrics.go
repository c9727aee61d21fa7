// Package obs is the repo-local observability kit: a dependency-free
// metrics registry (atomic counters, function-backed gauges, log-scale latency
// histograms with quantile snapshots), lightweight request tracing
// carried through context.Context, and a Prometheus-text + pprof HTTP
// endpoint. Everything here is stdlib-only so the storage layers can
// depend on it without pulling third-party code into the module.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are the dimension values attached to a metric. The zero/nil
// value means "no labels".
type Labels map[string]string

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n should be >= 0 for a counter).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

type registered struct {
	name   string
	help   string
	labels string // rendered {k="v",...}, "" when unlabelled
	kind   metricKind

	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// Registry holds named metrics. Get-or-create accessors are keyed by
// (name, labels) so multiple servers can share one registry with a
// `server` label distinguishing their series. All methods are safe for
// concurrent use; reads of metric values are lock-free (the registry
// lock only guards the name table).
type Registry struct {
	mu      sync.Mutex
	byID    map[string]*registered
	ordered []*registered // insertion order, for stable export
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*registered)}
}

// renderLabels produces the canonical `{k="v",...}` form with keys
// sorted, used both as the identity key and in Prometheus output.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the metric registered under (name, labels), creating it
// with mk when absent. Re-registering the same identity with a
// different kind panics: that is a programming error, not a runtime
// condition.
func (r *Registry) get(name, help string, labels Labels, kind metricKind, mk func(*registered)) *registered {
	id := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byID[id]; ok {
		if m.kind != kind {
			panic("obs: metric " + id + " re-registered with a different kind")
		}
		return m
	}
	m := &registered{name: name, help: help, labels: renderLabels(labels), kind: kind}
	mk(m)
	r.byID[id] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter for (name, labels), creating it if
// needed.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.get(name, help, labels, kindCounter, func(m *registered) { m.counter = &Counter{} }).counter
}

// GaugeFunc registers fn as the source for (name, labels); fn is
// called at snapshot/export time, so existing atomic counters can be
// surfaced with zero hot-path cost. Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	m := r.get(name, help, labels, kindGaugeFunc, func(m *registered) {})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram for (name, labels), creating it if
// needed. Histograms record int64 values (nanoseconds by convention
// for names ending in _seconds, raw counts otherwise).
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.get(name, help, labels, kindHistogram, func(m *registered) { m.hist = &Histogram{} }).hist
}

// Metric is one exported time series in a Snapshot. Exactly one of
// Value / Hist is meaningful, per Kind.
type Metric struct {
	Name   string
	Labels string // canonical {k="v",...} or ""
	Kind   string // "counter", "gauge", "histogram"
	Value  float64
	Hist   HistSnapshot
}

// Snapshot returns every registered metric with its current value, in
// registration order. Values are read in one pass, so series derived
// from the same atomics are as consistent as individually-atomic reads
// allow.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	metrics := make([]*registered, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()

	out := make([]Metric, 0, len(metrics))
	for _, m := range metrics {
		e := Metric{Name: m.name, Labels: m.labels}
		switch m.kind {
		case kindCounter:
			e.Kind = "counter"
			e.Value = float64(m.counter.Load())
		case kindGaugeFunc:
			e.Kind = "gauge"
			if m.fn != nil {
				e.Value = m.fn()
			}
		case kindHistogram:
			e.Kind = "histogram"
			e.Hist = m.hist.Snapshot()
		}
		out = append(out, e)
	}
	return out
}

// secondsScaled reports whether series name carries nanosecond values
// that should be exported as seconds (Prometheus base-unit
// convention).
func secondsScaled(name string) bool { return strings.HasSuffix(name, "_seconds") }

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histograms whose names end in _seconds were
// recorded in nanoseconds and are scaled to seconds on the way out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*registered, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()

	typed := make(map[string]bool)
	header := func(m *registered, typ string) {
		if typed[m.name] {
			return
		}
		typed[m.name] = true
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ)
	}
	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			header(m, "counter")
			fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.counter.Load())
		case kindGaugeFunc:
			header(m, "gauge")
			var v float64
			if m.fn != nil {
				v = m.fn()
			}
			fmt.Fprintf(w, "%s%s %g\n", m.name, m.labels, v)
		case kindHistogram:
			header(m, "histogram")
			snap := m.hist.Snapshot()
			scale := 1.0
			if secondsScaled(m.name) {
				scale = 1e-9
			}
			for _, b := range snap.Buckets {
				fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", fmt.Sprintf("%g", float64(b.Upper)*scale)), b.Count)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", "+Inf"), snap.Count)
			fmt.Fprintf(w, "%s_sum%s %g\n", m.name, m.labels, float64(snap.Sum)*scale)
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, snap.Count)
		}
	}
	return nil
}

// withLabel splices one extra label pair into an already-rendered
// label set.
func withLabel(rendered, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}
