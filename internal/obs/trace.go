package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing model: a Tracer mints root spans at Store entry points; the
// span rides the request's context.Context so every layer it passes
// through (cluster scatter-gather, tablet servers, WAL reads) can hang
// child spans and labels off it. When the root finishes, the whole
// tree is rendered and handed to the tracer's sink iff the root took
// at least Threshold — that sink is the slow-op log. With Threshold 0
// every traced op is emitted, which is how tests and ad-hoc debugging
// retrieve complete trees.
//
// Everything is nil-safe: a nil *Tracer mints no spans, a context
// without a span yields nil children, and all *Span methods accept a
// nil receiver. Code instruments unconditionally and pays one pointer
// check when tracing is off.

// Tracer mints trace IDs and receives finished root spans.
type Tracer struct {
	// Threshold is the minimum root-span duration for emission to Sink.
	// Zero emits every completed trace.
	Threshold time.Duration
	// Sink receives one rendered trace tree per slow op. A nil Sink
	// disables tracing entirely (Root returns nil spans).
	Sink func(tree string)

	ids atomic.Uint64
	// SlowOps, when non-nil, counts emitted traces.
	SlowOps *Counter
}

// Span is one timed region of a trace. Fields are written by the
// goroutine that owns the span; children/labels are mutex-guarded so
// scatter-gather fan-out can attach concurrently.
type Span struct {
	tracer  *Tracer
	TraceID uint64
	Name    string
	Start   time.Time

	parent *Span

	mu       sync.Mutex
	dur      time.Duration
	labels   []spanLabel
	children []*Span
}

type spanLabel struct{ k, v string }

type spanCtxKey struct{}

// Root starts a new trace rooted at name and stores it in the returned
// context. Returns (ctx, nil) when the tracer is nil or has no sink.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || t.Sink == nil {
		return ctx, nil
	}
	s := &Span{
		tracer:  t,
		TraceID: t.ids.Add(1),
		Name:    name,
		Start:   time.Now(),
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a
// context carrying the child. With no active span it returns (ctx,
// nil) without allocating — instrumentation points call this
// unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		tracer:  parent.tracer,
		TraceID: parent.TraceID,
		Name:    name,
		Start:   time.Now(),
		parent:  parent,
	}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Label attaches a key=value annotation. Repeated keys are kept in
// order (useful for retry loops).
func (s *Span) Label(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.labels = append(s.labels, spanLabel{k, v})
	s.mu.Unlock()
}

// LabelInt attaches a key=integer annotation.
func (s *Span) LabelInt(k string, v int64) {
	if s == nil {
		return
	}
	s.Label(k, fmt.Sprintf("%d", v))
}

// Finish stamps the span's duration. Finishing a root span renders the
// trace tree and emits it to the tracer sink when the duration is at
// or over the threshold.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	d := time.Since(s.Start)
	s.mu.Lock()
	s.dur = d
	s.mu.Unlock()
	if s.parent != nil || s.tracer == nil {
		return
	}
	if d >= s.tracer.Threshold && s.tracer.Sink != nil {
		s.tracer.SlowOps.Inc()
		s.tracer.Sink(s.Render())
	}
}

// Render formats the span and its descendants as an indented tree, one
// span per line:
//
//	trace=000000000000002a slowop dur=1.2ms scan table=t [tablets=3]
//	  tablet.scan dur=400µs [server=ts01 rows=120]
//	    wal.readbatch dur=90µs [entries=40]
//
// Children are sorted by start time so concurrently-attached tablet
// spans render deterministically.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%016x slowop ", s.TraceID)
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	dur := s.dur
	labels := append([]spanLabel(nil), s.labels...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	if depth > 0 {
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("  ", depth))
	}
	fmt.Fprintf(b, "%s dur=%s", s.Name, dur)
	if len(labels) > 0 {
		b.WriteString(" [")
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(l.k)
			b.WriteByte('=')
			b.WriteString(l.v)
		}
		b.WriteByte(']')
	}
	sort.SliceStable(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	for _, c := range children {
		c.render(b, depth+1)
	}
}
