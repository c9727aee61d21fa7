package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	var got []string
	tr := &Tracer{Sink: func(s string) { got = append(got, s) }}

	ctx, root := tr.Root(context.Background(), "scan")
	if root == nil {
		t.Fatal("tracer with sink must mint a root span")
	}
	root.Label("table", "t")
	cctx, child := StartSpan(ctx, "tablet.scan")
	child.Label("server", "ts00")
	_, grand := StartSpan(cctx, "wal.readbatch")
	grand.LabelInt("entries", 12)
	grand.Finish()
	child.Finish()
	root.Finish()

	if len(got) != 1 {
		t.Fatalf("threshold 0 must emit every trace, got %d", len(got))
	}
	tree := got[0]
	for _, want := range []string{"slowop", "scan", "table=t", "\n  tablet.scan", "server=ts00", "\n    wal.readbatch", "entries=12"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.HasPrefix(tree, "trace=") {
		t.Errorf("tree must lead with the trace id: %q", tree)
	}
}

func TestTraceThresholdFilters(t *testing.T) {
	emitted := 0
	tr := &Tracer{Threshold: time.Hour, Sink: func(string) { emitted++ }}
	_, root := tr.Root(context.Background(), "fast")
	root.Finish()
	if emitted != 0 {
		t.Fatal("sub-threshold op must not hit the slow-op log")
	}
	if strings.Contains(root.Render(), " dur=0s") {
		t.Fatal("finished span must have a duration")
	}
}

func TestTraceDisabled(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.Root(context.Background(), "x")
	if root != nil {
		t.Fatal("nil tracer must not mint spans")
	}
	if FromContext(ctx) != nil {
		t.Fatal("no span should be stored")
	}
	// Child helpers and span methods must be no-ops on nil.
	cctx, child := StartSpan(ctx, "child")
	if child != nil || FromContext(cctx) != nil {
		t.Fatal("StartSpan without an active span must return nil")
	}
	child.Label("k", "v")
	child.Finish()

	enabled := &Tracer{} // no sink
	if _, s := enabled.Root(ctx, "x"); s != nil {
		t.Fatal("tracer without a sink must not mint spans")
	}
}

// Scatter-gather attaches children from many goroutines at once.
func TestTraceConcurrentChildren(t *testing.T) {
	var trees []string
	tr := &Tracer{Sink: func(s string) { trees = append(trees, s) }}
	ctx, root := tr.Root(context.Background(), "fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, "branch")
			sp.Label("k", "v")
			sp.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if len(trees) != 1 || strings.Count(trees[0], "branch") != 16 {
		t.Fatalf("want one tree with 16 branches:\n%v", trees)
	}
}

func TestTraceSlowOpCounter(t *testing.T) {
	var c Counter
	tr := &Tracer{Sink: func(string) {}, SlowOps: &c}
	_, root := tr.Root(context.Background(), "op")
	root.Finish()
	if c.Load() != 1 {
		t.Fatalf("slow-op counter = %d, want 1", c.Load())
	}
}
