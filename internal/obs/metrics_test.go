package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "ops", Labels{"server": "ts00", "op": "put"})
	b := r.Counter("ops_total", "ops", Labels{"op": "put", "server": "ts00"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter regardless of map order")
	}
	c := r.Counter("ops_total", "ops", Labels{"server": "ts01", "op": "put"})
	if a == c {
		t.Fatal("different labels must be distinct series")
	}
	a.Add(3)
	c.Inc()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 series, got %d", len(snap))
	}
	if snap[0].Value != 3 || snap[1].Value != 1 {
		t.Fatalf("snapshot values wrong: %+v", snap)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram must panic")
		}
	}()
	r.Histogram("x", "", nil)
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("logbase_writes_total", "total writes", Labels{"server": "ts00"}).Add(7)
	r.GaugeFunc("logbase_garbage_ratio", "garbage fraction", nil, func() float64 { return 0.25 })
	h := r.Histogram("logbase_op_duration_seconds", "op latency", Labels{"op": "put"})
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE logbase_writes_total counter",
		`logbase_writes_total{server="ts00"} 7`,
		"# TYPE logbase_garbage_ratio gauge",
		"logbase_garbage_ratio 0.25",
		"# TYPE logbase_op_duration_seconds histogram",
		`logbase_op_duration_seconds_count{op="put"} 2`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Duration histograms are recorded in ns but exported in seconds:
	// the sum of 1ms + 2ms must show as 0.003.
	if !strings.Contains(out, `logbase_op_duration_seconds_sum{op="put"} 0.003`) {
		t.Errorf("histogram sum not scaled to seconds:\n%s", out)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(5)
	h.Observe(time.Second)
	if c.Load() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}
