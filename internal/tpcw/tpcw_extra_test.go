package tpcw

import (
	"context"
	"repro/internal/core"
	"repro/internal/readopt"
	"testing"
)

func TestShoppingMixBetweenBrowsingAndOrdering(t *testing.T) {
	_, st := newCluster(t, 2)
	if err := Load(st, 150, 75, 2); err != nil {
		t.Fatalf("Load: %v", err)
	}
	var tputs [3]float64
	for i, mix := range Mixes {
		res, err := Run(st, mix, 150, 75, 300, 2, int64(i))
		if err != nil {
			t.Fatalf("Run %s: %v", mix.Name, err)
		}
		if res.Txns != 300 {
			t.Errorf("%s completed %d txns", mix.Name, res.Txns)
		}
		tputs[i] = res.Throughput
	}
	// Read-mostly mixes must not be slower than the write-heavy one by
	// a wide margin (the paper's browsing > shopping > ordering trend,
	// asserted loosely against wall-clock noise).
	if tputs[0] < tputs[2]*0.5 {
		t.Errorf("browsing (%v) much slower than ordering (%v)", tputs[0], tputs[2])
	}
}

func TestRunReportsLatency(t *testing.T) {
	_, st := newCluster(t, 2)
	if err := Load(st, 50, 25, 1); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(st, Shopping, 50, 25, 100, 2, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Latency.Count() != 100 {
		t.Errorf("latency samples = %d", res.Latency.Count())
	}
	if res.Latency.Mean() <= 0 {
		t.Error("zero mean latency")
	}
	if p99 := res.Latency.Percentile(0.99); p99 < res.Latency.Percentile(0.5) {
		t.Error("p99 < p50")
	}
}

func TestOrdersAccumulateAcrossRuns(t *testing.T) {
	c, st := newCluster(t, 2)
	if err := Load(st, 60, 30, 1); err != nil {
		t.Fatalf("Load: %v", err)
	}
	count := func() int {
		cl := c.NewClient()
		n := 0
		cl.ScanOpts(context.Background(), "orders", "order", nil, nil, readopt.Options{}, func(r core.Row) bool { n++; return true })
		return n
	}
	if _, err := Run(st, Ordering, 60, 30, 100, 2, 1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	first := count()
	if _, err := Run(st, Ordering, 60, 30, 100, 2, 2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if second := count(); second <= first {
		t.Errorf("orders did not accumulate: %d then %d", first, second)
	}
}
