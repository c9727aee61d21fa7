package main

import "testing"

// TestJudgeBothWays: the A/A rule must flag two sets whose medians differ
// by more than the bound whichever of them is the worse, for metrics
// where lower is better and where higher is.
func TestJudgeBothWays(t *testing.T) {
	slow := []float64{1.30, 1.31, 1.32, 1.33, 1.34}
	fast := []float64{1.00, 1.01, 1.02, 1.03, 1.04}
	for _, d := range []metricDef{
		{name: "write_p50_us", bound: 0.25},
		{name: "ops_per_s", higher: true, bound: 0.25},
		{name: "setup_s", bound: 0.25},
	} {
		ab, ba := judge(d, fast, slow), judge(d, slow, fast)
		if !ab.miss || !ba.miss {
			t.Errorf("%s: medians 29%% apart, bound 25%%: miss=%v with B worse, %v with A worse", d.name, ab.miss, ba.miss)
		}
		if ab.diff != -ba.diff || ab.diff == 0 {
			t.Errorf("%s: diff %v one way, %v the other", d.name, ab.diff, ba.diff)
		}
		// B holds the larger values: the worse set unless higher is better.
		if (ab.diff > 0) == d.higher {
			t.Errorf("%s: diff %+v names the wrong set as the worse", d.name, ab.diff)
		}
	}
	near := []float64{1.10, 1.11, 1.12, 1.13, 1.14}
	if v := judge(metricDef{name: "write_p50_us", bound: 0.25}, fast, near); v.miss {
		t.Errorf("medians 10%% apart, bound 25%%: %+v", v)
	}
}

// TestJudgeSpread: a set that spreads by more than the bound misses even
// when the medians agree, except for setup_s.
func TestJudgeSpread(t *testing.T) {
	wide := []float64{0.6, 0.8, 1.0, 1.2, 1.4}
	tight := []float64{0.98, 0.99, 1.0, 1.01, 1.02}
	if v := judge(metricDef{name: "read_p50_us", bound: 0.25}, tight, wide); !v.miss {
		t.Errorf("a set with an 80%% interquartile spread passed: %+v", v)
	}
	if v := judge(metricDef{name: "setup_s", bound: 0.25}, tight, wide); v.miss {
		t.Errorf("setup_s is gated on its medians only: %+v", v)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
