package main

// The metric catalogue — the Go-side twin of BENCHMARK.json (the smoke
// test keeps the two in step) — and the per-run accumulator that turns
// per-round samples into one reported value per metric.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which are not gated).
	bound float64
	// pick says how a run's samples collapse into its reported value.
	pick pickKind
}

type pickKind uint8

const (
	// pickBest reports the best sample (lowest time, highest rate):
	// noise on a shared machine only ever adds time.
	pickBest pickKind = iota
	// pickMedian reports the median sample (set-up time, counts).
	pickMedian
)

// endToEnd is every metric a user of the system would see. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, pickMedian},
	{"ops_per_s", "1/s", true, 0.25, pickBest},
	{"write_p50_us", "us", false, 0.25, pickBest},
	{"read_p50_us", "us", false, 0.25, pickBest},
	{"scan_rows_per_s", "1/s", true, 0.25, pickBest},
	{"write_amp", "ratio", false, 0.02, pickMedian},
	{"space_amp", "ratio", false, 0.05, pickMedian},
	{"recover_s", "s", false, 0.25, pickBest},
}

// verbose makes print list every sample behind each metric.
var verbose bool

// report accumulates one run's samples.
type report struct {
	workload  string
	defs      []metricDef
	samples   map[string][]float64
	counts    map[string]int // observations behind each sample (e.g. latencies per round)
	attempted int
	failed    int
	notes     []string
	// measured is the wall time of the measured rounds, stolen how much of
	// it the hypervisor kept this guest's CPUs waiting (see stolenTime).
	measured, stolen time.Duration
}

func newReport(workload string, defs []metricDef) *report {
	return &report{workload: workload, defs: defs,
		samples: map[string][]float64{}, counts: map[string]int{}}
}

// add records one sample of a metric, backed by n observations.
func (r *report) add(name string, v float64, n int) {
	r.samples[name] = append(r.samples[name], v)
	r.counts[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// value collapses a metric's samples per its definition; ok is false
// when the workload recorded none.
func (r *report) value(d metricDef) (v, spread float64, ok bool) {
	s := append([]float64(nil), r.samples[d.name]...)
	if len(s) == 0 {
		return 0, 0, false
	}
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if lo > 0 {
		spread = hi/lo - 1
	}
	switch {
	case d.pick == pickMedian:
		v = median(s)
	case d.higher:
		v = hi
	default:
		v = lo
	}
	return v, spread, true
}

// print writes one human-readable line per metric: value, unit, how it
// was picked, the spread across samples, and the sample counts.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		v, spread, ok := r.value(d)
		if !ok {
			fmt.Fprintf(w, "%-34s MISSING\n", d.name)
			continue
		}
		pick := "best"
		if d.pick == pickMedian {
			pick = "median"
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s %s of %d samples, spread %.1f%%, n=%d each\n",
			d.name, v, d.unit, pick, len(r.samples[d.name]), 100*spread, r.counts[d.name])
		if verbose {
			fmt.Fprintf(w, "    samples: %.4g\n", r.samples[d.name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	if r.measured > 0 {
		// A run whose rounds lost more than a few percent to the hypervisor
		// measured the host's hour, not the program (see CALIBRATION.md).
		fmt.Fprintf(w, "stolen: %.0f ms of %.3f s measured (%.2f%%)\n", float64(r.stolen.Milliseconds()),
			r.measured.Seconds(), 100*r.stolen.Seconds()/r.measured.Seconds())
	}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of ns latencies in µs,
// sorting lat in place.
func percentileUS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(q * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return float64(lat[i]) / 1e3
}
