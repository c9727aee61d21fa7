package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// serverForTest builds cmd/logbase-server once per test binary.
func serverForTest(t *testing.T) string {
	t.Helper()
	bin, err := buildServer(t.TempDir())
	if err != nil {
		t.Fatalf("build server: %v", err)
	}
	return bin
}

func tinyCfg(t *testing.T, server string) *runCfg {
	return &runCfg{seed: 1, seconds: 0, tiny: true, serverBin: server, tmp: t.TempDir()}
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport fails unless rep holds a finite, non-zero-where-gated
// value for every metric of its catalogue and nothing else.
func checkReport(t *testing.T, rep *report, gated bool) map[string]float64 {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: %d of %d checks failed", rep.workload, rep.failed, rep.attempted)
	}
	known := defsByName(rep.defs)
	for name := range rep.samples {
		if _, ok := known[name]; !ok {
			t.Errorf("%s: metric %q is not in the catalogue", rep.workload, name)
		}
	}
	vals := map[string]float64{}
	for _, d := range rep.defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		v, _, ok := rep.value(d)
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rep.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", rep.workload, d.name, v)
		case gated && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", rep.workload, d.name, v)
		}
		vals[d.name] = v
	}
	return vals
}

// TestSmoke runs every workload end to end at tiny scale, twice on the
// same seed: every end-to-end metric is emitted and no other, nothing
// fails, and the byte-count ratios repeat bit for bit.
func TestSmoke(t *testing.T) {
	server := serverForTest(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				rep, err := w.run(tinyCfg(t, server))
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = checkReport(t, rep, true)
			}
			for _, name := range []string{"write_amp", "space_amp"} {
				if runs[0][name] != runs[1][name] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, runs[0][name], runs[1][name])
				}
			}
		})
	}
}

// TestSmokeTrace runs the layer ladder at tiny scale: every per-layer
// metric is emitted, the span file parses and links rungs, and the
// modelled-disk counts repeat bit for bit.
func TestSmokeTrace(t *testing.T) {
	server := serverForTest(t)
	exact := []string{"simdisk.write_ops_per_op", "simdisk.bytes_written_per_op",
		"simdisk.read_ops_per_op", "simdisk.bytes_read_per_op"}
	// Which access follows which decides seeks and so modelled time; the
	// aggregate queries of scan-mixed read from two worker goroutines.
	ordered := []string{"simdisk.disk_us_per_op", "simdisk.seeks_per_op"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			var runs [2]map[string]float64
			for i := range runs {
				rep, err := runLadder(&w, tinyCfg(t, server), out)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = checkReport(t, rep, false)
			}
			// Two clients and a group-commit timer make wire-oltp's disk
			// counts depend on scheduling; one client's are exact.
			if w.name != "wire-oltp" {
				names := exact
				if w.name != "scan-mixed" {
					names = append(names, ordered...)
				}
				for _, name := range names {
					if runs[0][name] != runs[1][name] {
						t.Errorf("%s differs between two runs of one seed: %v vs %v", name, runs[0][name], runs[1][name])
					}
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			linked := 0
			for i, s := range file.Spans {
				if s.EndNS < s.StartNS || s.Parent >= i {
					t.Fatalf("span %d: %+v", i, s)
				}
				if s.Parent >= 0 {
					if p := file.Spans[s.Parent]; p.Op != s.Op || p.Rung == s.Rung {
						t.Fatalf("span %d (%s op %d) has parent %s op %d", i, s.Rung, s.Op, p.Rung, p.Op)
					}
					linked++
				}
			}
			if linked == 0 {
				t.Error("no span names a parent")
			}
		})
	}
}

// TestCorruptOracleFails is the checker's own test: one falsified
// oracle entry must surface as failed checks on every workload.
func TestCorruptOracleFails(t *testing.T) {
	server := serverForTest(t)
	for _, w := range workloads {
		cfg := tinyCfg(t, server)
		cfg.corrupt = true
		rep, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: a corrupted oracle entry went unnoticed", w.name)
		}
	}
	failLogged.Store(0)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the Go catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d: %+v, want %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v, want %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}
