package main

// A/A calibration: the benchmark judged by its own rules. Two sets of k
// runs of the same code, each run a fresh process on its own seed, as
// the driver does it; for every end-to-end metric of every workload the
// sets' medians must agree within the metric's bound, whichever of the
// two is the worse, and each set's interquartile spread must stay within
// it too.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of vals the way
// Python's statistics.quantiles(vals, n=4) does (exclusive method).
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// iqrShare is the distance between the first and third quartile of vals
// as a share of their median.
func iqrShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(sortedCopy(vals))
}

// verdict is how two sets of runs of one metric compare.
type verdict struct {
	medA, medB float64
	// diff is how far apart the medians are, as a share of the better
	// one; its sign says which set is the worse (positive: B).
	diff       float64
	iqrA, iqrB float64
	iqrBoth    float64
	miss       bool
}

// judge applies the A/A rule to one metric: the medians may not differ by
// more than the bound in either direction, and (except for setup_s, which
// is gated on its medians only) neither set may spread by more than it.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{medA: median(sortedCopy(a)), medB: median(sortedCopy(b)),
		iqrA: iqrShare(a), iqrB: iqrShare(b), iqrBoth: iqrShare(append(append([]float64(nil), a...), b...))}
	lo, hi := min(v.medA, v.medB), max(v.medA, v.medB)
	v.diff = (hi - lo) / lo
	if bWorse := (v.medB > v.medA) != d.higher; !bWorse {
		v.diff = -v.diff
	}
	v.miss = math.Abs(v.diff) > d.bound ||
		d.name != "setup_s" && (v.iqrA > d.bound || v.iqrB > d.bound)
	return v
}

var stolenRE = regexp.MustCompile(`(?m)^stolen: ([0-9.]+) ms of ([0-9.]+) s measured`)

// oneRun executes this binary for one workload and seed and returns its
// final JSON line, and how much of its measured time the hypervisor
// took away (stolen and measured, in seconds).
func oneRun(self, serverBin, workload string, seed int, seconds float64) (res resultOut, stolen, measured float64, err error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", fmt.Sprint(seconds), "-server", serverBin)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if m := stolenRE.FindSubmatch(out); m != nil {
		ms, _ := strconv.ParseFloat(string(m[1]), 64)
		stolen = ms / 1e3
		measured, _ = strconv.ParseFloat(string(m[2]), 64)
	}
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		return res, 0, 0, fmt.Errorf("%s seed %d: no result line (%v, exit %v)", workload, seed, jerr, err)
	}
	if err != nil || !res.Correct {
		return res, 0, 0, fmt.Errorf("%s seed %d: incorrect run (%d of %d failed, exit %v)", workload, seed, res.Failed, res.Attempted, err)
	}
	return res, stolen, measured, nil
}

func runAA(k int, seconds float64, serverBin string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if serverBin == "" {
		tmp, err := scratchRoot()
		if err == nil {
			serverBin, err = buildServer(tmp)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer os.Remove(serverBin)
	}
	// vals[set][workload][metric] = one value per run.
	var vals [2]map[string]map[string][]float64
	var stolen, measured [2]float64
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for i := 1; i <= k; i++ {
			seed := set*k + i
			for _, w := range workloads {
				res, st, ms, err := oneRun(self, serverBin, w.name, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				stolen[set] += st
				measured[set] += ms
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					vals[set][w.name][name] = append(vals[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d/%d %s done (%.0f ms of %.1f s stolen)\n", 'A'+set, i, k, w.name, st*1e3, ms)
			}
		}
	}
	fmt.Printf("A/A: two sets of %d runs, %g s each; diff = distance of the medians as a share of the better one (+: set B is the worse)\n", k, seconds)
	fmt.Printf("%-14s %-16s %14s %14s %8s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "iqr A+B", "bound")
	misses := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := judge(d, vals[0][w.name][d.name], vals[1][w.name][d.name])
			mark := ""
			if v.miss {
				mark = "  MISS"
				misses++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %7.1f%% %6.0f%%%s\n",
				w.name, d.name, v.medA, v.medB, 100*v.diff, 100*v.iqrA, 100*v.iqrB, 100*v.iqrBoth, 100*d.bound, mark)
		}
	}
	for set := range stolen {
		fmt.Printf("set %c: the hypervisor took %.2f s of the %.0f s its rounds measured (%.2f%%)\n",
			'A'+set, stolen[set], measured[set], 100*stolen[set]/max(measured[set], 1e-9))
	}
	if misses > 0 {
		fmt.Printf("A/A: %d misses\n", misses)
		return 1
	}
	fmt.Println("A/A: every metric within its bound")
	return 0
}
