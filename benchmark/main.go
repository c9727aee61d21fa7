// Command benchmark is this repository's benchmark of record: four
// workloads against the unmodified program, every reply checked against
// an oracle, end-to-end metrics from an untraced run and per-layer
// metrics from a traced replay of the same op streams down the layer
// stack. See README.md in this directory.
//
//	benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "seed of the op streams")
		seconds   = flag.Float64("seconds", runSeconds, "time budget of the measured rounds")
		trace     = flag.Int("trace", 0, "1 = traced layer-ladder run (per-layer metrics), 0 = end-to-end run")
		scale     = flag.String("scale", "full", "full, or tiny (the smoke test's sizes)")
		serverBin = flag.String("server", "", "path of a built cmd/logbase-server (default: go build it)")
		outDir    = flag.String("out", ".bench_build", "directory for trace-<workload>.json")
		aa        = flag.Int("aa", 0, "A/A calibration: run two sets of k runs of every workload and compare their medians")
		corrupt   = flag.Bool("corrupt-oracle", false, "falsify one oracle entry; the run must then fail (self-test)")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	)
	flag.BoolVar(&verbose, "v", false, "print every sample behind each metric")
	flag.Parse()
	if *manifest {
		printManifest()
		return
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *serverBin))
	}
	cfg := &runCfg{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", serverBin: *serverBin, corrupt: *corrupt}
	os.Exit(run(*name, *trace != 0, *outDir, cfg))
}

// run executes one workload (or all) under cfg and prints its result
// line; it returns the process's exit code.
func run(name string, traced bool, outDir string, cfg *runCfg) int {
	tmp, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	run, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cleanup := func() { os.RemoveAll(run) }
	defer cleanup()
	// Data dirs and the server die with us on a signal too (the server
	// also carries a parent-death signal, see startServer).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	cfg.tmp = run
	if cfg.serverBin == "" {
		if cfg.serverBin, err = buildServer(run); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	cfg.place = placeSelf()
	fmt.Printf("env: %s %s/%s GOMAXPROCS=%d nproc=%d kernel=%s placement: %s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), kernelRelease(), cfg.place)

	var todo []*workload
	if name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	code := 0
	for _, w := range todo {
		fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds, traced)
		var rep *report
		if traced {
			rep, err = runLadder(w, cfg, outDir)
		} else {
			rep, err = w.run(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		rep.print(os.Stdout)
		out := resultOut{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
		out.Correct = rep.failed == 0 && rep.attempted > 0
		for _, d := range rep.defs {
			v, _, ok := rep.value(d)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", w.name, d.name)
				out.Correct = false
				continue
			}
			out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		}
		if !out.Correct {
			code = 1
		}
		line, _ := json.Marshal(out)
		fmt.Println(string(line))
	}
	return code
}

// buildServer compiles cmd/logbase-server from the enclosing module
// into dir. Build time is never part of setup_s.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "logbase-server")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/logbase-server")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build logbase-server: %w", err)
	}
	return bin, nil
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return string(b[:max(0, len(b)-1)])
}

// runSeconds is BENCHMARK.json's run_seconds: the budget of the
// measured rounds of one run.
const runSeconds = 15

// printManifest renders BENCHMARK.json from the Go catalogue, so the
// two cannot drift (TestBenchmarkJSON checks the checked-in copy).
func printManifest() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	var out struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	out.Command = []string{"bash", "benchmark/run.sh"}
	out.Paths = []string{"benchmark"}
	out.RunSeconds = runSeconds
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{d.name, d.unit, better(d), d.bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.name, d.unit, better(d)})
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
}

// scratchRoot is where data dirs and build outputs go: inside the
// checkout, never the system temp dir.
func scratchRoot() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
