// Command logbase-bench regenerates the tables and figures of the
// LogBase paper's evaluation (§4) against this reproduction.
//
// Usage:
//
//	logbase-bench -list
//	logbase-bench -run fig06            # one experiment
//	logbase-bench -run all              # everything, in paper order
//	logbase-bench -run all -scale 4     # 4x the default workload
//	logbase-bench -run all -md          # markdown: the checked-in EXPERIMENTS.md
//
// Shapes, not absolute numbers, are the reproduction target: each table
// ends with the paper's qualitative claim and whether this run upheld
// it. EXPERIMENTS.md at the repository root is the -run all -md output.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	scaleF := flag.Int("scale", 1, "workload scale factor (1 = default bench scale)")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Desc)
		}
		return
	}

	s := bench.DefaultScale()
	if *scaleF > 1 {
		s.Rows *= *scaleF
		s.Ops *= *scaleF
	}

	exps := bench.All()
	if *run != "all" {
		e, ok := bench.Find(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	if *md {
		fmt.Print(mdHeader)
	}
	failures := 0
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: ERROR: %v\n", e.ID, err)
			failures++
			continue
		}
		if *md {
			fmt.Print(tab.Markdown())
		} else {
			fmt.Println(tab.Render())
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if !tab.Hold {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) errored or missed the paper's shape\n", failures)
		os.Exit(1)
	}
}

// mdHeader opens the markdown output: what the file is and which of its
// numbers a second run reproduces.
const mdHeader = "# Experiments\n\nOutput of `go run ./cmd/logbase-bench -run all -md` at the default scale: " +
	"every experiment's table, the shape it must reproduce, and whether this run held it. " +
	"**Modelled, repeating exactly** wherever one client drives the engine: columns headed \"disk\" (simdisk virtual clock), " +
	"and byte, row, hit, op, split and move counts and sorted fractions (engine counters). " +
	"**Wall time on the host that ran this**: columns headed \"wall\", ops/sec, TPS, Krec/s, events/s and latencies — " +
	"and, in effect, the disk and count columns of the experiments that drive a cluster from concurrent clients " +
	"(fig11-fig16, fig22, abl-group-commit, elastic-hotrange), whose group-commit batches fill as the scheduler allows.\n\n"
