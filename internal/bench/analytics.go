package bench

// Analytic-scan experiment: the HTAP read path added on top of the
// paper's engine. It measures (a) the speedup of the snapshot-parallel
// aggregate scan over the serial log-order FullScan the paper evaluates
// in §4.4, and (b) snapshot consistency under a concurrent write
// stream — the LogBase claim that analytics over the multiversion log
// needs no copy and takes no locks.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// analyticValue encodes row i as a parseable decimal of roughly
// ValueSize bytes ("<i mod 1000>.000...0"), so SUM/AVG have real work.
func analyticValue(i, size int) []byte {
	pad := size - 8
	if pad < 1 {
		pad = 1
	}
	return []byte(fmt.Sprintf("%d.%0*d", i%1000, pad, 0))
}

// AnalyticScan reproduces the analytic read path comparison: serial
// FullScan (log order, one pass over every record) vs the
// snapshot-parallel aggregation pipeline at 1..Workers workers, plus an
// HTAP row running the same aggregate while a writer keeps committing.
func AnalyticScan(s Scale) (Table, error) {
	t := Table{
		ID:     "analytic-scan",
		Title:  "Analytic scan: serial FullScan vs snapshot-parallel aggregate",
		Header: []string{"mode", "wall ms", "disk ms", "rows", "sum", "speedup"},
		Shape:  "all modes agree on the aggregate; the pinned snapshot is immune to concurrent writes",
	}
	dir, err := tempDir("analytic")
	if err != nil {
		return t, err
	}
	fx, err := newFixture(dir)
	if err != nil {
		return t, err
	}
	srv, err := fx.newLogBase(int64(s.Rows) * int64(s.ValueSize) / 4)
	if err != nil {
		return t, err
	}
	n := s.Rows
	for i := 0; i < n; i++ {
		if err := srv.Write(benchTabletID, benchGroup, key(i), int64(i+1), analyticValue(i, s.ValueSize)); err != nil {
			return t, err
		}
	}
	// Overwrite a tenth so the log carries stale versions the FullScan
	// must wade through and the index must hide.
	for i := 0; i < n; i += 10 {
		if err := srv.Write(benchTabletID, benchGroup, key(i), int64(n+i+1), analyticValue(i, s.ValueSize)); err != nil {
			return t, err
		}
	}
	ts := int64(2*n + 1)

	type measure struct {
		rows int64
		sum  float64
	}
	agree := true
	var ref measure
	var serialWall time.Duration
	record := func(mode string, wall, disk time.Duration, m measure, first bool) {
		speedup := "1.00x"
		if !first && wall > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(serialWall)/float64(wall))
		}
		t.Rows = append(t.Rows, []string{
			mode, ms(wall), ms(disk),
			fmt.Sprintf("%d", m.rows), fmt.Sprintf("%.0f", m.sum), speedup,
		})
		if first {
			ref = m
			serialWall = wall
		} else if m.rows != ref.rows || m.sum != ref.sum {
			agree = false
		}
	}

	// Serial baseline: the paper's batch-analytics path.
	var fs measure
	wall, disk, err := fx.timed(func() error {
		return srv.FullScan(context.Background(), benchTabletID, benchGroup, func(r core.Row) bool {
			fs.rows++
			if v, ok := query.Number(r.Value); ok {
				fs.sum += v
			}
			return true
		})
	})
	if err != nil {
		return t, err
	}
	record("fullscan serial", wall, disk, fs, true)

	// The statement executor's partial strategy as a tablet server runs
	// it: the aggregation kernel inside ParallelScan's emit.
	fold := query.Fold{Aggs: []query.AggSpec{{Kind: query.Sum, Expr: query.ValExpr()}}}
	run := func(workers int) (res query.Result, wall, disk time.Duration, err error) {
		fold.Workers = workers
		wall, disk, err = fx.timed(func() error {
			var rerr error
			res, rerr = query.FoldScan(context.Background(), srv, []string{benchTabletID}, benchGroup, ts, query.RelFilter{}, fold)
			return rerr
		})
		return res, wall, disk, err
	}
	for _, workers := range []int{1, s.Workers} {
		res, wall, disk, err := run(workers)
		if err != nil {
			return t, err
		}
		record(fmt.Sprintf("snapshot scan x%d", workers), wall, disk,
			measure{res.Rows, res.Value(0, query.Sum)}, false)
	}

	// HTAP row: same aggregate with a concurrent writer hammering the
	// table. The pinned snapshot must return the exact same answer.
	stop := make(chan struct{})
	var writes atomic.Int64
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.Write(benchTabletID, benchGroup, key(i%n), ts+int64(i+1), analyticValue(i+7, s.ValueSize)); err != nil {
				return
			}
			writes.Add(1)
		}
	}()
	res, wall, disk, err := run(s.Workers)
	close(stop)
	if err != nil {
		return t, err
	}
	record(fmt.Sprintf("snapshot under %d writes", writes.Load()), wall, disk,
		measure{res.Rows, res.Value(0, query.Sum)}, false)

	t.Hold = agree
	return t, nil
}

// AnalyticScanMix is the YCSB-style scan-heavy mix (workload E shape:
// 95% short range scans, 5% inserts): the same operation stream is run
// once with scans on the serial key-ordered Scan path and once on the
// snapshot-parallel path, so the mix throughput difference isolates the
// executor.
func AnalyticScanMix(s Scale) (Table, error) {
	t := Table{
		ID:     "analytic-mix",
		Title:  "Scan-heavy mix (95% range scans of 100 rows, 5% inserts)",
		Header: []string{"scan path", "ops", "wall ms", "disk ms", "ops/s"},
		Shape:  "both paths complete the mix; rows scanned agree",
	}
	run := func(parallel bool) (time.Duration, time.Duration, int64, error) {
		dir, err := tempDir("analytic-mix")
		if err != nil {
			return 0, 0, 0, err
		}
		fx, err := newFixture(dir)
		if err != nil {
			return 0, 0, 0, err
		}
		srv, err := fx.newLogBase(int64(s.Rows) * int64(s.ValueSize) / 8)
		if err != nil {
			return 0, 0, 0, err
		}
		n := s.Rows
		for i := 0; i < n; i++ {
			if err := srv.Write(benchTabletID, benchGroup, key(i), int64(i+1), analyticValue(i, s.ValueSize)); err != nil {
				return 0, 0, 0, err
			}
		}
		next := n
		var scanned int64
		wall, disk, err := fx.timed(func() error {
			for op := 0; op < s.Ops; op++ {
				if op%20 == 19 { // 5% inserts
					if err := srv.Write(benchTabletID, benchGroup, key(next), int64(next+1), analyticValue(next, s.ValueSize)); err != nil {
						return err
					}
					next++
					continue
				}
				start := (op * 7919) % (n - 100)
				lo, hi := key(start), key(start+100)
				ts := int64(next + 1)
				if parallel {
					err := srv.ParallelScan(context.Background(), benchTabletID, benchGroup, core.ScanOptions{
						Start: lo, End: hi, TS: ts, Workers: s.Workers,
					}, func(rows []core.Row) error {
						scanned += int64(len(rows))
						return nil
					})
					if err != nil {
						return err
					}
				} else {
					err := srv.Scan(context.Background(), benchTabletID, benchGroup, lo, hi, ts, func(core.Row) bool {
						scanned++
						return true
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		})
		return wall, disk, scanned, err
	}

	var counts [2]int64
	for i, parallel := range []bool{false, true} {
		wall, disk, scanned, err := run(parallel)
		if err != nil {
			return t, err
		}
		counts[i] = scanned
		mode := "serial Scan"
		if parallel {
			mode = fmt.Sprintf("ParallelScan x%d", s.Workers)
		}
		opsPerSec := float64(s.Ops) / wall.Seconds()
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprintf("%d", s.Ops), ms(wall), ms(disk), fmt.Sprintf("%.0f", opsPerSec),
		})
	}
	t.Hold = counts[0] == counts[1] && counts[0] > 0
	return t, nil
}
