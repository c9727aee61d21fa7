package bench

// Key-operation measurements for the CI perf-regression gate
// (cmd/benchgate). Every number the gate compares is MODELLED disk time
// from the simdisk virtual clock: deterministic for a given code path
// (single-threaded drivers, group commit off), so a >30% delta against
// the checked-in baseline is a real I/O-path regression, not runner
// noise. Wall times ride along for humans but are never gated.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/simdisk"
	"repro/internal/ycsb"
)

// KeyOp is one gated measurement.
type KeyOp struct {
	Name string `json:"name"`
	Ops  int64  `json:"ops"`
	// DiskUSPerOp is modelled disk microseconds per operation — the
	// gated, machine-independent number.
	DiskUSPerOp float64 `json:"disk_us_per_op"`
	// WallUSPerOp is informational only.
	WallUSPerOp float64 `json:"wall_us_per_op"`
	// RowsShipped counts the rows the tablet servers fetched from the
	// log to serve the op (the scan-pushdown experiments; 0 elsewhere).
	// Deterministic, and gated alongside the disk number.
	RowsShipped int64 `json:"rows_shipped,omitempty"`
	// AllocsPerOp / BytesPerOp are heap allocations per operation
	// (runtime.MemStats deltas across the measured run). Like wall
	// time they are informational — recorded in BENCH_results.json so
	// allocation regressions show up in CI artifacts, never gated.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// allocMeter samples runtime.MemStats around a measured run so every
// KeyOp carries allocations-per-op alongside its timing numbers.
type allocMeter struct{ m0 runtime.MemStats }

func startAllocMeter() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.m0)
	return a
}

// perOp returns (allocs/op, bytes/op) since the meter started.
func (a *allocMeter) perOp(ops int64) (allocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-a.m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-a.m0.TotalAlloc) / float64(ops)
}

// newKeyOpsCluster builds the deterministic fixture: modelled disks,
// group commit off (batch composition depends on scheduling), driven
// single-threaded by the callers.
func newKeyOpsCluster(n int) (*cluster.Cluster, string, error) {
	dir, err := tempDir("keyops")
	if err != nil {
		return nil, "", err
	}
	c, err := cluster.New(dir, cluster.Config{
		NumServers: n,
		Tables:     []cluster.TableSpec{{Name: "usertable", Groups: []string{"f0"}}},
		Server:     core.Config{SegmentSize: 16 << 20},
		DFS:        dfs.Config{BlockSize: 4 << 20, DiskModel: benchDiskModel(), Clock: &simdisk.Clock{}},
	})
	return c, dir, err
}

// KeyOps measures the gated operations at the given scale: Put,
// WriteBatch, FullScan, Query, and the elastic hot-range scenario.
func KeyOps(s Scale) ([]KeyOp, error) {
	var out []KeyOp
	measure := func(name string, c *cluster.Cluster, ops int64, fn func() error) error {
		c.Clock().Reset()
		am := startAllocMeter()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		wall := time.Since(start)
		allocs, bytes := am.perOp(ops)
		disk := c.Clock().Elapsed()
		out = append(out, KeyOp{
			Name:        name,
			Ops:         ops,
			DiskUSPerOp: float64(disk) / float64(time.Microsecond) / float64(ops),
			WallUSPerOp: float64(wall) / float64(time.Microsecond) / float64(ops),
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
		})
		return nil
	}

	c, dir, err := newKeyOpsCluster(2)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	st := logbase.NewClusterClient(c)
	ctx := context.Background()
	n := int64(s.Rows)
	val := value(s.ValueSize, 7)

	// Put: per-record writes, the OLTP hot path.
	if err := measure("put", c, n, func() error {
		for i := int64(0); i < n; i++ {
			if err := st.Put(ctx, "usertable", "f0", ycsb.Key(i), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// WriteBatch: the bulk-load append sweep, fresh key range.
	if err := measure("writebatch", c, n, func() error {
		b := st.Batch()
		for i := int64(0); i < n; i++ {
			b.Put("usertable", "f0", ycsb.Key(n+i), val)
			if b.Len() >= 1024 {
				if err := b.Flush(ctx); err != nil {
					return err
				}
			}
		}
		return b.Flush(ctx)
	}); err != nil {
		return nil, err
	}

	// FullScan: the batch-analytics read path over both key ranges.
	if err := measure("fullscan", c, 2*n, func() error {
		it := st.FullScan(ctx, "usertable", "f0")
		defer it.Close()
		rows := int64(0)
		for it.Next() {
			rows++
		}
		if err := it.Err(); err != nil {
			return err
		}
		if rows != 2*n {
			return fmt.Errorf("fullscan saw %d rows, want %d", rows, 2*n)
		}
		return it.Close()
	}); err != nil {
		return nil, err
	}

	// Query: snapshot-parallel COUNT, single worker for determinism.
	if err := measure("query", c, 2*n, func() error {
		stmt := logbase.Q("usertable").Group("f0").Agg(logbase.Count)
		stmt.Workers = 1
		res, err := st.Exec(ctx, stmt)
		if err != nil {
			return err
		}
		if res.Rows != 2*n {
			return fmt.Errorf("query counted %d rows, want %d", res.Rows, 2*n)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Scan push-down vs client-side filtering over the same loaded
	// rows: the data-movement experiment the read API redesign is
	// gated on.
	scanOps, err := ScanPushdownKeyOps(c, "usertable", "f0")
	if err != nil {
		return nil, err
	}
	out = append(out, scanOps...)

	// Clustered scan fast path vs the index-driven path on a fully
	// compacted log (asserts the >=2x modelled-disk win), plus the
	// autocompact churn (asserts SortedFraction >= 0.5 with only the
	// background compactor running).
	clusterOps, err := ScanClusteredKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, clusterOps...)
	acOps, _, err := AutoCompactKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, acOps...)

	// Observability overhead: instrumented vs disabled Put/Scan must
	// agree on modelled disk cost within 5%.
	obsOps, err := ObsOverheadKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, obsOps...)

	// Fault-injection overhead: a wired-but-disarmed registry vs nil
	// must agree on modelled disk cost within 5%.
	faultOps, err := FaultOverheadKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, faultOps...)

	// Join planner: greedy order + broadcast push-down vs the
	// worst-order naive nested-loop plan on a three-table join (asserts
	// the >=2x modelled-disk win and identical results).
	joinOps, err := JoinKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, joinOps...)

	// Changefeed: catch-up sweep cost plus the live-tail ceiling (a
	// subscribed feed must add ~zero modelled disk over bare writes).
	cdcOps, err := CDCTailKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, cdcOps...)

	// Read replicas: catch-up sweep, the live-shipping ceiling on the
	// write path, and the scan pair (pinned scan on the replica must
	// charge the primary zero modelled disk).
	repOps, err := ReplicaKeyOps(s)
	if err != nil {
		return nil, err
	}
	out = append(out, repOps...)

	// Hot-range elastic scenario: skewed single-threaded workload with
	// deterministic balancer ticks, measuring the post-rebalance phase.
	hr, err := hotRangeKeyOp(s)
	if err != nil {
		return nil, err
	}
	out = append(out, hr)
	return out, nil
}

func hotRangeKeyOp(s Scale) (KeyOp, error) {
	c, dir, err := newKeyOpsCluster(2)
	if err != nil {
		return KeyOp{}, err
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	st := logbase.NewClusterClient(c)
	db := &StoreDB{St: st, Table: "usertable", Group: "f0"}
	records := int64(s.Rows)
	if _, err := ycsb.Load(db, records, s.ValueSize, 1, 1); err != nil {
		return KeyOp{}, err
	}
	b := c.StartBalancer(cluster.BalancerConfig{Interval: time.Hour, MinOps: 64, Cooldown: 2})
	defer b.Stop()
	w := hotRangeWorkload(records, s.ValueSize)
	ops := int64(s.Ops)
	for round := 0; round < 8; round++ {
		if _, err := ycsb.Run(db, w, ops/4, 1, int64(round)); err != nil {
			return KeyOp{}, err
		}
		b.Tick()
	}
	c.Clock().Reset()
	am := startAllocMeter()
	start := time.Now()
	if _, err := ycsb.Run(db, w, ops, 1, 99); err != nil {
		return KeyOp{}, err
	}
	wall := time.Since(start)
	allocs, bytes := am.perOp(ops)
	disk := c.Clock().Elapsed()
	return KeyOp{
		Name:        "hotrange",
		Ops:         ops,
		DiskUSPerOp: float64(disk) / float64(time.Microsecond) / float64(ops),
		WallUSPerOp: float64(wall) / float64(time.Microsecond) / float64(ops),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
	}, nil
}
