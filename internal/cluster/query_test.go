package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/readopt"
)

func newQueryCluster(t *testing.T, servers int) *Cluster {
	t.Helper()
	c, err := New(t.TempDir(), Config{
		NumServers: servers,
		Tables:     []TableSpec{{Name: "metrics", Groups: []string{"v"}}},
		Server:     core.Config{SegmentSize: 1 << 20},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c
}

func loadMetrics(t *testing.T, c *Cluster, n int) {
	t.Helper()
	cl := c.NewClient()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("m%06d", (i*7919)%n)) // spread across tablets
		if err := cl.Put("metrics", "v", key, []byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
}

// ClusterQuery must return identical aggregates to a serial single-node
// style scan at the same timestamp — the acceptance check for the
// scatter-gather path.
func TestClusterQueryMatchesSerialScan(t *testing.T) {
	c := newQueryCluster(t, 4)
	const n = 2000
	loadMetrics(t, c, n)
	ts := c.Coord().LastTimestamp()

	// Serial reference: ordered scan over every tablet at the same ts.
	var refRows int64
	var refSum float64
	cl := c.NewClient()
	if err := cl.ScanOpts(context.Background(), "metrics", "v", nil, nil, readopt.Options{}, func(r core.Row) bool {
		refRows++
		v, _ := strconv.ParseFloat(string(r.Value), 64)
		refSum += v
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if refRows != n {
		t.Fatalf("reference scan saw %d rows, want %d", refRows, n)
	}

	res, err := c.QueryAt(context.Background(), "metrics", "v", 0, query.Query{
		Aggs:    []query.Agg{{Kind: query.Count}, {Kind: query.Sum, Extract: query.FloatValue}},
		Workers: 4,
	})
	if err != nil {
		t.Fatalf("ClusterQuery: %v", err)
	}
	if res.TS != ts {
		t.Fatalf("res.TS = %d, want %d", res.TS, ts)
	}
	if res.Rows != refRows || res.Value(0, query.Count) != float64(refRows) || res.Value(1, query.Sum) != refSum {
		t.Fatalf("scatter-gather rows=%d sum=%g, serial rows=%d sum=%g",
			res.Rows, res.Value(1, query.Sum), refRows, refSum)
	}
}

func TestClusterQueryAtTimeTravel(t *testing.T) {
	c := newQueryCluster(t, 3)
	loadMetrics(t, c, 600)
	ts := c.Coord().LastTimestamp()

	q := query.Query{Aggs: []query.Agg{{Kind: query.Sum, Extract: query.FloatValue}}}
	before, err := c.QueryAt(context.Background(), "metrics", "v", ts, q)
	if err != nil {
		t.Fatalf("QueryAt: %v", err)
	}

	// Keep writing after the pin; the pinned query must not move.
	cl := c.NewClient()
	for i := 0; i < 200; i++ {
		if err := cl.Put("metrics", "v", []byte(fmt.Sprintf("m%06d", i)), []byte("1000000")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	again, err := c.QueryAt(context.Background(), "metrics", "v", ts, q)
	if err != nil {
		t.Fatalf("QueryAt: %v", err)
	}
	if again.Rows != before.Rows || again.Value(0, query.Sum) != before.Value(0, query.Sum) {
		t.Fatalf("time travel drifted: %v vs %v", again, before)
	}
	now, err := c.QueryAt(context.Background(), "metrics", "v", 0, q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if now.Value(0, query.Sum) <= before.Value(0, query.Sum) {
		t.Fatalf("current query sum %g not greater than pinned %g", now.Value(0, query.Sum), before.Value(0, query.Sum))
	}
}

func TestClusterQueryGroupByAcrossServers(t *testing.T) {
	c := newQueryCluster(t, 3)
	const n = 900
	loadMetrics(t, c, n)
	res, err := c.QueryAt(context.Background(), "metrics", "v", 0, query.Query{
		GroupBy: func(r core.Row) string { return string(r.Key[:2]) }, // "m0".."m8" bucket by leading digit
		Aggs:    []query.Agg{{Kind: query.Count}},
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var total int64
	for _, g := range res.Groups {
		total += g.Rows
	}
	if total != n || res.Rows != n {
		t.Fatalf("group rows total %d, want %d", total, n)
	}
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Key >= res.Groups[i].Key {
			t.Fatalf("groups unsorted: %q >= %q", res.Groups[i-1].Key, res.Groups[i].Key)
		}
	}
}

func TestClusterQueryKeyRangeRouting(t *testing.T) {
	c := newQueryCluster(t, 4)
	const n = 1000
	loadMetrics(t, c, n)
	res, err := c.QueryAt(context.Background(), "metrics", "v", 0, query.Query{
		Filter: query.Filter{Start: []byte("m000100"), End: []byte("m000200")},
		Aggs:   []query.Agg{{Kind: query.Count}},
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rows != 100 {
		t.Fatalf("range query rows = %d, want 100", res.Rows)
	}
}

// A scan pinned at a snapshot sees exactly the rows committed by then,
// across every server, whatever lands afterwards.
func TestClusterSnapshotScan(t *testing.T) {
	c := newQueryCluster(t, 3)
	loadMetrics(t, c, 300)
	pin := c.Coord().LastTimestamp()
	cl := c.NewClient()
	if err := cl.Put("metrics", "v", []byte("zz-late"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	seen := 0
	err := cl.ScanOpts(context.Background(), "metrics", "v", nil, nil, readopt.Options{Snapshot: pin},
		func(core.Row) bool { seen++; return true })
	if err != nil {
		t.Fatalf("pinned ScanOpts: %v", err)
	}
	if seen != 300 {
		t.Fatalf("snapshot scan saw %d rows, want 300", seen)
	}
}

// Group commit enabled on the cluster path: concurrent clients batch
// into shared log writes, and everything they wrote is durable,
// readable, and visible to the analytic path.
func TestClusterGroupCommitPath(t *testing.T) {
	c, err := New(t.TempDir(), Config{
		NumServers: 3,
		Tables:     []TableSpec{{Name: "metrics", Groups: []string{"v"}}},
		Server: core.Config{
			SegmentSize:      1 << 20,
			GroupCommit:      true,
			GroupCommitBatch: 16,
			GroupCommitDelay: 50 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := cl.Put("metrics", "v", key, []byte("1")); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent Put: %v", err)
	}

	cl := c.NewClient()
	for w := 0; w < writers; w++ {
		key := []byte(fmt.Sprintf("w%02d-%04d", w, per-1))
		if _, err := cl.Get("metrics", "v", key); err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
	}
	res, err := c.QueryAt(context.Background(), "metrics", "v", 0, query.Query{Aggs: []query.Agg{{Kind: query.Count}}})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rows != writers*per {
		t.Fatalf("count = %d, want %d", res.Rows, writers*per)
	}
}
