package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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

// sumOf is the COUNT(*) + SUM(value) fold the tests ship to the servers.
func sumOf(workers int) query.Fold {
	return query.Fold{
		Aggs:    []query.AggSpec{{Kind: query.Count}, {Kind: query.Sum, Expr: query.ValExpr()}},
		Workers: workers,
	}
}

// The per-server fan-out must return identical aggregates to a serial
// single-node style scan at the same timestamp — the acceptance check
// for the partial strategy's cluster half.
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

	res, err := cl.Aggregate(context.Background(), "metrics", "v", 0, query.RelFilter{}, sumOf(4))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
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

	cl := c.NewClient()
	sum := func(ts int64) query.Result {
		t.Helper()
		res, err := cl.Aggregate(context.Background(), "metrics", "v", ts, query.RelFilter{}, sumOf(0))
		if err != nil {
			t.Fatalf("Aggregate at %d: %v", ts, err)
		}
		return res
	}
	before := sum(ts)

	// Keep writing after the pin; the pinned query must not move.
	for i := 0; i < 200; i++ {
		if err := cl.Put("metrics", "v", []byte(fmt.Sprintf("m%06d", i)), []byte("1000000")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if again := sum(ts); again.Rows != before.Rows || again.Value(1, query.Sum) != before.Value(1, query.Sum) {
		t.Fatalf("time travel drifted: %v vs %v", again, before)
	}
	if now := sum(0); now.Value(1, query.Sum) <= before.Value(1, query.Sum) {
		t.Fatalf("current query sum %g not greater than pinned %g", now.Value(1, query.Sum), before.Value(1, query.Sum))
	}
}

func TestClusterQueryGroupByAcrossServers(t *testing.T) {
	c := newQueryCluster(t, 3)
	const n = 900
	loadMetrics(t, c, n)
	res, err := c.NewClient().Aggregate(context.Background(), "metrics", "v", 0, query.RelFilter{}, query.Fold{
		By:   &query.GroupSpec{Expr: query.KeyExpr(), Prefix: 5}, // "m0000".."m0008": bucket by hundreds
		Aggs: []query.AggSpec{{Kind: query.Count}},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if len(res.Groups) != 9 {
		t.Fatalf("got %d groups, want 9: %+v", len(res.Groups), res.Groups)
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
	res, err := c.NewClient().Aggregate(context.Background(), "metrics", "v", 0,
		query.RelFilter{Start: []byte("m000100"), End: []byte("m000200")}, sumOf(0))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
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
			SegmentSize: 1 << 20,
			GroupCommit: true,
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
	res, err := cl.Aggregate(context.Background(), "metrics", "v", 0, query.RelFilter{}, sumOf(0))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res.Rows != writers*per {
		t.Fatalf("count = %d, want %d", res.Rows, writers*per)
	}
}

// TestAggregateFeedsReplicaBreaker: an aggregate picks its per-server
// target like every other pinned read — through readTarget — so a
// replica-served aggregate that takes a half-open breaker's probe slot
// reports the outcome and closes the breaker, instead of sitting on the
// slot and getting the next pinned scan refused its replica.
func TestAggregateFeedsReplicaBreaker(t *testing.T) {
	const probeAfter = 100 * time.Millisecond
	c, err := New(t.TempDir(), Config{
		NumServers: 1,
		Replicas:   1,
		Tables:     []TableSpec{{Name: "t", Groups: []string{"g"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.breakers.probeAfter = probeAfter
	t.Cleanup(func() { c.Close() })
	cl := c.NewClient()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := cl.Put("t", "g", []byte(fmt.Sprintf("k%04d", i)), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep := c.Replicas("ts00")[0]
	for i := 0; i < breakerThreshold; i++ {
		c.breakers.failure("replica:" + rep.BaseID())
	}
	if n := c.breakers.openCount(); n != 1 {
		t.Fatalf("openCount = %d after %d routing failures, want 1", n, breakerThreshold)
	}
	time.Sleep(probeAfter + 10*time.Millisecond)

	// The aggregate is the probe: replica-served, and its success closes
	// the breaker.
	served := rep.Stats().ReadsServed
	res, err := cl.Aggregate(ctx, "t", "g", ts, query.RelFilter{}, sumOf(0))
	if err != nil || res.Rows != 100 {
		t.Fatalf("Aggregate = %d rows, %v; want 100", res.Rows, err)
	}
	if rep.Stats().ReadsServed == served {
		t.Fatal("the pinned aggregate was not served by the replica")
	}
	if n := c.breakers.openCount(); n != 0 {
		t.Fatalf("openCount = %d after a successful replica-served aggregate: its outcome never reached the breaker", n)
	}

	// Same probe window: a pinned scan still gets the replica.
	served = rep.Stats().ReadsServed
	if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts}, func(core.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if rep.Stats().ReadsServed == served {
		t.Fatal("pinned scan was refused the replica: the aggregate sat on the breaker's probe slot")
	}
}

// TestAggregateRerunsOnStaleRouting: a server that is unreachable when
// the scatter is planned fails the attempt with a routing error; the
// whole side-effect-free scatter re-runs under the client's retry
// policy (counted as scan resumes, labelled on the request span) until
// routing heals, and the answer is the pinned one.
func TestAggregateRerunsOnStaleRouting(t *testing.T) {
	c := newQueryCluster(t, 3)
	const n = 600
	loadMetrics(t, c, n)
	cl := c.NewClient()
	resumes := c.obsScanResumes.Load()

	// ts01 stays unreachable until the first attempt has failed on it.
	stop := downUntilResume(c, "ts01")
	var tree string
	tracer := &obs.Tracer{Sink: func(s string) { tree = s }}
	ctx, root := tracer.Root(context.Background(), "test")
	res, err := cl.Aggregate(ctx, "metrics", "v", 0, query.RelFilter{}, sumOf(0))
	root.Finish()
	stop()
	if err != nil || res.Rows != n {
		t.Fatalf("Aggregate across an unreachable window = %d rows, %v; want %d", res.Rows, err, n)
	}
	if got := c.obsScanResumes.Load(); got <= resumes {
		t.Fatalf("logbase_client_scan_resumes_total did not advance: %d -> %d", resumes, got)
	}
	if !strings.Contains(tree, "resume=attempt=0 err=") || !strings.Contains(tree, "query.server") {
		t.Fatalf("trace lacks the resume label or the query.server spans:\n%s", tree)
	}
}
