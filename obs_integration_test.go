package logbase_test

// End-to-end observability tests: one traced operation produces ONE
// trace tree spanning client → per-tablet servers → WAL reads, the
// slow-op log honours its threshold, and routing upheavals (a tablet
// split racing a scan) annotate the same tree instead of losing it.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	logbase "repro"
	"repro/internal/fault"
)

// treeLog is a concurrency-safe slow-op sink.
type treeLog struct {
	mu    sync.Mutex
	trees []string
}

func (l *treeLog) add(tree string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trees = append(l.trees, tree)
}

func (l *treeLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.trees...)
}

func (l *treeLog) containing(substr string) []string {
	var out []string
	for _, tr := range l.all() {
		if strings.Contains(tr, substr) {
			out = append(out, tr)
		}
	}
	return out
}

// TestClusterScanTraceTree: a cluster scan with push-down options
// yields one tree stitching the client root, every per-tablet server
// scan, and the WAL read batches under them — retrievable through the
// slow-op log at threshold 0.
func TestClusterScanTraceTree(t *testing.T) {
	log := &treeLog{}
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers:      2,
		Tables:          []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 4}},
		SlowOpLog:       log.add,
		SlowOpThreshold: 0,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	defer cl.Close()

	const n = 120
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		if err := cl.Put(bg, "t", "g", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	rows := 0
	it := cl.Scan(bg, "t", "g", nil, nil, logbase.WithLimit(n))
	for it.Next() {
		rows++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if rows != n {
		t.Fatalf("scan returned %d rows, want %d", rows, n)
	}

	scans := log.containing("store.scan")
	if len(scans) != 1 {
		t.Fatalf("want exactly 1 store.scan tree, got %d (all: %v)", len(scans), log.all())
	}
	tree := scans[0]
	if !strings.HasPrefix(tree, "trace=") {
		t.Errorf("tree missing trace id: %q", tree)
	}
	for _, srv := range []string{`server=ts00`, `server=ts01`} {
		if !strings.Contains(tree, "tablet.scan dur=") || !strings.Contains(tree, srv) {
			t.Errorf("tree missing per-server tablet.scan (%s):\n%s", srv, tree)
		}
	}
	if strings.Count(tree, "tablet.scan") < 2 {
		t.Errorf("want >=2 tablet.scan spans in one tree:\n%s", tree)
	}
	if !strings.Contains(tree, "wal.readbatch") {
		t.Errorf("tree missing wal.readbatch span:\n%s", tree)
	}
	// Point ops trace too, as their own roots.
	if len(log.containing("store.put")) != n {
		t.Errorf("want %d store.put trees, got %d", n, len(log.containing("store.put")))
	}
}

// TestTraceSurvivesMidScanSplit: a tablet split landing mid-scan makes
// the scatter resume by range — the SAME trace tree records the resume
// annotation and the scan still returns every row.
func TestTraceSurvivesMidScanSplit(t *testing.T) {
	log := &treeLog{}
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers:      2,
		Tables:          []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 2}},
		SlowOpLog:       log.add,
		SlowOpThreshold: 0,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	wcl := c.NewClient()
	// Enough keys that every tablet spans several index leaves —
	// SplitTablet needs leaf boundaries to pick a population midpoint.
	const n = 600
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i >> 8), byte(i)}
		if err := wcl.Put("t", "g", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	router, err := c.Router("t")
	if err != nil {
		t.Fatalf("Router: %v", err)
	}
	tabs := router.Tablets()
	victim := tabs[len(tabs)-1].ID

	// Drive the low-level scatter directly so the split lands at a
	// deterministic point: after the first row streams (the routing plan
	// is already fixed), before the scan reaches the victim tablet.
	cl := c.NewClient()
	ctx, sp := c.Tracer().Root(context.Background(), "client.scan")
	cl.SetSpan(sp)
	rows, split := 0, false
	err = cl.ScanOpts(ctx, "t", "g", nil, nil, logbase.ReadOptions{}, func(r logbase.Row) bool {
		rows++
		if !split {
			split = true
			if _, _, serr := c.SplitTablet(victim); serr != nil {
				t.Errorf("SplitTablet: %v", serr)
			}
		}
		return true
	})
	cl.SetSpan(nil)
	sp.Finish()
	if err != nil {
		t.Fatalf("ScanOpts across split: %v", err)
	}
	if rows != n {
		t.Fatalf("scan across split returned %d rows, want %d", rows, n)
	}

	scans := log.containing("client.scan")
	if len(scans) != 1 {
		t.Fatalf("want 1 scan tree, got %d", len(scans))
	}
	tree := scans[0]
	if !strings.Contains(tree, "resume=tablet="+victim) {
		t.Errorf("tree missing split-resume annotation for %s:\n%s", victim, tree)
	}
	if strings.Count(tree, "tablet.scan") < 3 {
		// Two tablets planned + at least the resumed halves of the split.
		t.Errorf("want tablet.scan spans from before AND after the split:\n%s", tree)
	}
	if cl.Tracer() != c.Tracer() {
		t.Error("client tracer accessor disagrees with cluster")
	}
}

// TestEmbeddedSlowOpThreshold: the embedded DB honours
// Options.SlowOpThreshold — an unreachable threshold logs nothing, a
// zero threshold logs complete trees for every entry point.
func TestEmbeddedSlowOpThreshold(t *testing.T) {
	quiet := &treeLog{}
	db, err := logbase.Open(t.TempDir(), logbase.Options{
		SlowOpLog:       quiet.add,
		SlowOpThreshold: time.Hour,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.CreateTable("t", "g")
	if err := db.Put(bg, "t", "g", []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := quiet.all(); len(got) != 0 {
		t.Fatalf("threshold 1h still logged %d trees: %v", len(got), got)
	}
	db.Close()

	log := &treeLog{}
	db, err = logbase.Open(t.TempDir(), logbase.Options{
		SlowOpLog: log.add, // threshold 0: every traced op
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.CreateTable("t", "g")
	for i := 0; i < 10; i++ {
		if err := db.Put(bg, "t", "g", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, err := db.Get(bg, "t", "g", []byte{3}); err != nil {
		t.Fatalf("Get: %v", err)
	}
	it := db.Scan(bg, "t", "g", nil, nil)
	for it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Scan: %v", err)
	}

	if n := len(log.containing("store.put")); n != 10 {
		t.Errorf("want 10 store.put trees, got %d", n)
	}
	if n := len(log.containing("store.read")); n != 1 {
		t.Errorf("want 1 store.read tree, got %d", n)
	}
	scans := log.containing("store.scan")
	if len(scans) != 1 {
		t.Fatalf("want 1 store.scan tree, got %d", len(scans))
	}
	if !strings.Contains(scans[0], "tablet.scan") {
		t.Errorf("embedded scan tree missing tablet.scan child:\n%s", scans[0])
	}
	// Slow-op counter in the shared registry matches emissions.
	var slow float64
	for _, m := range db.Metrics().Snapshot() {
		if m.Name == "logbase_slow_ops_total" {
			slow = m.Value
		}
	}
	if int(slow) != len(log.all()) {
		t.Errorf("logbase_slow_ops_total=%v, emitted %d trees", slow, len(log.all()))
	}
	if db.Tracer() == nil {
		t.Error("DB.Tracer() nil with SlowOpLog set")
	}

	if db.Metrics() == nil {
		t.Error("DB.Metrics() nil")
	}
}

// TestRootSpansSameOnBothBackends: the client opens every request's
// trace, so one table of operations yields the same root span family —
// store.<op> — on the embedded and the cluster backend, differing only
// in the backend label.
func TestRootSpansSameOnBothBackends(t *testing.T) {
	ops := func(t *testing.T, st logbase.Store) {
		t.Helper()
		if err := st.CreateTable("t", "g"); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		if err := st.Put(bg, "t", "g", []byte("k"), []byte("1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := st.Get(bg, "t", "g", []byte("k")); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if err := each(st.Scan(bg, "t", "g", nil, nil), func(logbase.Row) {}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if err := each(st.FullScan(bg, "t", "g"), func(logbase.Row) {}); err != nil {
			t.Fatalf("FullScan: %v", err)
		}
		if _, err := st.Exec(bg, logbase.Q("t").Group("g").Agg(logbase.Count)); err != nil {
			t.Fatalf("Exec: %v", err)
		}
		feed, err := st.Watch(bg, "t", "g", nil, nil, 0)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		feed.Close()
		if err := st.Delete(bg, "t", "g", []byte("k")); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// roots maps each tree's root span name to its label set.
	roots := func(log *treeLog) map[string]string {
		out := map[string]string{}
		for _, tree := range log.all() {
			first, _, _ := strings.Cut(tree, "\n")
			f := strings.Fields(first) // trace=… slowop <name> dur=… [labels]
			out[f[2]] = strings.Join(f[4:], " ")
		}
		return out
	}

	elog, clog := &treeLog{}, &treeLog{}
	db, err := logbase.Open(t.TempDir(), logbase.Options{SlowOpLog: elog.add})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	ops(t, db)
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 2, SlowOpLog: clog.add})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	ops(t, cc)

	embedded, cluster := roots(elog), roots(clog)
	for _, name := range []string{"store.put", "store.read", "store.scan", "store.fullscan", "store.exec", "store.watch", "store.delete"} {
		plan := ""
		if name == "store.exec" {
			// One strategy label per planned relation, same on both backends.
			plan = " strategy=partial"
		}
		if got, want := embedded[name], "[backend=embedded table=t"+plan+"]"; got != want {
			t.Errorf("embedded root %s labels = %q, want %q", name, got, want)
		}
		if got, want := cluster[name], "[backend=cluster table=t"+plan+"]"; got != want {
			t.Errorf("cluster root %s labels = %q, want %q", name, got, want)
		}
	}
	if len(embedded) != 7 || len(cluster) != 7 {
		t.Errorf("root span names: embedded %v, cluster %v; want the same seven store.<op> roots", embedded, cluster)
	}
}

// TestFaultObservabilityMetrics pins the fault-injection, scrub and
// retry surfaces into the metrics registry: injected faults are
// countable, scrub repairs increment their counter, client stale-route
// retries are visible, and the breaker gauge is registered.
func TestFaultObservabilityMetrics(t *testing.T) {
	// Embedded: a wired registry exposes the injection gauge, and
	// transient replica-read faults count as injected.
	reg := fault.New(7)
	db, err := logbase.Open(t.TempDir(), logbase.Options{SegmentSize: 1 << 18, Faults: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.CreateTable("t", "g")
	reg.Arm("dfs.dn0.read", fault.Policy{Times: 2})
	for i := 0; i < 20; i++ {
		if err := db.Put(bg, "t", "g", []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Get(bg, "t", "g", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	snap := map[string]float64{}
	for _, m := range db.Metrics().Snapshot() {
		snap[m.Name] += m.Value
	}
	if snap["logbase_faults_injected_total"] < 1 {
		t.Errorf("logbase_faults_injected_total = %v, want >= 1", snap["logbase_faults_injected_total"])
	}
	if _, ok := snap["logbase_scrub_repaired_total"]; !ok {
		t.Error("logbase_scrub_repaired_total not registered")
	}

	// Cluster: a scrub repair increments its counter, a stale-routed
	// client retry increments the retry counter, and the breaker gauge
	// is scrapeable.
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 2,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 4}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	defer cl.Close()
	keys := make([][]byte, 40)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("row%03d", i))
		if err := cl.Put(bg, "t", "g", keys[i], []byte("v")); err != nil {
			t.Fatalf("cluster Put: %v", err)
		}
		if _, err := cl.Get(bg, "t", "g", keys[i]); err != nil {
			t.Fatalf("cluster Get: %v", err) // warm the owner cache
		}
	}
	victim := c.LiveServers()[0]
	survivor := c.LiveServers()[1]
	path := c.Server(victim).Log().SegmentPath(c.Server(victim).Log().ActiveSegment())
	blocks, err := c.FS().Blocks(path)
	if err != nil || len(blocks) == 0 || blocks[0].Size < 128 {
		// The victim may hold no data at this scale; corrupt the
		// survivor's log instead.
		path = c.Server(survivor).Log().SegmentPath(c.Server(survivor).Log().ActiveSegment())
		if blocks, err = c.FS().Blocks(path); err != nil || len(blocks) == 0 {
			t.Fatalf("no populated segment to corrupt: %v", err)
		}
	}
	if err := c.FS().CorruptBlockReplica(path, 0, blocks[0].Replicas[0], 64); err != nil {
		t.Fatalf("CorruptBlockReplica: %v", err)
	}
	if _, err := cl.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	// Freeze one tablet as a migration cutover would: writes bounce
	// with the retryable frozen error and spin the unified
	// refresh-and-retry loop (epoch is unchanged, so no silent cache
	// refresh short-circuits it) until the attempt budget runs out.
	router, err := c.Router("t")
	if err != nil {
		t.Fatalf("Router: %v", err)
	}
	frozenKey := keys[0]
	tab, ok := router.Lookup(frozenKey)
	if !ok {
		t.Fatalf("no tablet for %q", frozenKey)
	}
	owner := c.Assignments()[tab.ID]
	if err := c.Server(owner).FreezeTablet(tab.ID); err != nil {
		t.Fatalf("FreezeTablet: %v", err)
	}
	if err := cl.Put(bg, "t", "g", frozenKey, []byte("w")); err == nil {
		t.Fatal("Put to frozen tablet succeeded without cutover")
	}
	if err := c.Server(owner).UnfreezeTablet(tab.ID); err != nil {
		t.Fatalf("UnfreezeTablet: %v", err)
	}
	if err := cl.Put(bg, "t", "g", frozenKey, []byte("w")); err != nil {
		t.Fatalf("Put after unfreeze: %v", err)
	}
	csnap := map[string]float64{}
	seen := map[string]bool{}
	for _, m := range c.Metrics().Snapshot() {
		csnap[m.Name] += m.Value
		seen[m.Name] = true
	}
	if csnap["logbase_scrub_repaired_total"] < 1 {
		t.Errorf("logbase_scrub_repaired_total = %v after repair, want >= 1", csnap["logbase_scrub_repaired_total"])
	}
	if csnap["logbase_retry_attempts_total"] < 1 {
		t.Errorf("logbase_retry_attempts_total = %v after failover reroute, want >= 1", csnap["logbase_retry_attempts_total"])
	}
	if !seen["logbase_breaker_open"] {
		t.Error("logbase_breaker_open gauge not registered")
	}
}
