package logbase_test

// End-to-end integration tests exercising the full paper story across
// module boundaries: ingest → mixed traffic → compaction → checkpoint →
// crash → recovery → verification, plus cluster failover with the DFS
// losing a datanode at the same time. Everything drives the unified
// Store interface; TestStoreDriverBothBackends runs one workload
// function against the embedded DB and the cluster client verbatim.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	logbase "repro"
	"repro/internal/dfs"
	"repro/internal/fault"
)

func TestEndToEndLifecycle(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{
		ReadCacheBytes: 1 << 20,
		SegmentSize:    1 << 16,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keepVersions(t, db, "events", "payload", 2)

	// Phase 1: ingest with overwrites and deletes.
	rng := rand.New(rand.NewSource(2024))
	model := map[string]string{}
	for op := 0; op < 5000; op++ {
		key := fmt.Sprintf("k%03d", rng.Intn(300))
		switch rng.Intn(12) {
		case 0:
			if err := db.Delete(bg, "events", "payload", []byte(key)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(model, key)
		default:
			val := fmt.Sprintf("v%d", op)
			if err := db.Put(bg, "events", "payload", []byte(key), []byte(val)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			model[key] = val
		}
	}

	verify := func(stage string, d *logbase.DB) {
		t.Helper()
		for key, want := range model {
			row, err := d.Get(bg, "events", "payload", []byte(key))
			if err != nil || string(row.Value) != want {
				t.Fatalf("%s: %s = %q err=%v, want %q", stage, key, row.Value, err, want)
			}
		}
		// A couple of deleted keys must stay gone.
		misses := 0
		for i := 0; i < 300 && misses < 3; i++ {
			key := fmt.Sprintf("k%03d", i)
			if _, ok := model[key]; !ok {
				if _, err := d.Get(bg, "events", "payload", []byte(key)); !errors.Is(err, logbase.ErrNotFound) {
					t.Fatalf("%s: deleted key %s visible (err=%v)", stage, key, err)
				}
				misses++
			}
		}
	}
	verify("after ingest", db)

	// Phase 2: transactions interleaved with a compaction.
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			err := logbase.RunTx(bg, db, func(tx logbase.Tx) error {
				key := []byte(fmt.Sprintf("txn-key-%02d", i))
				return tx.Put("events", "payload", key, []byte("txn"))
			})
			if err != nil {
				errCh <- err
				return
			}
		}
	}()
	if _, err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("txn during compaction: %v", err)
	default:
	}
	verify("after compaction", db)
	for i := 0; i < 20; i++ {
		if _, err := db.Get(bg, "events", "payload", []byte(fmt.Sprintf("txn-key-%02d", i))); err != nil {
			t.Fatalf("txn write %d lost around compaction: %v", i, err)
		}
	}

	// Phase 3: checkpoint, more writes, crash, recover.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("post-%02d", i)
		db.Put(bg, "events", "payload", []byte(key), []byte("tail"))
		model[key] = "tail"
	}
	db2, err := db.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	db2.CreateTable("events", "payload")
	st, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint {
		t.Error("recovery ignored the checkpoint")
	}
	verify("after recovery", db2)
	for i := 0; i < 20; i++ {
		if _, err := db2.Get(bg, "events", "payload", []byte(fmt.Sprintf("txn-key-%02d", i))); err != nil {
			t.Fatalf("txn write %d lost across crash: %v", i, err)
		}
	}
}

func TestClusterSurvivesServerAndDataNodeFailure(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 4,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 8}},
		DFS:        dfs.Config{NumDataNodes: 4, ReplicationFactor: 3, BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	const n = 200
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		if err := cl.Put(bg, "t", "g", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Lose a datanode AND a tablet server.
	c.FS().KillDataNode(1)
	if _, err := c.FS().RecoverReplication(); err != nil {
		t.Fatalf("RecoverReplication: %v", err)
	}
	if err := c.KillServer(c.LiveServers()[0]); err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		row, err := cl.Get(bg, "t", "g", key)
		if err != nil || string(row.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %d after double failure = %+v err=%v", i, row, err)
		}
	}
	// Second server failure on the already-degraded cluster.
	if err := c.KillServer(c.LiveServers()[0]); err != nil {
		t.Fatalf("second KillServer: %v", err)
	}
	for i := 0; i < n; i += 7 {
		key := []byte{byte(i * 256 / n), byte(i)}
		if _, err := cl.Get(bg, "t", "g", key); err != nil {
			t.Fatalf("Get %d after second failover: %v", i, err)
		}
	}
}

// splitCompactCluster loads a two-server cluster with 200 rows and
// returns it with a scan of every row and the tablet that holds the
// first key.
func splitCompactCluster(t *testing.T, dcfg dfs.Config) (c *logbase.Cluster, scan func() []string, tabletID string) {
	t.Helper()
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 2,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}}},
		DFS:        dcfg,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	t.Cleanup(func() { cl.Close() })
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Put(bg, "t", "g", []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	scan = func() []string {
		var rows []string
		err := each(cl.Scan(bg, "t", "g", nil, nil), func(r logbase.Row) {
			rows = append(rows, string(r.Key)+"="+string(r.Value))
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return rows
	}
	if got := len(scan()); got != n {
		t.Fatalf("scan before split = %d rows, want %d", got, n)
	}
	router, err := c.Router("t")
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := router.Lookup([]byte("k0000"))
	if !ok {
		t.Fatal("no tablet for k0000")
	}
	return c, scan, tab.ID
}

// TestClusterCompactAfterSplitKeepsRows is the cluster twin of core's
// TestCompactAfterSplitKeepsRows: rows written before a tablet split
// carry the parent's tablet id in the log, and a whole-log compaction
// afterwards must keep every one of them.
func TestClusterCompactAfterSplitKeepsRows(t *testing.T) {
	c, scan, tabletID := splitCompactCluster(t, dfs.Config{})
	before := scan()
	if _, _, err := c.SplitTablet(tabletID); err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	if err := c.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	if after := scan(); !reflect.DeepEqual(before, after) {
		t.Fatalf("scan after split+compaction = %d rows, want the %d pre-compaction rows", len(after), len(before))
	}
}

// The cluster twin of core's TestSplitDuringCompactKeepsRows: the split
// lands while the owner's whole-log compaction writes its output.
func TestClusterSplitDuringCompactKeepsRows(t *testing.T) {
	reg := fault.New(7)
	c, scan, tabletID := splitCompactCluster(t, dfs.Config{Faults: reg})
	before := scan()
	owner, err := c.ServerFor(tabletID)
	if err != nil {
		t.Fatal(err)
	}
	// The owner's first DFS write from here on is its compaction output.
	var once sync.Once
	split := fault.Policy{OnFire: func() {
		once.Do(func() {
			if _, _, err := c.SplitTablet(tabletID); err != nil {
				t.Errorf("SplitTablet: %v", err)
			}
		})
	}}
	for i := 0; i < c.FS().NumDataNodes(); i++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.write", i), split)
	}
	if _, err := owner.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	reg.Reset()
	if _, still := c.Assignments()[tabletID]; still {
		t.Fatal("the split did not land during the compaction")
	}
	if after := scan(); !reflect.DeepEqual(before, after) {
		t.Fatalf("scan after split-during-compaction = %d rows, want the %d pre-compaction rows", len(after), len(before))
	}
}

// A tablet's history moves with it: after a migration the source's log
// still holds a stale copy, and once the new owner has deleted a row and
// vacuumed the tombstone together with the row (whole-log compaction),
// that copy is the only record of the row left anywhere. A fresh
// changefeed must not replay it.
func TestClusterWatchSkipsMigratedAwayHistory(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 2,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	defer cl.Close()
	for _, k := range []string{"gone", "kept"} {
		if err := cl.Put(bg, "t", "g", []byte(k), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	router, err := c.Router("t")
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := router.Lookup([]byte("gone"))
	if !ok {
		t.Fatal("no tablet for the key")
	}
	for _, id := range c.LiveServers() {
		if id != c.Assignments()[tab.ID] {
			if err := c.MoveTablet(tab.ID, id); err != nil {
				t.Fatalf("MoveTablet: %v", err)
			}
			break
		}
	}
	if err := cl.Delete(bg, "t", "g", []byte("gone")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Only the new owner compacts: the source keeps its copy.
	owner, err := c.ServerFor(tab.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	feed, err := cl.Watch(bg, "t", "g", nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer feed.Close()
	fold := foldState{}
	if err := drainUntilIdle(t, feed, fold, 200*time.Millisecond, nil); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if fr := fold["gone"]; fr.live {
		t.Fatalf("a fresh feed replays the deleted row from the log it migrated away from: %+v", fr)
	}
	if fr := fold["kept"]; !fr.live {
		t.Fatalf("the surviving row is missing from the fresh feed: %+v", fr)
	}
}

func TestConcurrentMixedWorkloadConsistency(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{GroupCommit: true, SegmentSize: 1 << 18})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.CreateTable("acct", "bal")
	// 16 accounts, each seeded with 1000; random transfers preserve the
	// global sum under snapshot isolation.
	const accounts, transfers, workers = 16, 40, 8
	for i := 0; i < accounts; i++ {
		db.Put(bg, "acct", "bal", []byte(fmt.Sprintf("a%02d", i)), []byte("1000"))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from := fmt.Sprintf("a%02d", rng.Intn(accounts))
				to := fmt.Sprintf("a%02d", rng.Intn(accounts))
				if from == to {
					continue
				}
				err := logbase.RunTx(bg, db, func(tx logbase.Tx) error {
					f, err := tx.Get(bg, "acct", "bal", []byte(from))
					if err != nil {
						return err
					}
					g, err := tx.Get(bg, "acct", "bal", []byte(to))
					if err != nil {
						return err
					}
					fv, tv := atoi(f), atoi(g)
					if fv < 10 {
						return nil
					}
					if err := tx.Put("acct", "bal", []byte(from), itoa(fv-10)); err != nil {
						return err
					}
					return tx.Put("acct", "bal", []byte(to), itoa(tv+10))
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	for i := 0; i < accounts; i++ {
		row, err := db.Get(bg, "acct", "bal", []byte(fmt.Sprintf("a%02d", i)))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		sum += atoi(row.Value)
	}
	if sum != accounts*1000 {
		t.Errorf("money not conserved: sum = %d, want %d", sum, accounts*1000)
	}
}

// storeWorkload is ONE workload function written purely against the
// Store interface: batch load, point reads, iterator scans, a
// transaction, a snapshot query, and a delete.
func storeWorkload(t *testing.T, st logbase.Store) {
	t.Helper()
	if err := st.CreateTable("w", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	batch := st.Batch()
	for i := 0; i < 200; i++ {
		batch.Put("w", "g", []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprint(i)))
	}
	if err := batch.Flush(bg); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	row, err := st.Get(bg, "w", "g", []byte("k0042"))
	if err != nil || string(row.Value) != "42" {
		t.Fatalf("Get = %+v err=%v", row, err)
	}
	var keys []string
	it := st.Scan(bg, "w", "g", []byte("k0010"), []byte("k0015"))
	for it.Next() {
		keys = append(keys, string(it.Row().Key))
	}
	if err := it.Close(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(keys) != 5 || keys[0] != "k0010" || keys[4] != "k0014" {
		t.Fatalf("scan keys = %v", keys)
	}
	full := st.FullScan(bg, "w", "g")
	n := 0
	for full.Next() {
		n++
	}
	if err := full.Close(); err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if n != 200 {
		t.Fatalf("full scan rows = %d", n)
	}
	err = logbase.RunTx(bg, st, func(tx logbase.Tx) error {
		v, err := tx.Get(bg, "w", "g", []byte("k0001"))
		if err != nil {
			return err
		}
		return tx.Put("w", "g", []byte("k0001"), append(v, '!'))
	})
	if err != nil {
		t.Fatalf("RunTx: %v", err)
	}
	row, _ = st.Get(bg, "w", "g", []byte("k0001"))
	if string(row.Value) != "1!" {
		t.Fatalf("txn result = %q", row.Value)
	}
	res, err := st.Exec(bg, logbase.Q("w").Group("g").Agg(logbase.Count))
	if err != nil || res.Value(0, logbase.Count) != 200 {
		t.Fatalf("Exec count = %v err=%v", res.Value(0, logbase.Count), err)
	}
	// At(0) means "latest" on every backend (regression: the cluster
	// used to pin a literal 0 and see nothing).
	res, err = st.Exec(bg, logbase.Q("w").Group("g").Agg(logbase.Count).At(0))
	if err != nil || res.Value(0, logbase.Count) != 200 {
		t.Fatalf("Exec At(0) count = %v err=%v", res.Value(0, logbase.Count), err)
	}
	if err := st.Delete(bg, "w", "g", []byte("k0000")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Get(bg, "w", "g", []byte("k0000")); !errors.Is(err, logbase.ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
	if _, err := st.Read(bg, "w", "g", []byte("k0001"), logbase.WithAllVersions()); err != nil {
		t.Fatalf("Read WithAllVersions: %v", err)
	}
}

// TestStoreDriverBothBackends is the acceptance check for the unified
// API: the exact same driver function runs against the embedded DB and
// the cluster client.
func TestStoreDriverBothBackends(t *testing.T) {
	t.Run("embedded", func(t *testing.T) {
		db, err := logbase.Open(t.TempDir(), logbase.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		storeWorkload(t, db)
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cc := logbase.NewClusterClient(c)
		defer cc.Close()
		storeWorkload(t, cc)
	})
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int) []byte { return []byte(fmt.Sprint(n)) }
