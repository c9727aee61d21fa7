package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
	"repro/internal/txn"
)

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(t.TempDir(), Config{
		NumServers: n,
		Tables: []TableSpec{
			{Name: "users", Groups: []string{"profile", "activity"}},
		},
		Server: core.Config{SegmentSize: 1 << 20},
		DFS:    dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c
}

func TestPutGetAcrossServers(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	// Keys spread over the whole keyspace → all servers participate.
	for i := 0; i < 200; i++ {
		key := []byte{byte(i * 256 / 200), byte(i)}
		if err := cl.Put("users", "profile", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		key := []byte{byte(i * 256 / 200), byte(i)}
		row, err := cl.Get("users", "profile", key)
		if err != nil || string(row.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %d = %+v err=%v", i, row, err)
		}
	}
	// Every server must have seen writes (round-robin tablet spread).
	busy := 0
	for _, id := range c.LiveServers() {
		if c.Server(id).Stats().Writes.Load() > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Errorf("only %d/4 servers received writes", busy)
	}
}

// Tuple reconstruction (paper §3.2): the column groups of one row live
// in separate indexes and are collected by primary key, group by group.
func TestTupleReconstructionAcrossGroups(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.NewClient()
	key := []byte("user-1")
	cl.Put("users", "profile", key, []byte("alice"))
	cl.Put("users", "activity", key, []byte("clicked"))
	row := map[string]string{}
	for _, g := range c.Groups("users") {
		r, err := cl.Get("users", g, key)
		if err != nil {
			t.Fatalf("Get %s: %v", g, err)
		}
		row[g] = string(r.Value)
	}
	if row["profile"] != "alice" || row["activity"] != "clicked" {
		t.Errorf("reconstructed tuple = %v", row)
	}
}

func TestScanSpansTablets(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	for b := 0; b < 256; b += 4 {
		cl.Put("users", "profile", []byte{byte(b)}, []byte("v"))
	}
	var keys [][]byte
	err := cl.ScanOpts(context.Background(), "users", "profile", []byte{0x20}, []byte{0xE0}, readopt.Options{}, func(r core.Row) bool {
		keys = append(keys, r.Key)
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := (0xE0 - 0x20) / 4
	if len(keys) != want {
		t.Errorf("scan saw %d keys, want %d", len(keys), want)
	}
	for i := 1; i < len(keys); i++ {
		if string(keys[i-1]) >= string(keys[i]) {
			t.Fatal("cross-tablet scan out of key order")
		}
	}
}

func TestFullScan(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	for i := 0; i < 90; i++ {
		cl.Put("users", "profile", []byte{byte(i * 256 / 90), byte(i)}, []byte("v"))
	}
	n := 0
	if err := cl.FullScanOpts(context.Background(), "users", "profile", readopt.Options{}, func(core.Row) bool { n++; return true }); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if n != 90 {
		t.Errorf("full scan saw %d rows, want 90", n)
	}
}

func TestServerFailover(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	const n = 120
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		cl.Put("users", "profile", key, []byte(fmt.Sprintf("v%d", i)))
	}
	victim := c.LiveServers()[1]
	before := c.Assignments()
	victimTablets := 0
	for _, owner := range before {
		if owner == victim {
			victimTablets++
		}
	}
	if victimTablets == 0 {
		t.Fatal("victim owned no tablets; test setup broken")
	}
	if err := c.KillServer(victim); err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	// All data must remain readable through stale-cache retries.
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		row, err := cl.Get("users", "profile", key)
		if err != nil || string(row.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %d after failover = %+v err=%v", i, row, err)
		}
	}
	// No tablet may still be assigned to the dead server.
	for tab, owner := range c.Assignments() {
		if owner == victim {
			t.Errorf("tablet %s still assigned to dead server", tab)
		}
	}
	// Writes to moved tablets keep working.
	for i := 0; i < n; i++ {
		key := []byte{byte(i * 256 / n), byte(i)}
		if err := cl.Put("users", "profile", key, []byte("post-failover")); err != nil {
			t.Fatalf("post-failover Put: %v", err)
		}
	}
}

func TestStaleClientCacheRefreshes(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	cl.Put("users", "profile", []byte{0x10}, []byte("v"))
	refreshesBefore := cl.Refreshes
	victim := ""
	for tab, owner := range c.Assignments() {
		router, _ := c.Router("users")
		if t2, ok := router.Lookup([]byte{0x10}); ok && t2.ID == tab {
			victim = owner
		}
	}
	if err := c.KillServer(victim); err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	if _, err := cl.Get("users", "profile", []byte{0x10}); err != nil {
		t.Fatalf("Get after move: %v", err)
	}
	if cl.Refreshes == refreshesBefore {
		t.Error("client served moved tablet without refreshing its cache")
	}
}

func TestTransactionsThroughCluster(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	keyA := []byte{0x01, 'a'} // different tablets with high probability
	keyB := []byte{0xF0, 'b'}
	tabA, err := cl.TabletFor("users", keyA)
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := cl.TabletFor("users", keyB)
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunTxn(func(tx *txn.Txn) error {
		if err := tx.Put(tabA, "profile", keyA, []byte("1")); err != nil {
			return err
		}
		return tx.Put(tabB, "profile", keyB, []byte("2"))
	})
	if err != nil {
		t.Fatalf("RunTxn: %v", err)
	}
	rowA, err := cl.Get("users", "profile", keyA)
	if err != nil || string(rowA.Value) != "1" {
		t.Errorf("a = %+v err=%v", rowA, err)
	}
	rowB, err := cl.Get("users", "profile", keyB)
	if err != nil || string(rowB.Value) != "2" {
		t.Errorf("b = %+v err=%v", rowB, err)
	}
	if rowA.TS != rowB.TS {
		t.Errorf("transaction writes carry different commit timestamps: %d vs %d", rowA.TS, rowB.TS)
	}
}

func TestMasterFailover(t *testing.T) {
	c := newTestCluster(t, 2)
	if !c.master.IsLeader() {
		t.Fatal("initial master not leader")
	}
	standby := c.FailoverMaster()
	if !standby.IsLeader() {
		t.Error("standby did not take over after master death")
	}
	// Cluster still works: server failover handled by the new master.
	cl := c.NewClient()
	cl.Put("users", "profile", []byte{0x05}, []byte("v"))
	if err := c.KillServer(c.LiveServers()[0]); err != nil {
		t.Fatalf("KillServer under new master: %v", err)
	}
	if _, err := cl.Get("users", "profile", []byte{0x05}); err != nil {
		t.Errorf("data lost across master+server failover: %v", err)
	}
}

func TestConcurrentClientsScale(t *testing.T) {
	c := newTestCluster(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			for i := 0; i < 100; i++ {
				key := []byte{byte((w*100 + i) % 256), byte(i)}
				if err := cl.Put("users", "activity", key, []byte("x")); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Get("users", "activity", key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCheckpointAndRecoverAllServers(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	for i := 0; i < 60; i++ {
		cl.Put("users", "profile", []byte{byte(i * 4), byte(i)}, []byte("v"))
	}
	for _, id := range c.LiveServers() {
		if err := c.Server(id).Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %s: %v", id, err)
		}
	}
	if err := c.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	for i := 0; i < 60; i++ {
		if _, err := cl.Get("users", "profile", []byte{byte(i * 4), byte(i)}); err != nil {
			t.Fatalf("Get %d after compact: %v", i, err)
		}
	}
}

func TestKillLastServerFails(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.KillServer("ts00"); err == nil {
		t.Error("killing the only server should fail (no survivors)")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.NewClient()
	if err := cl.Put("nope", "g", []byte("k"), nil); err == nil {
		t.Error("Put to unknown table succeeded")
	}
	if err := c.CreateTable(TableSpec{Name: "users", Groups: []string{"x"}}); err == nil {
		t.Error("duplicate CreateTable succeeded")
	}
}
