package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
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

// A checkpoint is one file per server, replaced whole: after a split, a
// move and two checkpoints of every server the DFS holds exactly one
// checkpoint file per server and no per-index files, and a restart of
// each server restores every index it serves from that file alone.
func TestCheckpointIsOneFilePerServer(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.NewClient()
	for i := 0; i < 200; i++ {
		if err := cl.Put("users", "profile", []byte{byte(i), 'k'}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	checkpointAll := func() {
		t.Helper()
		for _, id := range c.LiveServers() {
			if err := c.Server(id).Checkpoint(); err != nil {
				t.Fatalf("Checkpoint %s: %v", id, err)
			}
		}
	}
	checkpointAll()
	tab, err := cl.TabletFor("users", []byte{0x10})
	if err != nil {
		t.Fatal(err)
	}
	left, _, err := c.SplitTablet(tab)
	if err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	dest := "ts00"
	if c.Assignments()[left] == dest {
		dest = "ts01"
	}
	if err := c.MoveTablet(left, dest); err != nil {
		t.Fatalf("MoveTablet: %v", err)
	}
	checkpointAll()

	if got, want := c.FS().List("chk/"), []string{"chk/ts00", "chk/ts01"}; !slices.Equal(got, want) {
		t.Fatalf("checkpoint files %v, want %v", got, want)
	}
	if got := c.FS().List("idx/"); len(got) != 0 {
		t.Fatalf("per-index files left behind: %v", got)
	}
	groups := c.Groups("users")
	for _, id := range c.LiveServers() {
		live := c.Server(id)
		srv, err := core.NewServer(c.FS(), id, core.Config{SegmentSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		indexes := 0
		c.mu.RLock()
		for tab, owner := range c.assignments {
			if owner == id {
				srv.AddTablet(c.tabletSpecs[tab], groups)
				indexes += len(groups)
			}
		}
		c.mu.RUnlock()
		st, err := srv.Recover()
		if err != nil || !st.UsedCheckpoint || st.IndexesLoaded != indexes {
			t.Fatalf("%s: Recover = %+v, %v; want its checkpoint's %d indexes", id, st, err, indexes)
		}
		for tab, owner := range c.Assignments() {
			for _, g := range groups {
				if owner == id && srv.IndexLen(tab, g) != live.IndexLen(tab, g) {
					t.Fatalf("%s: restored %s/%s holds %d entries, the live server %d", id, tab, g, srv.IndexLen(tab, g), live.IndexLen(tab, g))
				}
			}
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

// TestReopenRecoversEveryServer restarts a 3-server cluster with one
// replica per server over its DFS after writes, deletes, a checkpoint, a
// whole-log compaction and an uncheckpointed tail of both: after Reopen
// and Recover every acknowledged key reads its last value, no deleted
// key comes back, and the timestamp oracle is at or past every recovered
// version. The replicas stop shipping before the tail, so their durable
// cursors lag the logs at the restart; once restarted they must ship the
// tail and serve a pinned scan identical to the primaries'.
func TestReopenRecoversEveryServer(t *testing.T) {
	faults := fault.New(1)
	c, err := New(t.TempDir(), Config{
		NumServers: 3,
		Replicas:   1,
		Tables:     []TableSpec{{Name: "users", Groups: []string{"profile", "activity"}}},
		Server:     core.Config{SegmentSize: 1 << 20, Faults: faults},
		DFS:        dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient()
	oracle := map[string]string{} // key -> last value, "" = deleted
	key := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 'k'} }
	put := func(i int, v string) {
		t.Helper()
		if err := cl.Put("users", "profile", key(i), []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		oracle[string(key(i))] = v
	}
	del := func(i int) {
		t.Helper()
		if err := cl.Delete("users", "profile", key(i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		oracle[string(key(i))] = ""
	}
	const n = 600
	for i := 0; i < n; i++ {
		put(i, fmt.Sprintf("v1-%d", i))
	}
	for i := 0; i < n; i += 7 {
		del(i)
	}
	for _, id := range c.LiveServers() {
		if err := c.Server(id).Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %s: %v", id, err)
		}
	}
	for i := 0; i < n; i += 3 {
		put(i, fmt.Sprintf("v2-%d", i))
	}
	if err := c.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	// Every replica fails at its first record of the tail: the tail is
	// in the primaries' logs only.
	if err := c.WaitForReplicaTS(c.Coord().LastTimestamp(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	stalled := errors.New("replica stopped before the tail")
	var applyPoints []string
	for _, id := range c.LiveServers() {
		p := "repl." + id + ".r0.apply"
		faults.Arm(p, fault.Policy{Err: stalled})
		applyPoints = append(applyPoints, p)
	}
	// The uncheckpointed tail: overwrites, deletes of live keys, and a
	// deleted key written again.
	for i := 1; i < n; i += 5 {
		put(i, fmt.Sprintf("v3-%d", i))
	}
	for i := 2; i < n; i += 11 {
		del(i)
	}
	put(7, "v4-7")
	for _, id := range c.LiveServers() {
		rep := c.Replicas(id)[0]
		for deadline := time.Now().Add(5 * time.Second); !errors.Is(rep.Err(), stalled); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s did not stop at the tail (err %v)", rep.BaseID(), rep.Err())
			}
		}
	}

	c2, err := c.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	c.Close()
	t.Cleanup(func() { c2.Close() })
	if reps := c2.Replicas("ts00"); len(reps) != 0 {
		t.Fatalf("reopened cluster runs %d replicas before Recover", len(reps))
	}
	for _, p := range applyPoints {
		faults.Disarm(p)
	}
	st, err := c2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint || st.RecordsScanned == 0 {
		t.Fatalf("Recover = %+v, want checkpoints plus a redone tail", st)
	}
	last := c2.Coord().LastTimestamp()
	if last < st.MaxTS {
		t.Fatalf("oracle at %d, below the recovered maximum %d", last, st.MaxTS)
	}
	cl2 := c2.NewClient()
	for k, want := range oracle {
		rows, err := cl2.Read("users", "profile", []byte(k), readopt.Options{AllVersions: true})
		if err != nil {
			t.Fatalf("versions of %q: %v", k, err)
		}
		for _, r := range rows {
			if r.TS > last {
				t.Fatalf("%q has a version at ts %d, past the oracle's %d", k, r.TS, last)
			}
		}
		row, err := cl2.Get("users", "profile", []byte(k))
		switch {
		case want == "" && !errors.Is(err, core.ErrNotFound):
			t.Fatalf("deleted key %q came back: %q, %v", k, row.Value, err)
		case want != "" && (err != nil || string(row.Value) != want):
			t.Fatalf("key %q = %q, %v; want %q", k, row.Value, err, want)
		}
	}

	// The restarted replicas ship the tail: a pinned scan they serve
	// equals the primaries'.
	if err := c2.WaitForReplicaTS(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	scan := func(ro readopt.Options) []string {
		t.Helper()
		var rows []string
		if err := cl2.ScanOpts(context.Background(), "users", "profile", nil, nil, ro, func(r core.Row) bool {
			rows = append(rows, string(r.Key)+"="+string(r.Value))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	served := map[string]int64{}
	for _, id := range c2.LiveServers() {
		reps := c2.Replicas(id)
		if len(reps) != 1 || reps[0].Err() != nil {
			t.Fatalf("server %s has replicas %v after Recover, want one healthy", id, reps)
		}
		served[id] = reps[0].Stats().ReadsServed
	}
	byReplica := scan(readopt.Options{Snapshot: last})
	for _, id := range c2.LiveServers() {
		if c2.Replicas(id)[0].Stats().ReadsServed <= served[id] {
			t.Fatalf("the pinned scan was not served by %s's replica", id)
		}
	}
	byPrimary := scan(readopt.Options{Snapshot: last, Primary: true})
	live := 0
	for _, v := range oracle {
		if v != "" {
			live++
		}
	}
	if len(byPrimary) != live || !slices.Equal(byReplica, byPrimary) {
		t.Fatalf("replica-served scan has %d rows, primary-served %d; want %d identical", len(byReplica), len(byPrimary), live)
	}
}
