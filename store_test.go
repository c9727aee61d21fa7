package logbase_test

// Tests for the unified Store surface: iterator semantics (early Close
// releases the producing scan, ctx cancellation surfaces ctx.Err()),
// WriteBatch bulk writes, cancelled cluster queries returning promptly
// with no stuck fan-out goroutines, and Close leaving no goroutine behind
// on a group-commit deployment (the leak-check satellite).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
)

// coreScanOptions builds low-level scan options for the batch-boundary
// cancellation test (TS pinned far in the future = see everything).
func coreScanOptions(batch, workers int) core.ScanOptions {
	return core.ScanOptions{TS: 1 << 60, Batch: batch, Workers: workers}
}

func coreGroupCommitConfig() core.Config {
	return core.Config{GroupCommit: true}
}

// waitGoroutines polls until the goroutine count drops back to at most
// baseline+slack (other test goroutines may live in the background).
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines alive, baseline %d\n%s",
				what, n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func loadRows(t *testing.T, st logbase.Store, table, group string, n int) {
	t.Helper()
	if err := st.CreateTable(table, group); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	batch := st.Batch()
	for i := 0; i < n; i++ {
		batch.Put(table, group, []byte(fmt.Sprintf("k%08d", i)), []byte(fmt.Sprint(i%1000)))
		if batch.Len() >= 1024 {
			if err := batch.Flush(bg); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	if err := batch.Flush(bg); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestIteratorEarlyCloseReleasesScan(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	loadRows(t, db, "t", "g", 20000)

	baseline := runtime.NumGoroutine()
	it := db.Scan(bg, "t", "g", nil, nil)
	for i := 0; i < 10 && it.Next(); i++ {
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after early stop: %v", err)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err after deliberate Close = %v, want nil", err)
	}
	if it.Next() {
		t.Fatal("Next after Close returned true")
	}
	waitGoroutines(t, baseline, "early Close")

	// FullScan iterators release the same way.
	full := db.FullScan(bg, "t", "g")
	if !full.Next() {
		t.Fatalf("FullScan yielded nothing: %v", full.Err())
	}
	full.Close()
	waitGoroutines(t, baseline, "early Close (full scan)")
}

func TestIteratorCtxCancelSurfacesCanceled(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	loadRows(t, db, "t", "g", 20000)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	it := db.Scan(ctx, "t", "g", nil, nil)
	rows := 0
	for it.Next() {
		if rows++; rows == 5 {
			cancel()
		}
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel = %v, want context.Canceled", err)
	}
	it.Close()
	if rows >= 20000 {
		t.Fatalf("cancellation did not stop the scan (saw all %d rows)", rows)
	}
	waitGoroutines(t, baseline, "ctx cancel")

	// A context cancelled before the scan even starts yields zero rows.
	dead, cancel2 := context.WithCancel(bg)
	cancel2()
	it2 := db.Scan(dead, "t", "g", nil, nil)
	if it2.Next() {
		t.Fatal("cancelled-context iterator yielded a row")
	}
	if err := it2.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	it2.Close()
}

// TestIteratorLifecycle covers every way a Store iterator ends, on both
// backends: Close before the first Next, Close mid-stream, the parent
// context cancelled mid-stream, a producer error surfaced by Err, and a
// scan whose loop writes to the table it scans. The producing scan is a
// coroutine of the caller, so once Close returns the goroutine count is
// back to its value before the scan, with nothing left to wait for.
func TestIteratorLifecycle(t *testing.T) {
	const n = 2000 // about eight iterator batches
	open := map[string]func(t *testing.T, reg *fault.Registry) logbase.Store{
		"embedded": func(t *testing.T, reg *fault.Registry) logbase.Store {
			db, err := logbase.Open(t.TempDir(), logbase.Options{Faults: reg})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return db
		},
		"cluster": func(t *testing.T, reg *fault.Registry) logbase.Store {
			c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3, DFS: dfs.Config{Faults: reg}})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			return logbase.NewClusterClient(c)
		},
	}
	for _, backend := range []string{"embedded", "cluster"} {
		t.Run(backend, func(t *testing.T) {
			reg := fault.New(1)
			st := open[backend](t, reg)
			defer st.Close()
			loadRows(t, st, "t", "g", n)

			var baseline int
			scan := func(ctx context.Context) logbase.Iterator {
				baseline = runtime.NumGoroutine()
				return st.Scan(ctx, "t", "g", nil, nil)
			}
			closed := func(what string, it logbase.Iterator, wantErr error) {
				t.Helper()
				if err := it.Close(); !errors.Is(err, wantErr) {
					t.Fatalf("%s: Close = %v, want %v", what, err, wantErr)
				}
				if err := it.Err(); !errors.Is(err, wantErr) {
					t.Fatalf("%s: Err after Close = %v, want %v", what, err, wantErr)
				}
				if it.Next() {
					t.Fatalf("%s: Next after Close returned true", what)
				}
				if got := runtime.NumGoroutine(); got > baseline {
					buf := make([]byte, 1<<20)
					t.Fatalf("%s: %d goroutines after Close, %d before the scan\n%s",
						what, got, baseline, buf[:runtime.Stack(buf, true)])
				}
			}

			closed("Close before Next", scan(bg), nil)

			it := scan(bg)
			for i := 0; i < 300 && it.Next(); i++ { // past the first batch
			}
			closed("Close mid-stream", it, nil)

			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			it = scan(ctx)
			rows := 0
			for it.Next() {
				if rows++; rows == 5 {
					cancel()
				}
			}
			if rows >= n {
				t.Fatalf("cancel mid-stream: saw all %d rows", rows)
			}
			closed("cancel mid-stream", it, context.Canceled)

			// Every row written inside the loop is newer than the scan's
			// pinned snapshot, so the scan sees exactly the loaded rows.
			it = scan(bg)
			rows = 0
			for it.Next() {
				key := string(it.Row().Key) + "-w"
				if err := st.Put(bg, "t", "g", []byte(key), []byte("v")); err != nil {
					t.Fatalf("Put inside the scan: %v", err)
				}
				rows++
			}
			if rows != n {
				t.Fatalf("scan writing its own table saw %d rows, want %d", rows, n)
			}
			closed("writes inside the scan", it, nil)

			// Every replica's reads fail once the first batch is out.
			boom := errors.New("injected read failure")
			it = scan(bg)
			if !it.Next() {
				t.Fatalf("scan yielded nothing: %v", it.Err())
			}
			for dn := 0; dn < 3; dn++ {
				reg.Arm(fmt.Sprintf("dfs.dn%d.read", dn), fault.Policy{Err: boom})
			}
			for it.Next() {
			}
			if err := it.Err(); !errors.Is(err, boom) {
				t.Fatalf("producer error: Err = %v, want %v", err, boom)
			}
			closed("producer error", it, boom)
			reg.Reset()
		})
	}
}

func TestCancelledParallelScanStopsWithinBatch(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	const n = 50000
	loadRows(t, db, "t", "g", n)

	// Small batches, several workers: cancel inside the first emit and
	// assert the scan stops within one batch boundary per worker.
	const batch, workers = 64, 4
	ctx, cancel := context.WithCancel(bg)
	var emitted int
	err = db.Server().ParallelScan(ctx, "t/0000", "g", coreScanOptions(batch, workers), func(rows []logbase.Row) error {
		if emitted == 0 {
			cancel()
		}
		emitted += len(rows)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelScan err = %v, want context.Canceled", err)
	}
	// Each worker may complete the page it was building when cancel hit,
	// plus one more it had already started.
	if limit := 2 * batch * workers; emitted > limit {
		t.Fatalf("scan emitted %d rows after cancellation, want <= %d", emitted, limit)
	}
}

func TestCancelledClusterQueryReturnsPromptly(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 4})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	loadRows(t, cc, "t", "g", 40000)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := cc.Exec(ctx, logbase.Q("t").Group("g").AggOf(logbase.Sum, "t", logbase.ValExpr()))
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Query err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled cluster Query did not return within 5s")
	}
	waitGoroutines(t, baseline, "cancelled cluster query")

	// The cluster stays healthy: the same query un-cancelled succeeds.
	res, err := cc.Exec(bg, logbase.Q("t").Group("g").Agg(logbase.Count))
	if err != nil || res.Value(0, logbase.Count) != 40000 {
		t.Fatalf("follow-up Query = %v err=%v", res.Value(0, logbase.Count), err)
	}
}

func TestWriteBatchSemantics(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.CreateTable("t", "g")

	// Put then delete of the same key inside one batch applies in order.
	db.Put(bg, "t", "g", []byte("gone"), []byte("x"))
	batch := db.Batch()
	key := make([]byte, 4)
	val := make([]byte, 8)
	for i := 0; i < 100; i++ {
		copy(key, fmt.Sprintf("%04d", i))
		copy(val, fmt.Sprintf("val-%04d", i))
		batch.Put("t", "g", key, val) // reused buffers: batch must copy
	}
	batch.Delete("t", "g", []byte("gone"))
	if batch.Len() != 101 {
		t.Fatalf("Len = %d", batch.Len())
	}
	if err := batch.Flush(bg); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if batch.Len() != 0 {
		t.Fatalf("batch not reset after Flush: %d", batch.Len())
	}
	for _, i := range []int{0, 50, 99} {
		row, err := db.Get(bg, "t", "g", []byte(fmt.Sprintf("%04d", i)))
		if err != nil || string(row.Value) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("row %d = %q err=%v (buffer aliasing?)", i, row.Value, err)
		}
	}
	if _, err := db.Get(bg, "t", "g", []byte("gone")); !errors.Is(err, logbase.ErrNotFound) {
		t.Fatalf("batched delete not applied: %v", err)
	}

	// Unknown table fails the flush and keeps the batch for retry.
	bad := db.Batch()
	bad.Put("nope", "g", []byte("k"), []byte("v"))
	if err := bad.Flush(bg); err == nil {
		t.Fatal("flush to unknown table succeeded")
	}
	if bad.Len() != 1 {
		t.Fatalf("failed flush discarded the batch: Len = %d", bad.Len())
	}

	// Batched writes survive crash-recovery like any other append.
	db.Checkpoint()
	db2, err := db.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	db2.CreateTable("t", "g")
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if row, err := db2.Get(bg, "t", "g", []byte("0042")); err != nil || string(row.Value) != "val-0042" {
		t.Fatalf("batched row lost across crash: %q err=%v", row.Value, err)
	}
}

func TestCloseStopsGroupCommitBatcher(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db, err := logbase.Open(t.TempDir(), logbase.Options{GroupCommit: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.CreateTable("t", "g")

	// A concurrent group-commit workload, so leaders have actually
	// coalesced followers into shared flushes.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := db.Put(bg, "t", "g", key, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitGoroutines(t, baseline, "DB.Close")

	// Close is idempotent, and writes after Close stay durable (they
	// fall through to direct appends).
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := db.Put(bg, "t", "g", []byte("after-close"), []byte("v")); err != nil {
		t.Fatalf("Put after Close: %v", err)
	}
	if _, err := db.Get(bg, "t", "g", []byte("after-close")); err != nil {
		t.Fatalf("Get after Close: %v", err)
	}
}

func TestClusterCloseStopsBatchers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 3,
		Server:     coreGroupCommitConfig(),
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	loadRows(t, cc, "t", "g", 500)
	if err := cc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitGoroutines(t, baseline, "ClusterClient.Close")
}

// Tx.Scan must observe the transaction's own buffered writes
// (read-your-writes): inserts appear, updates shadow, deletes hide —
// on both backends, and nothing leaks out on abort. The rows are
// compacted first, so the merge runs over the clustered scan path.
func TestTxScanReadsOwnWrites(t *testing.T) {
	check := func(t *testing.T, st logbase.Store, compact func() (core.CompactionStats, error)) {
		t.Helper()
		if err := st.CreateTable("t", "g"); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		st.Put(bg, "t", "g", []byte("k1"), []byte("old1"))
		st.Put(bg, "t", "g", []byte("k3"), []byte("old3"))
		if _, err := compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}

		tx := st.Begin(bg)
		tx.Put("t", "g", []byte("k2"), []byte("new2"))     // insert
		tx.Put("t", "g", []byte("k3"), []byte("patched3")) // shadow
		tx.Delete("t", "g", []byte("k1"))                  // hide
		got := map[string]string{}
		err := tx.Scan(bg, "t", "g", nil, nil, func(r logbase.Row) bool {
			got[string(r.Key)] = string(r.Value)
			return true
		})
		if err != nil {
			t.Fatalf("tx.Scan: %v", err)
		}
		want := map[string]string{"k2": "new2", "k3": "patched3"}
		if len(got) != len(want) || got["k2"] != want["k2"] || got["k3"] != want["k3"] {
			t.Fatalf("tx scan = %v, want %v", got, want)
		}
		tx.Abort()

		// Nothing escaped the aborted transaction.
		if _, err := st.Get(bg, "t", "g", []byte("k2")); !errors.Is(err, logbase.ErrNotFound) {
			t.Fatalf("aborted insert visible: %v", err)
		}
		if row, _ := st.Get(bg, "t", "g", []byte("k1")); string(row.Value) != "old1" {
			t.Fatalf("aborted delete applied: %q", row.Value)
		}
	}
	t.Run("embedded", func(t *testing.T) {
		db, err := logbase.Open(t.TempDir(), logbase.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		check(t, db, db.Compact)
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cc := logbase.NewClusterClient(c)
		defer cc.Close()
		check(t, cc, cc.Compact)
	})
}

func TestClusterVersionsAndSecondary(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	if err := cc.CreateTable("profiles", "main"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	// Versions routed to the owning tablet server.
	key := []byte("alice")
	for i := 1; i <= 3; i++ {
		if err := cc.Put(bg, "profiles", "main", key, []byte(fmt.Sprintf("rev%d;city=oslo;", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	vs, err := cc.Read(bg, "profiles", "main", key, logbase.WithAllVersions())
	if err != nil || len(vs) != 3 {
		t.Fatalf("Versions = %d err=%v", len(vs), err)
	}
	if string(vs[0].Value) != "rev1;city=oslo;" {
		t.Fatalf("oldest version = %q", vs[0].Value)
	}

	// Secondary index registered cluster-wide, rows spread over tablets.
	cities := []string{"lima", "oslo", "tokyo"}
	for i := 0; i < 300; i++ {
		k := []byte{byte(i * 256 / 300), byte(i)} // spread across the keyspace
		v := []byte(fmt.Sprintf("u%d;city=%s;", i, cities[i%3]))
		if err := cc.Put(bg, "profiles", "main", k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	extract := func(value []byte) []byte {
		s := string(value)
		i := len(s)
		for j := 0; j+5 < len(s); j++ {
			if s[j:j+5] == "city=" {
				i = j + 5
				break
			}
		}
		if i == len(s) {
			return nil
		}
		end := i
		for end < len(s) && s[end] != ';' {
			end++
		}
		return []byte(s[i:end])
	}
	if err := cc.RegisterSecondaryIndex("by-city", "profiles", "main", extract); err != nil {
		t.Fatalf("RegisterSecondaryIndex: %v", err)
	}
	rows, err := cc.LookupSecondary("by-city", []byte("lima"))
	if err != nil {
		t.Fatalf("LookupSecondary: %v", err)
	}
	if len(rows) != 100 {
		t.Fatalf("lima rows = %d, want 100", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if string(rows[i-1].Key) >= string(rows[i].Key) {
			t.Fatalf("lookup not in primary-key order at %d", i)
		}
	}

	// The index follows updates through the owning server.
	if err := cc.Put(bg, "profiles", "main", rows[0].Key, []byte("moved;city=oslo;")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rows2, _ := cc.LookupSecondary("by-city", []byte("lima"))
	if len(rows2) != 99 {
		t.Fatalf("after move lima rows = %d, want 99", len(rows2))
	}

	// Attribute-range scan merges (secKey, primary) order cluster-wide.
	var lastSec, lastKey string
	n := 0
	err = cc.ScanSecondaryRange("by-city", []byte("lima"), []byte("p"), func(sec []byte, r logbase.Row) bool {
		if string(sec) < lastSec || (string(sec) == lastSec && string(r.Key) <= lastKey) {
			t.Fatalf("range scan out of order at %d: %q/%q after %q/%q", n, sec, r.Key, lastSec, lastKey)
		}
		lastSec, lastKey = string(sec), string(r.Key)
		n++
		return true
	})
	if err != nil {
		t.Fatalf("ScanSecondaryRange: %v", err)
	}
	// lima (99) + oslo (100 + alice + 1 moved) = 201.
	if n != 201 {
		t.Fatalf("range scan rows = %d, want 201", n)
	}
}
