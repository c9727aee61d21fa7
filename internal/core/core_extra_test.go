package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/wal"
)

func tabletSpecForTest() partition.Tablet {
	return partition.Tablet{ID: testTablet, Table: "users"}
}

func tabletSpec2() partition.Tablet {
	return partition.Tablet{ID: "users/0001", Table: "users"}
}

func newTestDFS(t *testing.T) (*dfs.DFS, error) {
	t.Helper()
	return dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
}

func TestVersionsAfterDeleteEmpty(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("k")
	for ts := int64(1); ts <= 3; ts++ {
		s.Write(testTablet, testGroup, key, ts, []byte("v"))
	}
	s.Delete(testTablet, testGroup, key, 4)
	rows, err := versionsOf(s, key)
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	if len(rows) != 0 {
		t.Errorf("deleted key has %d visible versions", len(rows))
	}
}

func TestFullScanSkipsUncommittedTxnWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("visible"), 1, []byte("v"))
	// Prepared-but-uncommitted write: durable in the log, absent from
	// the index, and therefore invisible to scans (paper §3.7.2: "Scan
	// operations also check and only return data whose corresponding
	// commit record exists" — in this implementation uncommitted writes
	// never enter the index at all, which subsumes the check).
	if _, err := s.PrepareTxn(77, 50, []TxnWrite{{Tablet: testTablet, Group: testGroup, Key: []byte("ghost"), Value: []byte("u")}}); err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	var keys []string
	if err := s.FullScan(context.Background(), testTablet, testGroup, func(r Row) bool {
		keys = append(keys, string(r.Key))
		return true
	}); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if len(keys) != 1 || keys[0] != "visible" {
		t.Errorf("scan returned %v; uncommitted write leaked", keys)
	}
	if _, err := s.Get(testTablet, testGroup, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("uncommitted write readable: %v", err)
	}
}

func TestPrepareThenCommitVisible(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	p, err := s.PrepareTxn(5, 99, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("a"), Value: []byte("1")},
	})
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	if err := s.CommitTxn(5, 99, p); err != nil {
		t.Fatalf("CommitTxn: %v", err)
	}
	row, err := s.Get(testTablet, testGroup, []byte("a"))
	if err != nil || row.TS != 99 {
		t.Errorf("row = %+v err=%v", row, err)
	}
}

func TestCheckpointDuringConcurrentWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 15})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Write(testTablet, testGroup, []byte(fmt.Sprintf("c%05d", i)), int64(i+1), []byte("v"))
			i++
		}
	}()
	for i := 0; i < 5; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCachePolicyPluggable(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	_ = fs
	// A server with the CLOCK policy behaves identically for
	// correctness; this pins the Config.CachePolicy wiring.
	fs2 := s.fs
	s2, err := NewServer(fs2, "ts-clock", Config{ReadCacheBytes: 1 << 16, CachePolicy: cache.NewClock(), SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s2.AddTablet(tabletSpecForTest(), []string{testGroup})
	s2.Write(testTablet, testGroup, []byte("k"), 1, []byte("v"))
	if _, err := s2.Get(testTablet, testGroup, []byte("k")); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("k")); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if s2.CacheStats().Hits == 0 {
		t.Error("clock-policy cache recorded no hits")
	}
}

func TestRecoverTabletsSkipsOtherTablets(t *testing.T) {
	fs, err := newTestDFS(t)
	if err != nil {
		t.Fatalf("dfs: %v", err)
	}
	dead := mustServer(t, fs, "dead", Config{})
	dead.AddTablet(tabletSpec2(), []string{testGroup})
	dead.Write(testTablet, testGroup, []byte("mine"), 1, []byte("v"))
	dead.Write("users/0001", testGroup, []byte("other"), 2, []byte("v"))

	heir := mustServer(t, fs, "heir", Config{})
	n, err := heir.RecoverTablets("dead", wal.Position{}, []string{testTablet})
	if err != nil {
		t.Fatalf("RecoverTablets: %v", err)
	}
	if n != 1 {
		t.Errorf("adopted %d records, want 1 (only the requested tablet)", n)
	}
	if _, err := heir.Get(testTablet, testGroup, []byte("mine")); err != nil {
		t.Errorf("adopted record missing: %v", err)
	}
}

func TestScanEmptyRange(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("m"), 1, []byte("v"))
	n := 0
	if err := s.Scan(context.Background(), testTablet, testGroup, []byte("x"), []byte("z"), 10, func(Row) bool { n++; return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 0 {
		t.Errorf("empty range returned %d rows", n)
	}
}

func TestCompactTwiceIdempotent(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	for i := 0; i < 100; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), int64(i+1), []byte("v"))
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("first Compact: %v", err)
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if st.Dropped != 0 {
		t.Errorf("second compaction dropped %d records from already-clean log", st.Dropped)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Get(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("k%03d lost: %v", i, err)
		}
	}
}
