package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wal"
)

func TestCompactDropsObsoleteAndDeleted(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14, CompactKeepVersions: 1})
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		for v := int64(1); v <= 5; v++ {
			s.Write(testTablet, testGroup, key, v, []byte(fmt.Sprintf("v%d", v)))
		}
	}
	s.Delete(testTablet, testGroup, []byte("k00"), 10)
	sizeBefore := s.Log().Size()

	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.RecordsIn != 251 {
		t.Errorf("RecordsIn = %d, want 251", st.RecordsIn)
	}
	// KeepVersions=1: one survivor per live key; k00 fully vacuumed.
	if st.RecordsKept != 49 {
		t.Errorf("RecordsKept = %d, want 49", st.RecordsKept)
	}
	if s.Log().Size() >= sizeBefore {
		t.Errorf("log grew after compaction: %d -> %d", sizeBefore, s.Log().Size())
	}
	if got := s.SortedFraction(); got < 0.95 {
		t.Errorf("sorted fraction = %.2f, want >0.95", got)
	}
	// Data correctness after compaction.
	for i := 1; i < 50; i++ {
		row, err := s.Get(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(row.Value) != "v5" || row.TS != 5 {
			t.Fatalf("k%02d after compaction: %+v err=%v", i, row, err)
		}
	}
	if _, err := s.Get(testTablet, testGroup, []byte("k00")); !errors.Is(err, ErrNotFound) {
		t.Error("vacuumed key still visible")
	}
}

func TestCompactKeepsAllVersionsByDefault(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	key := []byte("multi")
	for v := int64(1); v <= 4; v++ {
		s.Write(testTablet, testGroup, key, v*10, []byte(fmt.Sprintf("v%d", v)))
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	rows, err := versionsOf(s, key)
	if err != nil || len(rows) != 4 {
		t.Fatalf("Versions after compaction = %d, err %v", len(rows), err)
	}
	// Historical access still works from sorted segments.
	row, err := s.GetAt(testTablet, testGroup, key, 25)
	if err != nil || string(row.Value) != "v2" {
		t.Errorf("GetAt(25) = %+v err=%v", row, err)
	}
}

func TestCompactDropsUncommittedTxn(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	s.Write(testTablet, testGroup, []byte("ok"), 1, []byte("v"))
	rec := &wal.Record{
		Kind: wal.KindWrite, Table: "users", Tablet: testTablet, Group: testGroup,
		Key: []byte("orphan"), TS: 5, Value: []byte("uncommitted"), TxnID: 42,
	}
	if _, err := s.Log().Append(rec); err != nil {
		t.Fatalf("raw append: %v", err)
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.RecordsKept != 1 {
		t.Errorf("kept %d records, want 1 (uncommitted dropped)", st.RecordsKept)
	}
}

func TestCompactPreservesCommittedTxnAcrossRecovery(t *testing.T) {
	// Compaction strips TxnIDs from committed writes; a later recovery
	// scanning sorted segments must still see them even though the
	// commit records were vacuumed.
	s, fs := newTestServer(t, Config{SegmentSize: 1 << 14})
	s.ApplyTxn(3, 77, []TxnWrite{{Tablet: testTablet, Group: testGroup, Key: []byte("txk"), Value: []byte("txv")}})
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	row, err := s2.Get(testTablet, testGroup, []byte("txk"))
	if err != nil || string(row.Value) != "txv" || row.TS != 77 {
		t.Errorf("committed txn write lost after compact+recover: %+v err=%v", row, err)
	}
}

func TestCompactRefreshesCheckpoint(t *testing.T) {
	s, fs := newTestServer(t, Config{SegmentSize: 1 << 14})
	for i := 0; i < 30; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i)), int64(i+1), []byte("v"))
	}
	s.Checkpoint() // references pre-compaction segments
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Recovery after compaction must work from the refreshed checkpoint.
	s2 := crashAndRestart(t, fs, "ts1", Config{})
	st, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint {
		t.Error("refreshed checkpoint missing")
	}
	for i := 0; i < 30; i++ {
		if _, err := s2.Get(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost: %v", i, err)
		}
	}
}

func TestCompactEmptyLog(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact on empty log: %v", err)
	}
}

func TestWritesDuringCompactionSurvive(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	for i := 0; i < 200; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("pre-%03d", i)), int64(i+1), []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
			key := []byte(fmt.Sprintf("mid-%04d", i))
			if err := s.Write(testTablet, testGroup, key, int64(1000+i), []byte("m")); err != nil {
				t.Errorf("concurrent write: %v", err)
				return
			}
			i++
		}
	}()
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	close(stop)
	wg.Wait()

	// Everything written before and during compaction is readable.
	for i := 0; i < 200; i++ {
		if _, err := s.Get(testTablet, testGroup, []byte(fmt.Sprintf("pre-%03d", i))); err != nil {
			t.Fatalf("pre-%03d lost: %v", i, err)
		}
	}
	missed := 0
	checked := 0
	err := s.Scan(context.Background(), testTablet, testGroup, []byte("mid-"), []byte("mid-\xff"), 1<<60, func(r Row) bool {
		checked++
		return true
	})
	if err != nil {
		t.Fatalf("scan of mid keys: %v", err)
	}
	_ = missed
	if checked == 0 {
		t.Log("no concurrent writes landed during compaction window (timing)")
	}
}

func TestRangeScanClusteredAfterCompaction(t *testing.T) {
	// Fig 10's mechanism: after compaction the log is sorted, so a range
	// scan touches far fewer random locations.
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 13})
	// Insert keys in random-ish interleaved order.
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("row-%04d", (i*197)%400))
		s.Write(testTablet, testGroup, key, int64(i+1), []byte("vvvvvvvvvv"))
	}
	scan := func() int {
		n := 0
		if err := s.Scan(context.Background(), testTablet, testGroup, []byte("row-0100"), []byte("row-0150"), 1<<60, func(Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return n
	}
	if got := scan(); got != 50 {
		t.Fatalf("pre-compaction scan = %d rows", got)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := scan(); got != 50 {
		t.Fatalf("post-compaction scan = %d rows", got)
	}
	if s.SortedFraction() < 0.95 {
		t.Errorf("sorted fraction %.2f after compaction", s.SortedFraction())
	}
}
