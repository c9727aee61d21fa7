package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/readopt"
	"repro/internal/wal"
)

// TestCompactRefusesTornSealedSegment: a torn frame inside a sealed
// segment is damage, not the segment's end. Compaction must fail and
// keep its input — rewriting only the records before the tear and then
// removing the segment would lose every key after it.
func TestCompactRefusesTornSealedSegment(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Log().Rotate()
	const seg = 1
	sc, err := s.Log().OpenSegmentScanner(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for sc.Next() {
		offs = append(offs, sc.Ptr().Off)
	}
	sc.Close()
	if len(offs) != n {
		t.Fatalf("segment %d holds %d records, want %d", seg, len(offs), n)
	}
	// Flip the high byte of frame 2's length on every replica.
	path := s.Log().SegmentPath(seg)
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 1 << 16
	at := offs[1] + 3
	for _, nid := range blocks[at/blockSize].Replicas {
		if err := fs.CorruptBlockReplica(path, int(at/blockSize), nid, at%blockSize); err != nil {
			t.Fatal(err)
		}
	}

	st, err := s.CompactSegments([]uint32{seg})
	var ce *wal.CorruptionError
	if !errors.As(err, &ce) || ce.Segment != seg || ce.Off != offs[1] {
		t.Fatalf("CompactSegments over a torn sealed segment = %+v, %v; want a CorruptionError at seg %d @%d", st, err, seg, offs[1])
	}
	kept := false
	for _, si := range s.Log().Segments() {
		kept = kept || si.Num == seg
	}
	if !kept {
		t.Fatalf("segment %d removed by a failed compaction", seg)
	}
	readable := 0
	for i := 0; i < n; i++ {
		if _, err := s.Get(testTablet, testGroup, k6(i)); err == nil {
			readable++
		}
	}
	if readable != n-1 {
		t.Fatalf("%d of %d keys readable after the refused compaction, want %d (all but the torn one)", readable, n, n-1)
	}
}

func TestCompactDropsObsoleteAndDeleted(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
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
	err := serialScan(context.Background(), s, testTablet, testGroup, []byte("mid-"), []byte("mid-\xff"), 1<<60, func(r Row) bool {
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
		if err := serialScan(context.Background(), s, testTablet, testGroup, []byte("row-0100"), []byte("row-0150"), 1<<60, func(Row) bool {
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

// TestGetAtVersionPrunedBeforeRead: GetAt holds no pin, so between its
// index descent and its log read a newer write plus a KeepVersions-1
// compaction can prune the version it found. The read must then
// re-descend and return the newer version, not ErrNotFound.
func TestGetAtVersionPrunedBeforeRead(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 12})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	key := []byte("alice")
	if err := s.Write(testTablet, testGroup, key, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, g, err := s.tabletGroup(testTablet, testGroup)
	if err != nil {
		t.Fatal(err)
	}
	stale, ok := g.tree().LatestAt(key, maxTS) // the descent GetAt made
	if !ok {
		t.Fatal("v1 not indexed")
	}
	if err := s.Write(testTablet, testGroup, key, 2, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // seal segments so the compaction covers v1's
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("pad%03d", i)), 1, make([]byte, 64))
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := s.log.Read(stale.Ptr); err == nil {
		t.Fatal("v1's record is still readable at its old pointer; the race is not set up")
	}
	if _, ok := g.tree().Get(key, 1); ok {
		t.Fatal("v1 still indexed after a KeepVersions-1 compaction")
	}
	e, rec, err := s.readVisible(g, key, maxTS, stale)
	if err != nil {
		t.Fatalf("readVisible after v1 was pruned: %v, want v2", err)
	}
	if e.TS != 2 || string(rec.Value) != "v2" {
		t.Fatalf("readVisible = ts %d %q, want ts 2 \"v2\"", e.TS, rec.Value)
	}
}

// sweepFixture is a server on one large segment and one large DFS
// block, holding n 256 B rows written at timestamp ts, so a sweep's
// allocations count neither segment switches nor the DFS's per-block
// read bookkeeping.
func sweepFixture(t *testing.T, n int) *Server {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, fs, "ts1", Config{SegmentSize: 64 << 20})
	writeRows(t, s, n, 1)
	return s
}

// writeRows writes keys 0..n-1 at timestamp ts with 256 B values, a
// thousand to a batch.
func writeRows(t *testing.T, s *Server, n int, ts int64) {
	t.Helper()
	batch := make([]BatchWrite, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, BatchWrite{Tablet: testTablet, Group: testGroup, Key: k6(i), Value: make([]byte, 256), TS: ts})
		if len(batch) == cap(batch) || i == n-1 {
			if err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// The log-order sweeps filter each frame in place and copy only what
// they keep. An index-less full scan whose value filter rejects every
// row, and the garbage audit of a segment whose every record is dead,
// allocate the same over 10 K records as over 40 K (give or take the
// window buffers a -race build's sync.Pool drops): per segment, not per
// record.
func TestSweepsRejectingEveryRecordAllocatePerSegment(t *testing.T) {
	fullScan := func(n int) float64 {
		s := sweepFixture(t, n)
		ro := readopt.Options{Value: readopt.Contains([]byte("absent"))}
		return testing.AllocsPerRun(10, func() {
			err := s.FullScanOpts(bg, testTablet, testGroup, ro, func(Row) bool {
				t.Fatal("the value filter passed a row")
				return false
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	audit := func(n int) float64 {
		s := sweepFixture(t, n)
		s.Log().Rotate()
		writeRows(t, s, n, 2) // supersedes every record of the first segment
		return testing.AllocsPerRun(10, s.auditGarbage)
	}
	for name, allocs := range map[string]func(int) float64{"full scan": fullScan, "audit": audit} {
		small, large := allocs(10000), allocs(40000)
		t.Logf("%s allocs: %v at 10 K records, %v at 40 K", name, small, large)
		if large > small+6 || large > 16 {
			t.Fatalf("%s allocs: %v at 10 K records, %v at 40 K; want the same, and <= 16", name, small, large)
		}
	}
}
