package core

import (
	"context"
	"errors"
	"reflect"
	"repro/internal/readopt"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/wal"
)

// splitElastic replaces testTablet with one bounded tablet holding n
// rows and splits it at its population midpoint.
func splitElastic(t *testing.T, s *Server, n int) (left, right partition.Tablet) {
	t.Helper()
	spec := elasticTablet()
	s.RemoveTablet(testTablet)
	s.AddTablet(spec, []string{testGroup})
	for i := 0; i < n; i++ {
		if err := s.Write(spec.ID, testGroup, ek(i), int64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mid, ok := s.SplitKey(spec.ID)
	if !ok {
		t.Fatal("SplitKey found no midpoint")
	}
	lr, rr, err := spec.Range.Split(mid)
	if err != nil {
		t.Fatal(err)
	}
	left = partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
	right = partition.Tablet{ID: "users/0002", Table: "users", Range: rr}
	if err := s.SplitTablet(spec.ID, left, right); err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	return left, right
}

// Pre-split records carry the parent's tablet id; a whole-log
// compaction after the split must route them into the children like
// every other consumer of the log does.
func TestCompactAfterSplitKeepsRows(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const n = 200
	left, right := splitElastic(t, s, n)
	scanAll := func() []string {
		var keys []string
		for _, id := range []string{left.ID, right.ID} {
			err := serialScan(context.Background(), s, id, testGroup, nil, nil, maxTS, func(r Row) bool {
				keys = append(keys, string(r.Key)+"="+string(r.Value))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return keys
	}
	before := scanAll()
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsIn != n || st.RecordsKept != n {
		t.Fatalf("compaction stats %+v, want %d records in and kept", st, n)
	}
	if got := s.IndexLen(left.ID, testGroup) + s.IndexLen(right.ID, testGroup); got != n {
		t.Fatalf("children index %d entries after compaction, want %d", got, n)
	}
	if after := scanAll(); !reflect.DeepEqual(before, after) {
		t.Fatalf("scan changed across compaction: %d rows before, %d after", len(before), len(after))
	}
}

// The log-order full scan is one more consumer of pre-split records: it
// must find them through the children on a log no compaction has
// rewritten yet.
func TestFullScanAfterSplitKeepsRows(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const n = 200
	left, right := splitElastic(t, s, n)
	rows := 0
	for _, id := range []string{left.ID, right.ID} {
		if err := s.FullScanOpts(context.Background(), id, testGroup, readopt.Options{}, func(Row) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if rows != n {
		t.Fatalf("full scan through the children saw %d of %d rows", rows, n)
	}
}

// A replica's apply resolves the tablet and installs under one hold of
// the install latch: a split landing between two applies moves later
// records into the covering child, and none is ever refused.
func TestApplyReplicatedDuringSplit(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		s, _ := newTestServer(t, Config{})
		spec := elasticTablet()
		s.RemoveTablet(testTablet)
		s.AddTablet(spec, []string{testGroup})
		lr, rr, err := spec.Range.Split(ek(50))
		if err != nil {
			t.Fatal(err)
		}
		left := partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
		right := partition.Tablet{ID: "users/0002", Table: "users", Range: rr}

		const n = 100
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SplitTablet(spec.ID, left, right); err != nil {
				t.Errorf("SplitTablet: %v", err)
			}
		}()
		for i := 0; i < n; i++ {
			rec := &wal.Record{
				Kind: wal.KindWrite, Table: "users", Tablet: spec.ID, Group: testGroup,
				Key: ek(i), TS: int64(i + 1), Value: []byte("v"),
			}
			ok, err := s.ApplyReplicated(rec)
			if err != nil || !ok {
				t.Fatalf("iteration %d record %d: applied=%v err=%v", iter, i, ok, err)
			}
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			id := left.ID
			if i >= 50 {
				id = right.ID
			}
			if _, err := s.Get(id, testGroup, ek(i)); err != nil {
				t.Fatalf("iteration %d: %s missing from %s: %v", iter, ek(i), id, err)
			}
		}
		s.Close()
	}
}

// The one-phase and two-phase commit paths install through the same
// code, so the same write set leaves the same accounting behind.
func TestTwoPhaseCommitAccountingParity(t *testing.T) {
	run := func(t *testing.T, commit func(s *Server, txnID uint64, ts int64, ws []TxnWrite)) (CompactionInfo, [2]int64, []TabletLoad, int64) {
		s, _ := newTestServer(t, Config{})
		s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
		for i := 0; i < 20; i++ {
			if err := s.Write(testTablet, testGroup, ek(i), int64(i+1), []byte("old-value")); err != nil {
				t.Fatal(err)
			}
		}
		var ws []TxnWrite
		for i := 0; i < 10; i++ {
			ws = append(ws, TxnWrite{Tablet: testTablet, Group: testGroup, Key: ek(i), Value: []byte("new-value")})
		}
		for i := 10; i < 15; i++ {
			ws = append(ws, TxnWrite{Tablet: testTablet, Group: testGroup, Key: ek(i), Delete: true})
		}
		commit(s, 7, 100, ws)
		info := s.CompactionInfo()
		for i := range info.Segments {
			info.Segments[i].Size = 0 // a 2PC log frames the same records differently
		}
		info.LogBytes, info.GarbageRatio, info.SortedFraction = 0, 0, 0
		return info, [2]int64{s.Stats().Writes.Load(), s.Stats().Deletes.Load()}, s.SampleLoad(), s.maxAppliedTS.Load()
	}
	info1, stats1, load1, ts1 := run(t, func(s *Server, id uint64, ts int64, ws []TxnWrite) {
		if err := s.ApplyTxn(id, ts, ws); err != nil {
			t.Fatal(err)
		}
	})
	info2, stats2, load2, ts2 := run(t, func(s *Server, id uint64, ts int64, ws []TxnWrite) {
		p, err := s.PrepareTxn(id, ts, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTxn(id, ts, p); err != nil {
			t.Fatal(err)
		}
	})
	var garbage int64
	for _, si := range info1.Segments {
		garbage += si.Garbage
	}
	if garbage == 0 {
		t.Fatal("ApplyTxn credited no garbage for 10 overwrites and 5 deletes")
	}
	if !reflect.DeepEqual(info1, info2) {
		t.Errorf("CompactionInfo differs:\n 1PC %+v\n 2PC %+v", info1, info2)
	}
	if stats1 != stats2 {
		t.Errorf("Stats differ: 1PC writes/deletes %v, 2PC %v", stats1, stats2)
	}
	if !reflect.DeepEqual(load1, load2) {
		t.Errorf("SampleLoad differs: 1PC %+v, 2PC %+v", load1, load2)
	}
	if ts1 != 100 || ts2 != 100 {
		t.Errorf("max applied timestamp: 1PC %d, 2PC %d, want 100", ts1, ts2)
	}
}

// A tombstone removes the versions that order before it and nothing
// that orders after it, whichever arrives first; the read buffer only
// ever holds a key's newest version.
func TestDeleteOrderingAndReadBuffer(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	key := []byte("k")
	write := func(ts int64, v string) {
		t.Helper()
		if err := s.Write(testTablet, testGroup, key, ts, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	write(5, "v5")
	write(9, "v9")
	// A late tombstone (re-shipped history) must not touch v9.
	if err := s.Delete(testTablet, testGroup, key, 7); err != nil {
		t.Fatal(err)
	}
	if row, err := s.Get(testTablet, testGroup, key); err != nil || row.TS != 9 {
		t.Fatalf("after late tombstone: row %+v err %v, want ts 9", row, err)
	}
	if _, err := s.GetAt(testTablet, testGroup, key, 6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("version 5 survived the tombstone at 7: %v", err)
	}
	// A replayed historical version must not displace the cached newest.
	write(8, "v8")
	if row, err := s.Get(testTablet, testGroup, key); err != nil || string(row.Value) != "v9" {
		t.Fatalf("after historical write: row %+v err %v, want v9", row, err)
	}
	// A newer version refreshes the cached row; a bulk load of rows
	// nobody has read adds nothing.
	write(12, "v12")
	logReads := s.Stats().LogReads.Load()
	if row, err := s.Get(testTablet, testGroup, key); err != nil || string(row.Value) != "v12" || s.Stats().LogReads.Load() != logReads {
		t.Fatalf("after newer write: row %+v err %v, want v12 from the buffer", row, err)
	}
	items := s.CacheStats().Items
	if err := s.ApplyBatch([]BatchWrite{{Tablet: testTablet, Group: testGroup, Key: []byte("bulk"), Value: []byte("v"), TS: 13}}); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Items; got != items {
		t.Fatalf("bulk load grew the read buffer from %d to %d rows", items, got)
	}
}

// A tablet that moves away takes its read-buffer entries with it: what
// the next owner deletes must not read back if the tablet returns.
func TestRemoveTabletPurgesReadBuffer(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	if err := s.Write(testTablet, testGroup, []byte("k"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.RemoveTablet(testTablet)
	s.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup})
	if _, err := s.Get(testTablet, testGroup, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on a re-added empty tablet: %v, want ErrNotFound", err)
	}
}

// An incremental compaction writes its output into a segment numbered
// above the one still open for append; a migration round must reach it,
// and must read the source's log without sealing its active segment.
func TestCatchUpAfterIncrementalCompaction(t *testing.T) {
	src, fs := newTestServer(t, Config{})
	spec := elasticTablet()
	src.RemoveTablet(testTablet)
	src.AddTablet(spec, []string{testGroup})
	write := func(from, to int) {
		for i := from; i < to; i++ {
			if err := src.Write(spec.ID, testGroup, ek(i), int64(i+1), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 100)
	src.Log().Rotate()
	write(100, 120) // the active segment is live while the sealed one compacts
	var sealed []uint32
	for _, si := range src.Log().Segments() {
		if si.Num != src.Log().ActiveSegment() {
			sealed = append(sealed, si.Num)
		}
	}
	if _, err := src.CompactSegments(sealed); err != nil {
		t.Fatal(err)
	}
	dst := mustServer(t, fs, "ts2", Config{})
	dst.RemoveTablet(testTablet)
	dst.AddTablet(spec, []string{testGroup})
	rs, err := dst.NewReplaySession(src.Log(), wal.Position{}, []partition.Tablet{spec})
	if err != nil {
		t.Fatal(err)
	}
	catchUp := func() int {
		t.Helper()
		active := src.Log().ActiveSegment()
		n, err := rs.CatchUp()
		if err != nil {
			t.Fatal(err)
		}
		if got := src.Log().ActiveSegment(); got != active {
			t.Fatalf("CatchUp moved the source's active segment from %d to %d", active, got)
		}
		return n
	}
	catchUp()
	write(120, 130)
	if n := catchUp(); n != 10 {
		t.Fatalf("second round applied %d, want the 10 new rows", n)
	}
	if got := dst.IndexLen(spec.ID, testGroup); got != 130 {
		t.Fatalf("migrated %d rows, want 130", got)
	}
}
