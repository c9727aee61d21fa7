package core

// Tests for the clustered scan fast path and garbage-triggered
// incremental compaction: fast-path/index-path agreement, segment
// liveness rules, recovery after relocation, garbage accounting, the
// background loop, and the scan-during-compaction -race regression.

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/readopt"
)

var bg = context.Background()

func k6(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

func newTestFS(t *testing.T) (*dfs.DFS, error) {
	t.Helper()
	return dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
}

func testTabletSpec() partition.Tablet {
	return partition.Tablet{ID: testTablet, Table: "users"}
}

// sealAndCompactUnsorted rotates the tail and incrementally compacts
// every unsorted segment.
func sealAndCompactUnsorted(t *testing.T, s *Server) CompactionStats {
	t.Helper()
	s.Log().Rotate()
	var nums []uint32
	for _, si := range s.Log().Segments() {
		if !si.Sorted {
			nums = append(nums, si.Num)
		}
	}
	st, err := s.CompactSegments(nums)
	if err != nil {
		t.Fatalf("CompactSegments(%v): %v", nums, err)
	}
	return st
}

// scanAll drains a serial index-order scan at snapshot ts.
func scanAll(t *testing.T, s *Server, ts int64, start, end []byte) []Row {
	t.Helper()
	return scanRows(t, s, testTablet, ScanOptions{Start: start, End: end, TS: ts, Workers: 1})
}

// scanRows drains a scan of tablet under opt, copying every row out.
func scanRows(t *testing.T, s *Server, tablet string, opt ScanOptions) []Row {
	t.Helper()
	var out []Row
	err := s.ParallelScan(bg, tablet, testGroup, opt, func(rows []Row) error {
		for _, r := range rows {
			out = append(out, Row{Key: append([]byte(nil), r.Key...), TS: r.TS, Value: append([]byte(nil), r.Value...)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestClusteredScanAgreesWithIndexPath builds overlapping sorted
// segments (one holding two versions of some keys) plus an unsorted
// tail plus deletes, and checks the clustered read and the forced index
// path return identical rows: for a spread of ranges and snapshots, a
// value predicate with a LIMIT, a MinTS/MaxTS window, a reverse scan, a
// 4-worker scan, a full scan, and the two children of a split tablet.
func TestClusteredScanAgreesWithIndexPath(t *testing.T) {
	build := func(noClustered bool) *Server {
		s, _ := newTestServer(t, Config{NoClusteredScan: noClustered})
		ts := int64(0)
		write := func(k int, v string) {
			ts++
			if err := s.Write(testTablet, testGroup, k6(k), ts, []byte(v)); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		// Two interleaved rounds, compacted separately -> overlapping
		// sorted segments. Round 0 also overwrites every fourth of its
		// keys (ts 401..500) before its compaction, so its sorted segment
		// holds two versions of each: key k6(8j) gets "v0b" at ts 401+j.
		for r := 0; r < 2; r++ {
			for i := 0; i < 400; i++ {
				write(i*2+r, fmt.Sprintf("v%d-%d", r, i))
			}
			for i := 0; r == 0 && i < 400; i += 4 {
				write(i*2, fmt.Sprintf("v0b-%d", i))
			}
			sealAndCompactUnsorted(t, s)
		}
		// Unsorted tail: overwrites and fresh keys.
		for i := 0; i < 100; i++ {
			write(i*3, fmt.Sprintf("tail%d", i))
		}
		for i := 900; i < 950; i++ {
			write(i, "fresh")
		}
		// Deletes of keys living in sorted segments.
		for i := 0; i < 40; i++ {
			ts++
			if err := s.Delete(testTablet, testGroup, k6(i*7), ts); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		return s
	}
	fast := build(false)
	slow := build(true)
	if f := fast.SortedFraction(); f <= 0 {
		t.Fatalf("fixture has no sorted segments (fraction %v)", f)
	}

	// same scans tablet under opt on both servers and requires identical
	// rows (in key order when a sharded scan leaves batch order open). It
	// returns the clustered side's rows and how many clustered scans it
	// counted.
	same := func(what, tablet string, opt ScanOptions) ([]Row, int64) {
		t.Helper()
		scans := fast.obs.clusteredScans.Load()
		got := scanRows(t, fast, tablet, opt)
		scans = fast.obs.clusteredScans.Load() - scans
		want := scanRows(t, slow, tablet, opt)
		if opt.Workers > 1 {
			byKey := func(a, b Row) int { return bytes.Compare(a.Key, b.Key) }
			slices.SortFunc(got, byKey)
			slices.SortFunc(want, byKey)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: clustered %d rows, index %d", what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s row %d: clustered %q@%d %q, index %q@%d %q",
					what, i, got[i].Key, got[i].TS, got[i].Value, want[i].Key, want[i].TS, want[i].Value)
			}
		}
		return got, scans
	}

	ranges := []struct{ start, end []byte }{
		{nil, nil},
		{k6(100), k6(700)},
		{k6(850), nil},
		{nil, k6(10)},
	}
	for _, ts := range []int64{1 << 40, 450, 500, 850, 1} {
		for _, rg := range ranges {
			same(fmt.Sprintf("ts=%d [%q,%q)", ts, rg.start, rg.end), testTablet, ScanOptions{Start: rg.start, End: rg.end, TS: ts, Workers: 1})
		}
	}

	// At ts 450 key k6(400) (j=50) sees its older version, which lies in
	// the same sorted segment as its newer one.
	old, scans := same("older version in a sorted segment", testTablet, ScanOptions{Start: k6(400), End: k6(401), TS: 450, Workers: 1})
	if len(old) != 1 || string(old[0].Value) != "v0-200" || scans != 1 {
		t.Fatalf("k6(400) at ts 450: %d rows %q over %d clustered scans, want the older v0-200 read clustered", len(old), old, scans)
	}

	// Push-down predicates: a value predicate under a LIMIT, a commit
	// time window.
	if rows, _ := same("value predicate, LIMIT 30", testTablet, ScanOptions{TS: 1 << 40, Limit: 30, ValuePred: readopt.Contains([]byte("v1-")), Workers: 1}); len(rows) != 30 {
		t.Fatalf("value predicate under LIMIT 30 returned %d rows", len(rows))
	}
	if rows, _ := same("MinTS/MaxTS window", testTablet, ScanOptions{TS: 1 << 40, MinTS: 300, MaxTS: 700, Workers: 1}); len(rows) == 0 {
		t.Fatal("the time window selected no rows")
	}

	// A reverse scan falls back to the index path; a 4-worker scan reads
	// clustered in every shard.
	if _, scans := same("reverse", testTablet, ScanOptions{TS: 1 << 40, Reverse: true}); scans != 0 {
		t.Fatalf("a reverse scan counted %d clustered scans, want 0", scans)
	}
	if _, scans := same("4 workers", testTablet, ScanOptions{TS: 1 << 40, Workers: 4}); scans < 2 {
		t.Fatalf("a 4-worker scan counted %d clustered scans, want one per shard", scans)
	}

	// Limit + key predicate push-down on the clustered read.
	limited, _ := same("key predicate, LIMIT 25", testTablet, ScanOptions{TS: 1 << 40, Limit: 25, Workers: 1, KeyPred: readopt.Contains([]byte("3"))})
	if len(limited) != 25 {
		t.Fatalf("limited clustered scan returned %d rows, want 25", len(limited))
	}
	for _, r := range limited {
		if !bytes.Contains(r.Key, []byte("3")) {
			t.Fatalf("key predicate leaked %q", r.Key)
		}
	}

	// FullScan over the clustered read sees exactly the live rows.
	fastRows, slowRows := 0, 0
	if err := fast.FullScanOpts(bg, testTablet, testGroup, readopt.Options{}, func(Row) bool { fastRows++; return true }); err != nil {
		t.Fatalf("FullScan fast: %v", err)
	}
	if err := slow.FullScanOpts(bg, testTablet, testGroup, readopt.Options{}, func(Row) bool { slowRows++; return true }); err != nil {
		t.Fatalf("FullScan slow: %v", err)
	}
	if fastRows != slowRows {
		t.Fatalf("FullScan clustered saw %d rows, fallback %d", fastRows, slowRows)
	}

	// A split tablet: both children read the parent's sorted segments,
	// each through its own slice of the index.
	lr, rr, err := partition.Range{}.Split(k6(451))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	left := partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
	right := partition.Tablet{ID: "users/0002", Table: "users", Range: rr}
	for _, s := range []*Server{fast, slow} {
		if err := s.SplitTablet(testTablet, left, right); err != nil {
			t.Fatalf("SplitTablet: %v", err)
		}
	}
	for _, child := range []string{left.ID, right.ID} {
		for _, ts := range []int64{1 << 40, 450, 850} {
			if _, scans := same(fmt.Sprintf("child %s ts=%d", child, ts), child, ScanOptions{TS: ts, Workers: 1}); scans != 1 {
				t.Fatalf("child %s ts=%d counted %d clustered scans, want 1", child, ts, scans)
			}
		}
		same(fmt.Sprintf("child %s [k6(300), k6(600))", child), child, ScanOptions{Start: k6(300), End: k6(600), TS: 1 << 40, Workers: 1})
	}
}

// limitFixture writes three interleaved rounds of 2000 keys, compacting
// each into its own sorted segment spanning the whole keyspace, then an
// unsorted tail overwriting every tenth of the first 200 keys, on a
// server with cfg. It returns the last timestamp used.
func limitFixture(t *testing.T, cfg Config) (*Server, *dfs.DFS, int64) {
	t.Helper()
	s, fs := newTestServer(t, cfg)
	pad := bytes.Repeat([]byte{'.'}, 200)
	ts := int64(0)
	write := func(k int, v string) {
		ts++
		if err := s.Write(testTablet, testGroup, k6(k), ts, append([]byte(v), pad...)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i := 0; i < 2000; i++ {
			write(i*rounds+r, fmt.Sprintf("r%d", r))
		}
		sealAndCompactUnsorted(t, s)
	}
	for k := 0; k < 200; k += 10 {
		write(k, "tail")
	}
	return s, fs, ts
}

// diskBytesRead sums the modelled-disk bytes read across every datanode.
func diskBytesRead(fs *dfs.DFS) int64 {
	var n int64
	for i := 0; i < fs.NumDataNodes(); i++ {
		n += fs.DataNode(i).Disk().Stats().BytesRead
	}
	return n
}

// hookCtx runs hook on every Err call. scanShard checks its context
// before each page's index walk and again before that page's fetch, so
// call 2 runs between the first page's collection and its fetch.
type hookCtx struct {
	context.Context
	calls int
	hook  func(call int)
}

func (c *hookCtx) Err() error {
	c.calls++
	c.hook(c.calls)
	return c.Context.Err()
}

// TestClusteredLimitScanReadsOnlyWhatItReturns: a LIMIT-100 clustered
// scan over several sorted segments returns the index path's rows while
// reading about one sparse-index block per segment, not each segment's
// whole read-ahead. When a concurrent delete makes rows of the first page
// vanish at fetch time, the scan still returns exactly LIMIT rows, and
// the next page asks only for the rows still owed.
func TestClusteredLimitScanReadsOnlyWhatItReturns(t *testing.T) {
	const limit = 100
	fast, fs, ts := limitFixture(t, Config{})
	slow, _, _ := limitFixture(t, Config{NoClusteredScan: true})
	sorted, tailBytes := 0, int64(0)
	for _, si := range fast.Log().Segments() {
		if si.Sorted {
			sorted++
		} else {
			tailBytes += si.Size
		}
	}
	if sorted < 3 || tailBytes == 0 {
		t.Fatalf("fixture has %d sorted segments and %d unsorted bytes, want >= 3 and > 0", sorted, tailBytes)
	}
	limitScan := func(s *Server, ctx context.Context) (rows []Row, pages []int) {
		t.Helper()
		err := s.ParallelScan(ctx, testTablet, testGroup, ScanOptions{TS: 1 << 40, Limit: limit, Workers: 1},
			func(rs []Row) error {
				pages = append(pages, len(rs))
				for _, r := range rs {
					rows = append(rows, Row{Key: append([]byte(nil), r.Key...), TS: r.TS, Value: append([]byte(nil), r.Value...)})
				}
				return nil
			})
		if err != nil {
			t.Fatalf("limit scan: %v", err)
		}
		return rows, pages
	}
	sameRows := func(got, want []Row) {
		t.Helper()
		if len(got) != limit || len(want) != limit {
			t.Fatalf("clustered %d rows, index %d, want %d", len(got), len(want), limit)
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("row %d: clustered %q@%d %.8q, index %q@%d %.8q",
					i, got[i].Key, got[i].TS, got[i].Value, want[i].Key, want[i].TS, want[i].Value)
			}
		}
	}

	scans, before := fast.obs.clusteredScans.Load(), diskBytesRead(fs)
	got, _ := limitScan(fast, bg)
	read := diskBytesRead(fs) - before
	if fast.obs.clusteredScans.Load() != scans+1 {
		t.Fatal("the limit scan did not take the clustered path")
	}
	want, _ := limitScan(slow, bg)
	sameRows(got, want)
	if budget := int64(sorted)*128<<10 + tailBytes; read > budget {
		t.Fatalf("LIMIT %d over %d sorted segments read %d bytes, want <= %d", limit, sorted, read, budget)
	}

	// Concurrent delete: before the first index walk, overwrite keys
	// 0..39 into a segment the scan has not pinned; after the walk has
	// collected them, before the fetch, delete every fourth of them and
	// compact that segment away. The first page's batch read then fails
	// and is salvaged row by row through readEntry, dropping the 10
	// deleted rows; the second page is capped at those 10.
	overwrite := func(s *Server) {
		s.Log().Rotate()
		for k := 0; k < 40; k++ {
			if err := s.Write(testTablet, testGroup, k6(k), ts+1+int64(k), []byte(fmt.Sprintf("over%d", k))); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
		}
	}
	deleteAndCompact := func(s *Server) {
		for k := 0; k < 40; k += 4 {
			if err := s.Delete(testTablet, testGroup, k6(k), ts+100+int64(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		sealAndCompactUnsorted(t, s)
	}
	ctx := &hookCtx{Context: bg, hook: func(call int) {
		switch call {
		case 1:
			overwrite(fast)
		case 2:
			deleteAndCompact(fast)
		}
	}}
	got, pages := limitScan(fast, ctx)
	if ctx.calls < 2 {
		t.Fatalf("scan checked its context %d times, never reached the concurrent delete", ctx.calls)
	}
	overwrite(slow)
	deleteAndCompact(slow)
	want, _ = limitScan(slow, bg)
	sameRows(got, want)
	if len(pages) != 2 || pages[0] != limit-10 || pages[1] != 10 {
		t.Fatalf("pages %v, want [%d 10]: 10 rows vanish from the first page and the second asks for exactly those", pages, limit-10)
	}
}

// TestCompactZeroGarbageReclaimsNothing: rewriting a segment in which
// every record is live drops nothing, and the sorted output is one
// footer LARGER than its input — that is not a reclaim of minus one
// footer. Both compaction paths account it as zero, so the cumulative
// BytesReclaimed counter never steps backwards.
func TestCompactZeroGarbageReclaimsNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 100; i++ { // one version per key: nothing to drop
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	before := s.StatsView()
	if st := sealAndCompactUnsorted(t, s); st.Dropped != 0 || st.BytesReclaimed != 0 {
		t.Fatalf("zero-garbage incremental compaction: %+v, want nothing dropped or reclaimed", st)
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Dropped != 0 || st.BytesReclaimed != 0 {
		t.Fatalf("zero-garbage whole-log compaction: %+v, want nothing dropped or reclaimed", st)
	}
	after := s.StatsView()
	if after.BytesReclaimed != before.BytesReclaimed || after.Compactions != before.Compactions+2 {
		t.Fatalf("stats %+v -> %+v, want BytesReclaimed unchanged and Compactions +2", before, after)
	}
}

// TestCompactSegmentsDropsGarbage checks the incremental rewrite drops
// deleted rows and beyond-retention versions, keeps the data readable,
// and accounts the reclaim.
func TestCompactSegmentsDropsGarbage(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 2})
	ts := int64(0)
	for v := 0; v < 4; v++ { // 4 versions per key; retention keeps 2
		for i := 0; i < 200; i++ {
			ts++
			if err := s.Write(testTablet, testGroup, k6(i), ts, []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		ts++
		if err := s.Delete(testTablet, testGroup, k6(i*4), ts); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// Garbage accounting must have noticed the superseded versions.
	var garbage int64
	for _, si := range s.Log().Segments() {
		garbage += si.Garbage
	}
	if garbage == 0 {
		t.Fatal("no garbage accounted after overwrites and deletes")
	}

	st := sealAndCompactUnsorted(t, s)
	if st.Dropped == 0 {
		t.Fatalf("incremental compaction dropped nothing: %+v", st)
	}
	if st.BytesReclaimed <= 0 {
		t.Fatalf("incremental compaction reclaimed %d bytes", st.BytesReclaimed)
	}
	if f := s.SortedFraction(); f < 0.999 {
		t.Fatalf("sorted fraction %.3f after compacting everything", f)
	}
	// Live keys keep their newest value; deleted keys stay dead; version
	// histories are trimmed to the retention bound.
	for i := 0; i < 200; i++ {
		row, err := s.Get(testTablet, testGroup, k6(i))
		if i%4 == 0 && i/4 < 50 {
			if err == nil {
				t.Fatalf("deleted key %s resurrected by compaction", k6(i))
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s): %v", k6(i), err)
		}
		if string(row.Value) != "v3" {
			t.Fatalf("Get(%s) = %q, want v3", k6(i), row.Value)
		}
	}
}

// TestRecoveryAfterIncrementalCompaction crashes after deletes and
// incremental compaction relocated records, and checks the LSN-ordered
// redo neither resurrects deleted rows nor loses live ones — with and
// without a checkpoint.
func TestRecoveryAfterIncrementalCompaction(t *testing.T) {
	for _, withCheckpoint := range []bool{false, true} {
		name := "nocheckpoint"
		if withCheckpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			fs, err := newTestFS(t)
			if err != nil {
				t.Fatalf("fs: %v", err)
			}
			s := mustServer(t, fs, "ts1", Config{})
			ts := int64(0)
			for i := 0; i < 300; i++ {
				ts++
				if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("v1")); err != nil {
					t.Fatalf("Write: %v", err)
				}
			}
			if withCheckpoint {
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			// Delete some keys, THEN compact the original segment: the
			// relocated tombstones and writes land in higher-numbered
			// segments than later activity.
			for i := 0; i < 60; i++ {
				ts++
				if err := s.Delete(testTablet, testGroup, k6(i*5), ts); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			}
			sealAndCompactUnsorted(t, s)
			// Fresh writes after the rewrite.
			for i := 300; i < 350; i++ {
				ts++
				if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("v2")); err != nil {
					t.Fatalf("Write: %v", err)
				}
			}

			s2 := mustServer(t, fs, "ts1", Config{})
			if _, err := s2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			for i := 0; i < 350; i++ {
				row, err := s2.Get(testTablet, testGroup, k6(i))
				deleted := i < 300 && i%5 == 0 && i/5 < 60
				if deleted {
					if err == nil {
						t.Fatalf("deleted key %s resurrected by recovery (value %q)", k6(i), row.Value)
					}
					continue
				}
				if err != nil {
					t.Fatalf("recovered Get(%s): %v", k6(i), err)
				}
				want := "v1"
				if i >= 300 {
					want = "v2"
				}
				if string(row.Value) != want {
					t.Fatalf("recovered Get(%s) = %q, want %q", k6(i), row.Value, want)
				}
			}
		})
	}
}

// TestAutoCompactTickAndCandidates drives the tick against a mixed
// layout and checks candidate selection honours the garbage threshold
// and the active segment exclusion.
func TestAutoCompactTickAndCandidates(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := int64(0)
	for i := 0; i < 500; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, bytes.Repeat([]byte{1}, 200)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	// The active tail is small (< SegmentSize/8): nothing to do yet
	// beyond sealing once it crosses the rotation fraction — force it.
	s.Log().Rotate()
	if _, ran, err := s.AutoCompactTick(); err != nil || !ran {
		t.Fatalf("tick over sealed unsorted tail: ran=%v err=%v", ran, err)
	}
	if f := s.SortedFraction(); f < 0.999 {
		t.Fatalf("sorted fraction %.3f after tick", f)
	}
	// A clean sorted log has no candidates.
	if _, ran, err := s.AutoCompactTick(); err != nil || ran {
		t.Fatalf("tick on clean log: ran=%v err=%v", ran, err)
	}
	// Deletes push a sorted segment over the garbage threshold.
	for i := 0; i < 400; i++ {
		ts++
		if err := s.Delete(testTablet, testGroup, k6(i), ts); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	s.Log().Rotate()
	if _, ran, err := s.AutoCompactTick(); err != nil || !ran {
		t.Fatalf("tick over garbage: ran=%v err=%v", ran, err)
	}
	rows := 0
	if err := s.FullScanOpts(bg, testTablet, testGroup, readopt.Options{}, func(Row) bool { rows++; return true }); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if rows != 100 {
		t.Fatalf("after garbage collection: %d live rows, want 100", rows)
	}
}

// TestAutoCompactBackgroundLoop runs the real Interval-paced loop under
// sustained writes and asserts it keeps the log mostly sorted, then
// that Close joins the loop.
func TestAutoCompactBackgroundLoop(t *testing.T) {
	fs, err := newTestFS(t)
	if err != nil {
		t.Fatalf("fs: %v", err)
	}
	s, err := NewServer(fs, "ts1", Config{
		SegmentSize:         1 << 18,
		AutoCompactInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.AddTablet(testTabletSpec(), []string{testGroup, "activity"})
	ts := int64(0)
	val := bytes.Repeat([]byte{7}, 256)
	deadline := time.Now().Add(400 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i%2000), ts, val); err != nil {
			t.Fatalf("Write: %v", err)
		}
		i++
		if i%500 == 0 {
			time.Sleep(5 * time.Millisecond) // let the compactor breathe
		}
	}
	// Writes stopped; the loop must now converge the log to mostly
	// sorted on its own (poll — tick pacing vs. test machine speed).
	s.Log().Rotate()
	converge := time.Now().Add(5 * time.Second)
	for time.Now().Before(converge) && s.SortedFraction() < 0.5 {
		time.Sleep(10 * time.Millisecond)
	}
	if f := s.SortedFraction(); f < 0.5 {
		t.Fatalf("background loop let sorted fraction fall to %.3f", f)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s.Close() // idempotent
}

// TestScanDuringCompactionRace is the segment-reclaim regression: scans
// and point reads run continuously while whole-log and incremental
// compactions reclaim segments underneath them. Run under -race in CI;
// correctness assertion here is "no error and no missing rows" — and,
// for secondary lookups, no duplicate rows either.
func TestScanDuringCompactionRace(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	const n = 800
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, bytes.Repeat([]byte{2}, 64)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	// Every key carries the same secondary value, so each update of a key
	// replaces its one secondary entry and a lookup must return exactly n.
	if err := s.RegisterSecondaryIndex("all", testTablet, testGroup, func([]byte) []byte { return []byte("x") }); err != nil {
		t.Fatalf("RegisterSecondaryIndex: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writers keep superseding versions so compactions have work.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := int64(n)
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			w++
			if err := s.Write(testTablet, testGroup, k6(j%n), w, bytes.Repeat([]byte{3}, 64)); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	// Scanners: index/clustered range scans and full scans.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := 0
				err := s.ParallelScan(bg, testTablet, testGroup, ScanOptions{TS: 1 << 40, Workers: 1},
					func(rs []Row) error { rows += len(rs); return nil })
				if err != nil {
					errs <- fmt.Errorf("scan: %w", err)
					return
				}
				if rows < n {
					errs <- fmt.Errorf("scan lost rows: %d < %d", rows, n)
					return
				}
				if err := s.FullScanOpts(bg, testTablet, testGroup, readopt.Options{}, func(Row) bool { return true }); err != nil {
					errs <- fmt.Errorf("fullscan: %w", err)
					return
				}
				if _, err := s.Get(testTablet, testGroup, k6(g*7%n)); err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				sec, err := s.LookupSecondary("all", []byte("x"))
				if err != nil {
					errs <- fmt.Errorf("secondary lookup: %w", err)
					return
				}
				if len(sec) != n {
					errs <- fmt.Errorf("secondary lookup returned %d rows, want %d", len(sec), n)
					return
				}
			}
		}(g)
	}

	// Compactors: alternate whole-log and incremental reclaim.
	for round := 0; round < 6; round++ {
		if round%2 == 0 {
			if _, err := s.Compact(); err != nil {
				t.Fatalf("Compact round %d: %v", round, err)
			}
		} else {
			s.Log().Rotate()
			var nums []uint32
			for _, si := range s.Log().Segments() {
				if si.Num != s.Log().ActiveSegment() {
					nums = append(nums, si.Num)
				}
			}
			if len(nums) > 3 {
				nums = nums[:3]
			}
			if _, err := s.CompactSegments(nums); err != nil {
				t.Fatalf("CompactSegments round %d: %v", round, err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedTxnSurvivesCompaction pins the 2PC-vs-compaction
// contract: records prepared (durable, uninstalled) before a
// compaction must be carried to the rewritten log and their cached
// locations repointed, so a later CommitTxn installs working pointers
// — for both the incremental and the whole-log compactor.
func TestPreparedTxnSurvivesCompaction(t *testing.T) {
	for _, whole := range []bool{false, true} {
		name := "incremental"
		if whole {
			name = "whole-log"
		}
		t.Run(name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{})
			for i := 0; i < 50; i++ {
				if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("base")); err != nil {
					t.Fatalf("Write: %v", err)
				}
			}
			p, err := s.PrepareTxn(77, 1000, []TxnWrite{
				{Tablet: testTablet, Group: testGroup, Key: k6(1), Value: []byte("txn-v")},
				{Tablet: testTablet, Group: testGroup, Key: k6(2), Delete: true},
			})
			if err != nil {
				t.Fatalf("PrepareTxn: %v", err)
			}
			// Compaction runs between prepare and commit and reclaims the
			// segment holding the prepared records.
			if whole {
				if _, err := s.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			} else {
				sealAndCompactUnsorted(t, s)
			}
			if err := s.CommitTxn(77, 1000, p); err != nil {
				t.Fatalf("CommitTxn after compaction: %v", err)
			}
			row, err := s.Get(testTablet, testGroup, k6(1))
			if err != nil {
				t.Fatalf("Get after commit: %v", err)
			}
			if string(row.Value) != "txn-v" {
				t.Fatalf("committed value = %q, want txn-v", row.Value)
			}
			if _, err := s.Get(testTablet, testGroup, k6(2)); err == nil {
				t.Fatal("transactional delete lost across compaction")
			}
			// Scans must agree with Get: the committed record's location
			// (a preserved-record segment) must be reachable through the
			// clustered planner's overlay, not silently skipped.
			found := false
			for _, r := range scanAll(t, s, 1<<40, nil, nil) {
				if bytes.Equal(r.Key, k6(1)) {
					found = true
					if string(r.Value) != "txn-v" {
						t.Fatalf("scan sees %q for committed key, want txn-v", r.Value)
					}
				}
				if bytes.Equal(r.Key, k6(2)) {
					t.Fatal("scan sees transactionally deleted key")
				}
			}
			if !found {
				t.Fatal("scan dropped the committed prepared row")
			}
			// And the commit must survive ANOTHER compaction + recovery.
			sealAndCompactUnsorted(t, s)
			if row, err = s.Get(testTablet, testGroup, k6(1)); err != nil || string(row.Value) != "txn-v" {
				t.Fatalf("after second compaction: %q err=%v", row.Value, err)
			}
		})
	}
}

// TestPreparedTxnCommitDuringWholeCompact covers the harder window: the
// commit record lands in the tail while the whole-log compaction is
// already past its commit scan — the preserved records must be
// installed from the tail-commit reconciliation.
func TestPreparedTxnOrphanVacuumedAfterRestart(t *testing.T) {
	fs, err := newTestFS(t)
	if err != nil {
		t.Fatalf("fs: %v", err)
	}
	s := mustServer(t, fs, "ts1", Config{})
	if err := s.Write(testTablet, testGroup, k6(0), 1, []byte("v")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := s.PrepareTxn(99, 50, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: k6(9), Value: []byte("orphan")},
	}); err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	// Crash: the registry dies with the process; the orphaned prepare is
	// invisible to recovery and vacuumed by the next compaction.
	s2 := mustServer(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := s2.Get(testTablet, testGroup, k6(9)); err == nil {
		t.Fatal("orphaned prepared write visible after recovery")
	}
	st := sealAndCompactUnsorted(t, s2)
	if st.Dropped == 0 {
		t.Fatal("orphaned prepared record not vacuumed")
	}
	if _, err := s2.Get(testTablet, testGroup, k6(0)); err != nil {
		t.Fatalf("live row lost: %v", err)
	}
}

// TestAutoCompactWaitsForRecovery pins the reopen-window guard: a
// server reopened over an existing log has empty indexes until Recover
// runs, and an index-probe-driven compaction in that window would judge
// every record dead and destroy the log.
func TestAutoCompactWaitsForRecovery(t *testing.T) {
	fs, err := newTestFS(t)
	if err != nil {
		t.Fatalf("fs: %v", err)
	}
	s := mustServer(t, fs, "ts1", Config{})
	for i := 0; i < 100; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	s2 := mustServer(t, fs, "ts1", Config{})
	// Before Recover: the tick must refuse to touch the log.
	if _, ran, err := s2.AutoCompactTick(); err != nil || ran {
		t.Fatalf("pre-recovery tick: ran=%v err=%v", ran, err)
	}
	s2.Log().Rotate()
	if _, err := s2.CompactSegments([]uint32{1}); err == nil {
		t.Fatal("pre-recovery CompactSegments did not refuse")
	}
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// After Recover the same operations work and lose nothing.
	if _, _, err := s2.AutoCompactTick(); err != nil {
		t.Fatalf("post-recovery tick: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s2.Get(testTablet, testGroup, k6(i)); err != nil {
			t.Fatalf("row %d lost: %v", i, err)
		}
	}
}

// TestCheckpointPrunedAfterIncrementalCompaction pins the stale-
// checkpoint rule: entries checkpointed before a compaction vacuumed
// their records (beyond the retention bound, with no tombstone) must
// be pruned at recovery, not left dangling into deleted segments.
func TestCheckpointPrunedAfterIncrementalCompaction(t *testing.T) {
	fs, err := newTestFS(t)
	if err != nil {
		t.Fatalf("fs: %v", err)
	}
	s := mustServer(t, fs, "ts1", Config{})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	ts := int64(0)
	for i := 0; i < 50; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("old")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// New versions push the checkpointed ones over the retention bound;
	// incremental compaction vacuums them and reclaims their segment.
	for i := 0; i < 50; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("new")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	sealAndCompactUnsorted(t, s)

	s2 := mustServer(t, fs, "ts1", Config{})
	s2.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for i := 0; i < 50; i++ {
		rows, err := versionsOf(s2, k6(i))
		if err != nil {
			t.Fatalf("Versions(%s) after recovery: %v", k6(i), err)
		}
		if len(rows) != 1 || string(rows[0].Value) != "new" {
			t.Fatalf("Versions(%s) = %d rows (%q), want just the retained one", k6(i), len(rows), rows[0].Value)
		}
	}
}

// TestRetentionDropPrunesIndexEntries pins the reviewer-verified bug:
// versions vacuumed by the retention bound must lose their index
// entries too, or Versions/GetAt dangle into the reclaimed segment.
func TestRetentionDropPrunesIndexEntries(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	for v := 0; v < 3; v++ {
		for i := 0; i < 20; i++ {
			if err := s.Write(testTablet, testGroup, k6(i), int64(v*100+i+1), []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
	}
	sealAndCompactUnsorted(t, s)
	for i := 0; i < 20; i++ {
		rows, err := versionsOf(s, k6(i))
		if err != nil {
			t.Fatalf("Versions(%s) after retention compaction: %v", k6(i), err)
		}
		if len(rows) != 1 || string(rows[0].Value) != "v2" {
			t.Fatalf("Versions(%s) = %d rows, want just the retained v2", k6(i), len(rows))
		}
		// A snapshot below the retained version resolves to nothing, not
		// to a dangling entry.
		if _, err := s.GetAt(testTablet, testGroup, k6(i), int64(i+1)); err == nil {
			t.Fatalf("GetAt(%s) at vacuumed snapshot unexpectedly succeeded", k6(i))
		}
	}
}

// TestGarbageAuditAfterRestart pins the restart-survival of the
// garbage trigger: counters die with the process, so the first tick
// after recovery recounts them and ratio-triggered compaction still
// fires.
func TestGarbageAuditAfterRestart(t *testing.T) {
	fs, err := newTestFS(t)
	if err != nil {
		t.Fatalf("fs: %v", err)
	}
	s := mustServer(t, fs, "ts1", Config{})
	ts := int64(0)
	for i := 0; i < 200; i++ {
		ts++
		if err := s.Write(testTablet, testGroup, k6(i), ts, bytes.Repeat([]byte{1}, 128)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	sealAndCompactUnsorted(t, s) // all sorted, garbage 0
	// Deletes make the sorted segment mostly garbage — then the process
	// "crashes" before any compaction runs.
	for i := 0; i < 150; i++ {
		ts++
		if err := s.Delete(testTablet, testGroup, k6(i), ts); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}

	s2 := mustServer(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s2.Log().Rotate()
	// First tick audits (restoring the garbage ratios), then compacts
	// the unsorted tombstone tail AND the garbage-heavy sorted segment.
	for i := 0; i < 3; i++ {
		if _, _, err := s2.AutoCompactTick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	info := s2.CompactionInfo()
	if info.Runs == 0 {
		t.Fatal("no compaction ran after the audit")
	}
	rows := 0
	if err := s2.FullScanOpts(bg, testTablet, testGroup, readopt.Options{}, func(Row) bool { rows++; return true }); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if rows != 50 {
		t.Fatalf("%d live rows after audit-driven compaction, want 50", rows)
	}
	// The dead bytes must actually be reclaimed: the log should now be
	// far smaller than the pre-restart 200-record + tombstone layout.
	if info.GarbageRatio > 0.35 {
		t.Fatalf("garbage ratio still %.3f after audit-driven compaction", info.GarbageRatio)
	}
}
