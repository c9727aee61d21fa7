package core

// Tests for the scan fetch path's value handling: fetchRows evaluates
// the value predicate on a view of each log frame and copies only the
// rows it returns, on every path a row can be resolved through, and
// the copies it hands out are the caller's.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dfs"
	"repro/internal/readopt"
)

// hotColdFixture loads n keys whose values are "hot-…" when hot(i) and
// "cold-…" otherwise (200 bytes each), compacts them into sorted
// segments, and overwrites every fifth key, same tag, into an unsorted
// tail.
func hotColdFixture(tb testing.TB, n int, hot func(i int) bool) (*Server, *dfs.DFS) {
	tb.Helper()
	fs, err := dfs.New(tb.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewServer(fs, "ts1", Config{SegmentSize: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	s.AddTablet(testTabletSpec(), []string{testGroup})
	var batch []BatchWrite
	ts := int64(0)
	load := func(from, step int) {
		for i := from; i < n; i += step {
			ts++
			tag := "cold"
			if hot(i) {
				tag = "hot"
			}
			v := fmt.Appendf(nil, "%s-%d@%d:", tag, i, ts)
			v = append(v, bytes.Repeat([]byte{'.'}, 200-len(v))...)
			batch = append(batch, BatchWrite{Tablet: testTablet, Group: testGroup, Key: k6(i), TS: ts, Value: v})
			if len(batch) == 1000 || i+step >= n {
				if err := s.ApplyBatch(batch); err != nil {
					tb.Fatalf("ApplyBatch: %v", err)
				}
				batch = batch[:0]
			}
		}
	}
	load(0, 1)
	if _, err := s.Compact(); err != nil {
		tb.Fatalf("Compact: %v", err)
	}
	load(0, 5)
	return s, fs
}

// diskReads sums the modelled-disk read operations and bytes across
// every datanode.
func diskReads(fs *dfs.DFS) (ops, bytes int64) {
	for i := 0; i < fs.NumDataNodes(); i++ {
		st := fs.DataNode(i).Disk().Stats()
		ops, bytes = ops+st.ReadOps, bytes+st.BytesRead
	}
	return ops, bytes
}

// TestFilteredScanCopiesOnlyKeptRows: a scan whose value predicate keeps
// 1 % of 10,000 rows, over sorted segments under an unsorted tail,
// allocates for the rows it returns and its pages, not for the rows it
// examines and rejects. The predicate saves copies, not I/O: the scan
// reads exactly what the same scan without it reads.
func TestFilteredScanCopiesOnlyKeptRows(t *testing.T) {
	const n = 10000
	s, fs := hotColdFixture(t, n, func(i int) bool { return i%100 == 0 })
	scan := func(pred *readopt.Predicate) (rows int) {
		t.Helper()
		err := s.ParallelScan(bg, testTablet, testGroup, ScanOptions{TS: 1 << 40, ValuePred: pred, Workers: 1},
			func(rs []Row) error { rows += len(rs); return nil })
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		return rows
	}
	pred := readopt.Contains([]byte("hot"))

	ops0, bytes0 := diskReads(fs)
	if got := scan(nil); got != n {
		t.Fatalf("unfiltered scan returned %d rows, want %d", got, n)
	}
	ops1, bytes1 := diskReads(fs)
	reads0 := s.Stats().LogReads.Load()
	if got := scan(pred); got != n/100 {
		t.Fatalf("filtered scan returned %d rows, want %d", got, n/100)
	}
	ops2, bytes2 := diskReads(fs)
	examined := s.Stats().LogReads.Load() - reads0
	if examined < 4096 {
		t.Fatalf("filtered scan examined %d rows, want >= 4096", examined)
	}
	if ops2-ops1 != ops1-ops0 || bytes2-bytes1 != bytes1-bytes0 {
		t.Fatalf("filtered scan read %d ops / %d bytes, unfiltered %d / %d: want identical I/O",
			ops2-ops1, bytes2-bytes1, ops1-ops0, bytes1-bytes0)
	}

	allocs := testing.AllocsPerRun(5, func() { scan(pred) })
	t.Logf("filtered scan: %d rows examined, %d returned, %v allocs", examined, n/100, allocs)
	if ceiling := float64(examined) / 8; allocs > ceiling {
		t.Fatalf("filtered scan made %v allocations for %d examined rows, want <= %v: rejected rows must not be copied",
			allocs, examined, ceiling)
	}
}

// TestValuePredicateOnEveryFetchPath runs one value predicate, with and
// without a Limit, through each way fetchRows resolves a row — the
// sorted-segment window, the read buffer, the batched log read, and the
// per-row salvage after a racing compaction reclaims a segment — and
// compares the rows, row for row, with a test-side filter over an
// unfiltered NoClusteredScan scan. A rejected row never counts toward
// the Limit, and every page emits exactly the survivors of its entries.
func TestValuePredicateOnEveryFetchPath(t *testing.T) {
	const batch, limit = 64, 40
	pred := readopt.Contains([]byte("r1"))
	ref, _, ts := limitFixture(t, Config{NoClusteredScan: true})
	all := scanRows(t, ref, testTablet, ScanOptions{TS: 1 << 40, Batch: batch, Workers: 1})

	// wantPages is what a predicate scan over all must emit: each page of
	// batch entries emits its survivors, up to the rows still owed.
	wantPages := func(all []Row, limit int) (rows []Row, pages []int) {
		for lo := 0; lo < len(all) && (limit == 0 || len(rows) < limit); lo += batch {
			k := 0
			for _, r := range all[lo:min(lo+batch, len(all))] {
				if pred.Match(r.Value) && (limit == 0 || len(rows) < limit) {
					rows = append(rows, r)
					k++
				}
			}
			if k > 0 {
				pages = append(pages, k)
			}
		}
		return rows, pages
	}
	same := func(path string, s *Server, opt ScanOptions, want []Row, wantPages []int) {
		t.Helper()
		var got []Row
		var pages []int
		err := s.ParallelScan(bg, testTablet, testGroup, opt, func(rs []Row) error {
			pages = append(pages, len(rs))
			got = append(got, rs...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan: %v", path, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", path, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s: row %d: %q@%d %.8q, want %q@%d %.8q", path, i,
					got[i].Key, got[i].TS, got[i].Value, want[i].Key, want[i].TS, want[i].Value)
			}
		}
		if wantPages != nil && !slices.Equal(pages, wantPages) {
			t.Fatalf("%s: pages %v, want %v", path, pages, wantPages)
		}
	}
	scanBoth := func(path string, s *Server, useCache bool) {
		t.Helper()
		for _, lim := range []int{0, limit} {
			want, pages := wantPages(all, lim)
			if lim > 0 && len(want) != limit {
				t.Fatalf("fixture has %d matching rows, want at least %d", len(want), limit)
			}
			opt := ScanOptions{TS: 1 << 40, ValuePred: pred, Limit: lim, Batch: batch, Workers: 1, UseCache: useCache}
			same(fmt.Sprintf("%s, limit %d", path, lim), s, opt, want, pages)
		}
	}

	scanBoth("batch read", ref, false)

	window, _, _ := limitFixture(t, Config{})
	scans := window.obs.clusteredScans.Load()
	scanBoth("sorted-segment window", window, false)
	if got := window.obs.clusteredScans.Load() - scans; got != 2 {
		t.Fatalf("%d of 2 window scans took the clustered path", got)
	}

	buffered, _, _ := limitFixture(t, Config{NoClusteredScan: true, ReadCacheBytes: 8 << 20})
	for _, r := range all {
		if _, err := buffered.Get(testTablet, testGroup, r.Key); err != nil {
			t.Fatalf("Get %q: %v", r.Key, err)
		}
	}
	hits, reads := buffered.Stats().CacheHits.Load(), buffered.Stats().LogReads.Load()
	scanBoth("read buffer", buffered, true)
	if buffered.Stats().CacheHits.Load() == hits || buffered.Stats().LogReads.Load() != reads {
		t.Fatalf("read-buffer scans: %d cache hits, %d log reads, want every row from the buffer",
			buffered.Stats().CacheHits.Load()-hits, buffered.Stats().LogReads.Load()-reads)
	}

	// Salvage, as in TestClusteredLimitScanReadsOnlyWhatItReturns: keys
	// 0..39 are overwritten into a segment the scan has not pinned (odd
	// keys with a value the predicate keeps), and after the first page
	// is collected every fourth of them is deleted and that segment is
	// compacted away, so the page's batch read fails and is salvaged row
	// by row. The first page, keys 0..63, keeps the 20 odd overwrites and
	// the 7 "r1" keys among 40..63 not overwritten by the fixture's tail
	// (40, 50 and 60 are); the second page owes the remaining 13.
	overwrite := func(s *Server) {
		s.Log().Rotate()
		for k := 0; k < 40; k++ {
			v := fmt.Sprintf("over-%d", k)
			if k%2 == 1 {
				v = "r1-" + v
			}
			if err := s.Write(testTablet, testGroup, k6(k), ts+1+int64(k), []byte(v)); err != nil {
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
	salvaged, _, _ := limitFixture(t, Config{})
	ctx := &hookCtx{Context: bg, hook: func(call int) {
		switch call {
		case 1:
			overwrite(salvaged)
		case 2:
			deleteAndCompact(salvaged)
		}
	}}
	var got []Row
	var pages []int
	err := salvaged.ParallelScan(ctx, testTablet, testGroup, ScanOptions{TS: 1 << 40, ValuePred: pred, Limit: limit, Batch: batch, Workers: 1},
		func(rs []Row) error {
			pages = append(pages, len(rs))
			got = append(got, rs...)
			return nil
		})
	if err != nil {
		t.Fatalf("salvage: scan: %v", err)
	}
	if ctx.calls < 2 {
		t.Fatalf("salvage: scan checked its context %d times, never reached the concurrent delete", ctx.calls)
	}
	overwrite(ref)
	deleteAndCompact(ref)
	want, _ := wantPages(scanRows(t, ref, testTablet, ScanOptions{TS: 1 << 40, Workers: 1}), limit)
	if len(got) != len(want) {
		t.Fatalf("salvage: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("salvage: row %d: %q@%d %.8q, want %q@%d %.8q", i,
				got[i].Key, got[i].TS, got[i].Value, want[i].Key, want[i].TS, want[i].Value)
		}
	}
	if !slices.Equal(pages, []int{27, 13}) {
		t.Fatalf("salvage: pages %v, want [27 13]", pages)
	}
}

// TestScanRowsOwnTheirValues: the rows a scan page hands out are the
// caller's. Held rows survive later scans that reuse the pooled
// read-ahead windows and batch scratch; appending to one row's value
// leaves the next row intact; an empty value comes back non-nil and
// empty on both the window and the batch path; a value larger than an
// arena chunk comes back whole.
func TestScanRowsOwnTheirValues(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	value := func(i int) []byte {
		switch i {
		case 5, 105:
			return []byte{}
		case 7:
			return bytes.Repeat([]byte{'L'}, 40<<10)
		}
		return fmt.Appendf(nil, "value-%d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, 100))
	}
	for i := 0; i < 2000; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), value(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if i == 99 {
			sealAndCompactUnsorted(t, s) // keys 0..99 in a sorted segment, the rest in the tail
		}
	}

	// One page: keys 0..99 through the sorted segment's reader, 100..149
	// through a batch read. Both buffers go back to their pool when the
	// scan ends, and the later scans below refill them from other offsets.
	var held []Row
	err := s.ParallelScan(bg, testTablet, testGroup, ScanOptions{End: k6(150), TS: 1 << 40, Workers: 1}, func(rs []Row) error {
		held = rs
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(held) != 150 {
		t.Fatalf("page has %d rows, want 150", len(held))
	}
	check := func(when string) {
		t.Helper()
		for i, r := range held {
			if !bytes.Equal(r.Key, k6(i)) || !bytes.Equal(r.Value, value(i)) {
				t.Fatalf("%s: row %d is %q %.12q, want %q %.12q", when, i, r.Key, r.Value, k6(i), value(i))
			}
		}
	}
	check("as returned")
	for _, i := range []int{5, 105} {
		if held[i].Value == nil || len(held[i].Value) != 0 {
			t.Fatalf("row %d: empty value came back as %#v, want non-nil and empty", i, held[i].Value)
		}
	}

	for i := 0; i < 5; i++ {
		for _, opt := range []ScanOptions{
			{Start: k6(10*i + 1), End: k6(150), TS: 1 << 40, Workers: 1},
			{Start: k6(1000 + 10*i), End: k6(1150), TS: 1 << 40, Workers: 1},
			{TS: 1 << 40, Batch: 37, Workers: 4},
		} {
			if err := s.ParallelScan(bg, testTablet, testGroup, opt, func([]Row) error { return nil }); err != nil {
				t.Fatalf("later scan: %v", err)
			}
		}
	}
	check("after later scans")

	for i := range held {
		_ = append(held[i].Value, "XXXXXXXX"...)
	}
	check("after appending to every value")
}

// BenchmarkFilteredScan: LIMIT-100 scans with an 8 %-selective value
// predicate over 60,000 keys compacted into sorted segments under a 20 %
// unsorted tail, each from its own start key. About 1,250 rows are
// examined per scan.
func BenchmarkFilteredScan(b *testing.B) {
	const n = 60000
	s, _ := hotColdFixture(b, n, func(i int) bool { return i%25 < 2 })
	pred := readopt.Contains([]byte("hot"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		opt := ScanOptions{Start: k6(i * 7919 % (n / 2)), TS: 1 << 40, ValuePred: pred, Limit: 100, Workers: 1}
		err := s.ParallelScan(bg, testTablet, testGroup, opt, func(rs []Row) error { rows += len(rs); return nil })
		if err != nil || rows != 100 {
			b.Fatalf("scan: %d rows, %v", rows, err)
		}
	}
}
