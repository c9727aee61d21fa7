package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"repro/internal/readopt"
)

func loadRows(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user%06d", i))
		if err := s.Write(testTablet, testGroup, key, int64(i+1), []byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
}

// errStopScan ends serialScan early.
var errStopScan = errors.New("stop scan")

// serialScan streams the rows of [start, end) visible at ts to fn in
// key order (a serial ParallelScan) until fn returns false.
func serialScan(ctx context.Context, s *Server, tabletID, group string, start, end []byte, ts int64, fn func(Row) bool) error {
	opt := ScanOptions{Start: start, End: end, TS: ts, Workers: 1}
	err := s.ParallelScan(ctx, tabletID, group, opt, func(rows []Row) error {
		for _, r := range rows {
			if !fn(r) {
				return errStopScan
			}
		}
		return nil
	})
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

func collectParallel(t *testing.T, s *Server, opt ScanOptions) []Row {
	t.Helper()
	var mu []Row
	err := s.ParallelScan(context.Background(), testTablet, testGroup, opt, func(rows []Row) error {
		mu = append(mu, rows...)
		return nil
	})
	if err != nil {
		t.Fatalf("ParallelScan: %v", err)
	}
	sort.Slice(mu, func(i, j int) bool { return bytes.Compare(mu[i].Key, mu[j].Key) < 0 })
	return mu
}

func TestParallelScanMatchesScan(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	const n = 3000
	loadRows(t, s, n)
	// Overwrite a slice of keys so multiversion visibility matters.
	for i := 0; i < n; i += 5 {
		key := []byte(fmt.Sprintf("user%06d", i))
		if err := s.Write(testTablet, testGroup, key, int64(n+i+1), []byte("v2-"+strconv.Itoa(i))); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
	}
	ts := int64(2 * n)
	// The oracle is the fixture itself: at ts every key shows its v2
	// rewrite if it has one, else its first write.
	want := make([]Row, n)
	for i := range want {
		want[i] = Row{Key: []byte(fmt.Sprintf("user%06d", i)), TS: int64(i + 1), Value: []byte(strconv.Itoa(i))}
		if i%5 == 0 {
			want[i].TS, want[i].Value = int64(n+i+1), []byte("v2-"+strconv.Itoa(i))
		}
	}
	check := func(label string, got []Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS ||
				!bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s row %d: got %q/%d/%q want %q/%d/%q", label, i,
					got[i].Key, got[i].TS, got[i].Value, want[i].Key, want[i].TS, want[i].Value)
			}
		}
	}

	// A serial scan delivers key order without sorting.
	var serial []Row
	if err := serialScan(context.Background(), s, testTablet, testGroup, nil, nil, ts, func(r Row) bool {
		serial = append(serial, r)
		return true
	}); err != nil {
		t.Fatalf("serial scan: %v", err)
	}
	check("serial", serial)
	for _, workers := range []int{1, 2, 4, 8} {
		check(fmt.Sprintf("workers=%d", workers), collectParallel(t, s, ScanOptions{TS: ts, Workers: workers, Batch: 100}))
	}
	// Compacted, the same scans take the clustered path.
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, workers := range []int{1, 4} {
		check(fmt.Sprintf("compacted workers=%d", workers), collectParallel(t, s, ScanOptions{TS: ts, Workers: workers, Batch: 100}))
	}
}

func TestParallelScanSnapshotPinned(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	loadRows(t, s, 500)
	ts := int64(500) // snapshot after the 500th write
	// Writes after the snapshot must be invisible.
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("user%06d", i))
		if err := s.Write(testTablet, testGroup, key, int64(1000+i), []byte("late")); err != nil {
			t.Fatalf("late write: %v", err)
		}
	}
	got := collectParallel(t, s, ScanOptions{TS: ts, Workers: 4})
	if len(got) != 500 {
		t.Fatalf("got %d rows, want 500", len(got))
	}
	for _, r := range got {
		if string(r.Value) == "late" {
			t.Fatalf("snapshot at %d saw post-snapshot write for %q", ts, r.Key)
		}
	}
}

func TestParallelScanPushdownSkipsLogReads(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const n = 1000
	loadRows(t, s, n)
	base := s.Stats().LogReads.Load()

	// Time-range push-down: only the last 100 versions qualify; the scan
	// must not fetch the other 900 from the log.
	got := collectParallel(t, s, ScanOptions{TS: n + 1, MinTS: n - 99, Workers: 4})
	if len(got) != 100 {
		t.Fatalf("time-range scan: %d rows, want 100", len(got))
	}
	reads := s.Stats().LogReads.Load() - base
	if reads > 100 {
		t.Fatalf("time-range scan fetched %d log records, want <= 100", reads)
	}

	// Key push-down: filter on the key before any fetch.
	base = s.Stats().LogReads.Load()
	got = collectParallel(t, s, ScanOptions{
		TS:      n + 1,
		Workers: 4,
		KeyPred: readopt.Prefix([]byte("user0005")), // 1 in 10 keys
	})
	if len(got) != n/10 {
		t.Fatalf("key-filter scan: %d rows, want %d", len(got), n/10)
	}
	reads = s.Stats().LogReads.Load() - base
	if reads > int64(n/10) {
		t.Fatalf("key-filter scan fetched %d log records, want <= %d", reads, n/10)
	}
}

func TestParallelScanRowFilterAndRange(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	loadRows(t, s, 1000)
	got := collectParallel(t, s, ScanOptions{
		Start:     []byte("user000100"),
		End:       []byte("user000300"),
		TS:        1 << 40,
		Workers:   4,
		ValuePred: readopt.Range([]byte("2"), []byte("3")), // "200".."299"
	})
	if len(got) != 100 {
		t.Fatalf("got %d rows, want 100", len(got))
	}
	for _, r := range got {
		if bytes.Compare(r.Key, []byte("user000100")) < 0 || bytes.Compare(r.Key, []byte("user000300")) >= 0 {
			t.Fatalf("row %q outside range", r.Key)
		}
	}
}

func TestParallelScanEmitErrorCancels(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	loadRows(t, s, 2000)
	boom := errors.New("boom")
	calls := 0
	err := s.ParallelScan(context.Background(), testTablet, testGroup, ScanOptions{TS: 1 << 40, Workers: 4, Batch: 50}, func([]Row) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestParallelScanUseCacheOptIn(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 8 << 20})
	const n = 500
	loadRows(t, s, n)
	// Point reads warm the read buffer; a write refreshes a cached row
	// but adds none (apply.go, "Read buffer").
	for i := 0; i < n; i++ {
		if _, err := s.Get(testTablet, testGroup, []byte(fmt.Sprintf("user%06d", i))); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	loadRows(t, s, n)

	// Default: scans bypass the point-read buffer (cache-resistant).
	base := s.Stats().LogReads.Load()
	got := collectParallel(t, s, ScanOptions{TS: n + 1, Workers: 2})
	if len(got) != n {
		t.Fatalf("got %d rows", len(got))
	}
	if reads := s.Stats().LogReads.Load() - base; reads != n {
		t.Fatalf("default scan did %d log reads, want %d (cache bypassed)", reads, n)
	}

	// Opt-in: a warm buffer serves every row without touching the log.
	base = s.Stats().LogReads.Load()
	got = collectParallel(t, s, ScanOptions{TS: n + 1, Workers: 2, UseCache: true})
	if len(got) != n {
		t.Fatalf("got %d rows", len(got))
	}
	if reads := s.Stats().LogReads.Load() - base; reads != 0 {
		t.Fatalf("warm-cache scan did %d log reads, want 0", reads)
	}
}

// MVCC read edges: a delete drops every version and persists an
// invalidation record, so reads at ANY timestamp — including exactly
// the delete timestamp and timestamps before it — must miss (paper
// §3.6.3: invalidated data is no longer addressable).
func TestMVCCReadEdgesAtTombstone(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("alice")
	for _, ts := range []int64{10, 20, 30} {
		if err := s.Write(testTablet, testGroup, key, ts, []byte(fmt.Sprintf("v@%d", ts))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := s.Delete(testTablet, testGroup, key, 40); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	for _, ts := range []int64{40, 39, 30, 10, 1 << 40} {
		if _, err := s.GetAt(testTablet, testGroup, key, ts); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetAt(ts=%d) after delete: err = %v, want ErrNotFound", ts, err)
		}
	}
	rows, err := versionsOf(s, key)
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	if len(rows) != 0 {
		t.Errorf("Versions after delete = %d rows, want 0", len(rows))
	}
	for _, ts := range []int64{40, 39, 1 << 40} {
		seen := 0
		if err := serialScan(context.Background(), s, testTablet, testGroup, nil, nil, ts, func(Row) bool { seen++; return true }); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if seen != 0 {
			t.Errorf("Scan(ts=%d) after delete saw %d rows, want 0", ts, seen)
		}
	}
}

// A version written at exactly the query timestamp is visible (<=, not
// <), and the version one tick later is not.
func TestMVCCVisibilityAtExactTimestamp(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("bob")
	if err := s.Write(testTablet, testGroup, key, 10, []byte("old")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Write(testTablet, testGroup, key, 11, []byte("new")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	row, err := s.GetAt(testTablet, testGroup, key, 10)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if string(row.Value) != "old" || row.TS != 10 {
		t.Errorf("GetAt(10) = %q@%d, want old@10", row.Value, row.TS)
	}
	seen := map[string]int64{}
	if err := serialScan(context.Background(), s, testTablet, testGroup, nil, nil, 10, func(r Row) bool {
		seen[string(r.Key)] = r.TS
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if seen["bob"] != 10 {
		t.Errorf("Scan(ts=10) visible version = %d, want 10", seen["bob"])
	}
}
