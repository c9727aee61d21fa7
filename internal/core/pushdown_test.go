package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/readopt"
)

// newPushdownServer loads n rows keyed p-%05d with values v-%05d at
// timestamps 1..n.
func newPushdownServer(t *testing.T, n int) *Server {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fs, "push", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.AddTablet(partition.Tablet{ID: "t/0000", Table: "t"}, []string{"g"})
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("p-%05d", i))
		if err := s.Write("t/0000", "g", key, int64(i+1), []byte(fmt.Sprintf("v-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func collectScan(t *testing.T, s *Server, opt ScanOptions) []Row {
	t.Helper()
	var rows []Row
	err := s.ParallelScan(context.Background(), "t/0000", "g", opt, func(batch []Row) error {
		rows = append(rows, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("ParallelScan: %v", err)
	}
	return rows
}

func TestScanLimitStopsLogReads(t *testing.T) {
	const n = 5000
	s := newPushdownServer(t, n)
	before := s.Stats().LogReads.Load()
	rows := collectScan(t, s, ScanOptions{TS: n, Limit: 10})
	reads := s.Stats().LogReads.Load() - before
	if len(rows) != 10 {
		t.Fatalf("limited scan returned %d rows, want 10", len(rows))
	}
	if reads > 10 {
		t.Fatalf("limited scan issued %d log reads, want <= 10", reads)
	}
	for i, r := range rows {
		if want := fmt.Sprintf("p-%05d", i); string(r.Key) != want {
			t.Fatalf("row %d key %q, want %q", i, r.Key, want)
		}
	}
}

// A LIMIT scan's index page is sized by the rows it owes, not by the
// scan batch: a LIMIT-50 scan over 60K keys allocates well under one
// 1,024-entry page (~70 KB).
func TestScanLimitPageSizedByLimit(t *testing.T) {
	const n = 60000
	s := newPushdownServer(t, n)
	for i := 0; i < 10; i++ {
		start := []byte(fmt.Sprintf("p-%05d", i*(n/10)))
		rows := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.ParallelScan(context.Background(), "t/0000", "g", ScanOptions{Start: start, TS: n, Limit: 50}, func(batch []Row) error {
			rows += len(batch)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil || rows != 50 {
			t.Fatalf("LIMIT-50 scan from %s: %d rows, %v", start, rows, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 40<<10 {
			t.Fatalf("LIMIT-50 scan from %s allocated %d bytes, want < 40 KB", start, alloc)
		}
	}
}

func TestScanReverse(t *testing.T) {
	const n = 3000
	s := newPushdownServer(t, n)
	fwd := collectScan(t, s, ScanOptions{TS: n, Start: []byte("p-00100"), End: []byte("p-01100")})
	rev := collectScan(t, s, ScanOptions{TS: n, Start: []byte("p-00100"), End: []byte("p-01100"), Reverse: true, Batch: 64})
	if len(fwd) != 1000 || len(rev) != 1000 {
		t.Fatalf("forward %d rows, reverse %d rows, want 1000 each", len(fwd), len(rev))
	}
	for i := range fwd {
		r := rev[len(rev)-1-i]
		if !bytes.Equal(fwd[i].Key, r.Key) || fwd[i].TS != r.TS || !bytes.Equal(fwd[i].Value, r.Value) {
			t.Fatalf("reverse mismatch at %d: %q@%d vs %q@%d", i, fwd[i].Key, fwd[i].TS, r.Key, r.TS)
		}
	}
	// Reverse + limit: the N largest keys, descending, bounded I/O.
	before := s.Stats().LogReads.Load()
	top := collectScan(t, s, ScanOptions{TS: n, Limit: 7, Reverse: true})
	if reads := s.Stats().LogReads.Load() - before; reads > 7 {
		t.Fatalf("reverse limited scan issued %d log reads, want <= 7", reads)
	}
	if len(top) != 7 || string(top[0].Key) != fmt.Sprintf("p-%05d", n-1) || string(top[6].Key) != fmt.Sprintf("p-%05d", n-7) {
		t.Fatalf("reverse limit wrong rows: %d rows, first %q last %q", len(top), top[0].Key, top[6].Key)
	}
}

func TestScanSerializablePredicates(t *testing.T) {
	const n = 2000
	s := newPushdownServer(t, n)

	// Key predicate: evaluated pre-fetch, so misses cost no log reads.
	before := s.Stats().LogReads.Load()
	rows := collectScan(t, s, ScanOptions{TS: n, KeyPred: readopt.Prefix([]byte("p-00123"))})
	if reads := s.Stats().LogReads.Load() - before; reads != 1 {
		t.Fatalf("key-pred scan issued %d log reads, want 1", reads)
	}
	if len(rows) != 1 || string(rows[0].Key) != "p-00123" {
		t.Fatalf("key-pred scan rows = %v", rows)
	}

	// Value predicate: evaluated post-fetch, still server-side.
	rows = collectScan(t, s, ScanOptions{TS: n, ValuePred: readopt.Contains([]byte("0042"))})
	want := map[string]bool{"v-00042": true, "v-00420": true, "v-00421": true, "v-00422": true,
		"v-00423": true, "v-00424": true, "v-00425": true, "v-00426": true, "v-00427": true,
		"v-00428": true, "v-00429": true, "v-10042": true}
	for _, r := range rows {
		if !bytes.Contains(r.Value, []byte("0042")) {
			t.Fatalf("value-pred let through %q", r.Value)
		}
		delete(want, string(r.Value))
	}
	for w := range want {
		if w <= fmt.Sprintf("v-%05d", n-1) {
			t.Fatalf("value-pred scan missed %s", w)
		}
	}

	// Value predicate + limit: counts rows AFTER filtering.
	rows = collectScan(t, s, ScanOptions{TS: n, ValuePred: readopt.Contains([]byte("7")), Limit: 5})
	if len(rows) != 5 {
		t.Fatalf("filtered+limited scan returned %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if !bytes.Contains(r.Value, []byte("7")) {
			t.Fatalf("filtered+limited scan let through %q", r.Value)
		}
	}
}

func TestReadRowUnifiesPointReads(t *testing.T) {
	s := newPushdownServer(t, 1)
	// Three versions of one key.
	key := []byte("multi")
	for v := 1; v <= 3; v++ {
		if err := s.Write("t/0000", "g", key, int64(100*v), []byte(fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
	}

	// Latest.
	rows, err := s.ReadRow("t/0000", "g", key, readopt.Options{})
	if err != nil || len(rows) != 1 || string(rows[0].Value) != "v3" {
		t.Fatalf("latest read = %v, %v", rows, err)
	}
	// Snapshot-pinned (GetAt shape).
	rows, err = s.ReadRow("t/0000", "g", key, readopt.Options{Snapshot: 150})
	if err != nil || len(rows) != 1 || string(rows[0].Value) != "v1" {
		t.Fatalf("snapshot read = %v, %v", rows, err)
	}
	// All versions, oldest first (Versions shape).
	rows, err = s.ReadRow("t/0000", "g", key, readopt.Options{AllVersions: true})
	if err != nil || len(rows) != 3 || rows[0].TS != 100 || rows[2].TS != 300 {
		t.Fatalf("versions read = %v, %v", rows, err)
	}
	// Newest first with a limit.
	rows, err = s.ReadRow("t/0000", "g", key, readopt.Options{AllVersions: true, Reverse: true, Limit: 2})
	if err != nil || len(rows) != 2 || rows[0].TS != 300 || rows[1].TS != 200 {
		t.Fatalf("reverse limited versions = %v, %v", rows, err)
	}
	// AllVersions + snapshot hides newer versions.
	rows, err = s.ReadRow("t/0000", "g", key, readopt.Options{AllVersions: true, Snapshot: 250})
	if err != nil || len(rows) != 2 {
		t.Fatalf("snapshot versions = %v, %v", rows, err)
	}
	// Value predicate on the point path.
	if _, err := s.ReadRow("t/0000", "g", key, readopt.Options{Value: readopt.Prefix([]byte("nope"))}); err == nil {
		t.Fatal("value-pred miss should be ErrNotFound")
	}
	// Time range on the point path: the visible version (TS 300) falls
	// outside [100, 200], so the read misses — same answer a filtered
	// scan over this key gives.
	if _, err := s.ReadRow("t/0000", "g", key, readopt.Options{MinTS: 100, MaxTS: 200}); err == nil {
		t.Fatal("time-range miss should be ErrNotFound")
	}
	rows, err = s.ReadRow("t/0000", "g", key, readopt.Options{MinTS: 250, MaxTS: 350})
	if err != nil || len(rows) != 1 || rows[0].TS != 300 {
		t.Fatalf("time-range hit = %v, %v", rows, err)
	}
	// Missing key: point path errors, AllVersions path returns empty.
	if _, err := s.ReadRow("t/0000", "g", []byte("ghost"), readopt.Options{}); err == nil {
		t.Fatal("missing key should be ErrNotFound")
	}
	rows, err = s.ReadRow("t/0000", "g", []byte("ghost"), readopt.Options{AllVersions: true})
	if err != nil || len(rows) != 0 {
		t.Fatalf("missing key versions = %v, %v", rows, err)
	}
}

// A version history read with a value predicate and a Limit stops
// reading the log once Limit versions have matched.
func TestReadRowVersionsLimitBoundsLogReads(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("hist")
	for v := 1; v <= 200; v++ {
		if err := s.Write(testTablet, testGroup, key, int64(v), []byte(fmt.Sprintf("v%03d", v))); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Stats().LogReads.Load()
	rows, err := s.ReadRow(testTablet, testGroup, key, readopt.Options{AllVersions: true, Value: readopt.Prefix([]byte("v")), Limit: 3})
	if err != nil || len(rows) != 3 || rows[0].TS != 1 || rows[2].TS != 3 {
		t.Fatalf("limited versions = %v, %v", rows, err)
	}
	if reads := s.Stats().LogReads.Load() - base; reads > 3 {
		t.Errorf("Limit 3 read %d versions from the log, want <= 3", reads)
	}
}

func TestFullScanOpts(t *testing.T) {
	const n = 1000
	s := newPushdownServer(t, n)
	ctx := context.Background()

	// Limit stops the sweep.
	count := 0
	if err := s.FullScanOpts(ctx, "t/0000", "g", readopt.Options{Limit: 9}, func(Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("limited full scan saw %d rows, want 9", count)
	}

	// Prefix + value predicate.
	count = 0
	err := s.FullScanOpts(ctx, "t/0000", "g", readopt.Options{Prefix: []byte("p-001"), Value: readopt.Contains([]byte("5"))}, func(r Row) bool {
		if !bytes.HasPrefix(r.Key, []byte("p-001")) || !bytes.Contains(r.Value, []byte("5")) {
			t.Fatalf("full scan pushdown let through %q=%q", r.Key, r.Value)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("prefix+value full scan saw nothing")
	}

	// Snapshot-pinned full scan: overwrite a row, old version visible.
	if err := s.Write("t/0000", "g", []byte("p-00000"), int64(n+100), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	var seen []byte
	err = s.FullScanOpts(ctx, "t/0000", "g", readopt.Options{Snapshot: int64(n), Prefix: []byte("p-00000")}, func(r Row) bool {
		seen = r.Value
		return true
	})
	if err != nil || string(seen) != "v-00000" {
		t.Fatalf("snapshot full scan saw %q, %v (want old version)", seen, err)
	}
}
