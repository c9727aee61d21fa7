package logbase_test

// Tests for the push-down read API: iterator edge semantics (the
// Next-after-Close / double-Close satellite), the unified Read call,
// and the acceptance criteria — a limited+filtered cluster scan over
// 100k rows ships only a small multiple of the limit from the tablet
// servers (asserted via the engine's load counters), and reverse /
// snapshot-pinned scans agree with forward / latest oracles on both
// backends.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	logbase "repro"
)

func newEmbeddedStore(t *testing.T) logbase.Store {
	t.Helper()
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func newClusterStore(t *testing.T, servers, tablets int) (logbase.Store, *logbase.Cluster) {
	t.Helper()
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: servers,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: tablets}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	t.Cleanup(func() { cc.Close() })
	return cc, c
}

// TestIteratorEdgeSemantics is the regression satellite: Next after
// Close must return false (not panic), double Close must be idempotent
// — including on the error iterator and mid-stream.
func TestIteratorEdgeSemantics(t *testing.T) {
	st := newEmbeddedStore(t)
	loadRows(t, st, "t", "g", 5000)

	// Exhausted iterator: Close twice, Next after Close.
	it := st.Scan(bg, "t", "g", nil, nil, logbase.WithLimit(3))
	for it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if it.Next() {
		t.Fatal("Next after Close returned true")
	}

	// Mid-stream Close: the iterator still has undelivered rows.
	it = st.Scan(bg, "t", "g", nil, nil)
	if !it.Next() {
		t.Fatalf("scan yielded nothing: %v", it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("mid-stream Close: %v", err)
	}
	if it.Next() {
		t.Fatal("Next after mid-stream Close returned true")
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second mid-stream Close: %v", err)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err after deliberate Close = %v, want nil", err)
	}

	// Never-advanced iterator: Close before any Next.
	it = st.FullScan(bg, "t", "g")
	if err := it.Close(); err != nil {
		t.Fatalf("Close before Next: %v", err)
	}
	if it.Next() {
		t.Fatal("Next after immediate Close returned true")
	}

	// The error iterator (unknown table) behaves the same way.
	bad := st.Scan(bg, "nope", "g", nil, nil)
	if bad.Next() {
		t.Fatal("error iterator yielded a row")
	}
	if bad.Err() == nil {
		t.Fatal("error iterator lost its error")
	}
	bad.Close()
	bad.Close()
	if bad.Next() {
		t.Fatal("error iterator Next after Close returned true")
	}
}

// drain collects an iterator's rows and fails the test on a stream
// error.
func drain(t *testing.T, it logbase.Iterator) []logbase.Row {
	t.Helper()
	var rows []logbase.Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows
}

// TestClusterPushdownShipsOnlyMatches is the headline acceptance test:
// WithLimit(100) plus a selective key filter over 100k rows across a
// 3-server cluster must ship only the matching rows — asserted through
// the tablet servers' log-read counters (every shipped row costs
// exactly one log read; an un-pushed scan would read all 100k).
func TestClusterPushdownShipsOnlyMatches(t *testing.T) {
	const total = 100_000
	cc, c := newClusterStore(t, 3, 6)
	loadRows(t, cc, "t", "g", total)

	logReads := func() int64 {
		var n int64
		for _, id := range c.LiveServers() {
			n += c.Server(id).Stats().LogReads.Load()
		}
		return n
	}

	const limit = 100
	before := logReads()
	rows := drain(t, cc.Scan(bg, "t", "g", nil, nil,
		logbase.WithLimit(limit),
		logbase.WithKeyFilter(logbase.MatchContains([]byte("77"))),
	))
	shipped := logReads() - before

	if len(rows) != limit {
		t.Fatalf("limited+filtered scan returned %d rows, want %d", len(rows), limit)
	}
	for _, r := range rows {
		if !bytes.Contains(r.Key, []byte("77")) {
			t.Fatalf("filter let through key %q", r.Key)
		}
	}
	// "A small multiple": allow slack for per-tablet paging, but an
	// un-pushed scan would be three orders of magnitude bigger.
	if shipped > 3*limit {
		t.Fatalf("scan shipped %d rows from tablet servers, want <= %d", shipped, 3*limit)
	}

	// Oracle: the same rows as a full client-side filter of the range.
	all := drain(t, cc.Scan(bg, "t", "g", nil, nil))
	if len(all) != total {
		t.Fatalf("oracle scan saw %d rows, want %d", len(all), total)
	}
	var want []logbase.Row
	for _, r := range all {
		if bytes.Contains(r.Key, []byte("77")) {
			want = append(want, r)
			if len(want) == limit {
				break
			}
		}
	}
	for i := range want {
		if !bytes.Equal(rows[i].Key, want[i].Key) || rows[i].TS != want[i].TS {
			t.Fatalf("row %d = %q@%d, oracle %q@%d", i, rows[i].Key, rows[i].TS, want[i].Key, want[i].TS)
		}
	}
}

// TestReverseAndSnapshotAgreeWithOracles runs on BOTH backends: a
// reverse scan must be the exact mirror of the forward scan, and a
// snapshot-pinned scan must reproduce the pre-overwrite state.
func TestReverseAndSnapshotAgreeWithOracles(t *testing.T) {
	check := func(t *testing.T, st logbase.Store) {
		t.Helper()
		const n = 2000
		loadRows(t, st, "t", "g", n)

		// Capture the pinned snapshot, then overwrite a slice of keys.
		pin := nowTS(t, st, "t", "g")
		for i := 0; i < n; i += 10 {
			if err := st.Put(bg, "t", "g", []byte(fmt.Sprintf("k%08d", i)), []byte("overwritten")); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}

		fwd := drain(t, st.Scan(bg, "t", "g", nil, nil))
		rev := drain(t, st.Scan(bg, "t", "g", nil, nil, logbase.WithReverse()))
		if len(fwd) != n || len(rev) != n {
			t.Fatalf("forward %d rows, reverse %d rows, want %d", len(fwd), len(rev), n)
		}
		for i := range fwd {
			r := rev[len(rev)-1-i]
			if !bytes.Equal(fwd[i].Key, r.Key) || fwd[i].TS != r.TS || !bytes.Equal(fwd[i].Value, r.Value) {
				t.Fatalf("reverse mismatch at %d: %q@%d vs %q@%d", i, fwd[i].Key, fwd[i].TS, r.Key, r.TS)
			}
		}

		// Snapshot-pinned scan: no "overwritten" values, and identical to
		// a GetAt-by-GetAt oracle at the same timestamp.
		pinned := drain(t, st.Scan(bg, "t", "g", nil, nil, logbase.WithSnapshot(pin)))
		if len(pinned) != n {
			t.Fatalf("pinned scan saw %d rows, want %d", len(pinned), n)
		}
		for _, r := range pinned {
			if bytes.Equal(r.Value, []byte("overwritten")) {
				t.Fatalf("pinned scan leaked post-snapshot write of %q", r.Key)
			}
			oracle, err := readAt(st, "t", "g", r.Key, pin)
			if err != nil || oracle.TS != r.TS {
				t.Fatalf("pinned scan %q@%d, GetAt oracle %d err=%v", r.Key, r.TS, oracle.TS, err)
			}
		}

		// Reverse + snapshot + limit compose: the 5 largest keys as of
		// the snapshot.
		top := drain(t, st.Scan(bg, "t", "g", nil, nil,
			logbase.WithReverse(), logbase.WithSnapshot(pin), logbase.WithLimit(5)))
		if len(top) != 5 || !bytes.Equal(top[0].Key, []byte(fmt.Sprintf("k%08d", n-1))) {
			t.Fatalf("reverse+snapshot+limit = %d rows, first %q", len(top), top[0].Key)
		}

		// Prefix push-down equals the bounds oracle.
		pfx := drain(t, st.Scan(bg, "t", "g", nil, nil, logbase.WithPrefix([]byte("k0000012"))))
		if len(pfx) != 10 || !bytes.Equal(pfx[0].Key, []byte("k00000120")) {
			t.Fatalf("prefix scan = %d rows, first %q", len(pfx), pfx[0].Key)
		}
	}
	t.Run("embedded", func(t *testing.T) { check(t, newEmbeddedStore(t)) })
	t.Run("cluster", func(t *testing.T) {
		cc, _ := newClusterStore(t, 3, 5)
		check(t, cc)
	})
}

// TestReadUnifiesPointReads exercises the one point read on both
// backends: Read == Get, Read+WithSnapshot is the as-of read, Read+
// WithAllVersions the history, plus the composable extras.
func TestReadUnifiesPointReads(t *testing.T) {
	check := func(t *testing.T, st logbase.Store) {
		t.Helper()
		if err := st.CreateTable("t", "g"); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		key := []byte("k")
		for i := 1; i <= 4; i++ {
			if err := st.Put(bg, "t", "g", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}

		rows, err := st.Read(bg, "t", "g", key)
		if err != nil || len(rows) != 1 || string(rows[0].Value) != "v4" {
			t.Fatalf("Read latest = %v err=%v", rows, err)
		}
		got, err := st.Get(bg, "t", "g", key)
		if err != nil || string(got.Value) != "v4" {
			t.Fatalf("Get adapter = %q err=%v", got.Value, err)
		}

		all, err := st.Read(bg, "t", "g", key, logbase.WithAllVersions())
		if err != nil || len(all) != 4 || string(all[0].Value) != "v1" || all[0].TS >= all[3].TS {
			t.Fatalf("Read AllVersions = %v err=%v, want v1..v4 oldest first", all, err)
		}

		// Snapshot-pinned point read: the version as of the second write.
		pinned, err := st.Read(bg, "t", "g", key, logbase.WithSnapshot(all[1].TS))
		if err != nil || len(pinned) != 1 || pinned[0].TS != all[1].TS || string(pinned[0].Value) != "v2" {
			t.Fatalf("Read WithSnapshot = %v err=%v", pinned, err)
		}

		// Newest-first history, capped.
		top, err := st.Read(bg, "t", "g", key, logbase.WithAllVersions(), logbase.WithReverse(), logbase.WithLimit(2))
		if err != nil || len(top) != 2 || string(top[0].Value) != "v4" || string(top[1].Value) != "v3" {
			t.Fatalf("Read reverse limited = %v err=%v", top, err)
		}

		// Value-filtered history.
		only, err := st.Read(bg, "t", "g", key, logbase.WithAllVersions(), logbase.WithValueFilter(logbase.MatchContains([]byte("2"))))
		if err != nil || len(only) != 1 || string(only[0].Value) != "v2" {
			t.Fatalf("Read value-filtered = %v err=%v", only, err)
		}

		// Missing key: ErrNotFound on the point path, empty on AllVersions.
		if _, err := st.Read(bg, "t", "g", []byte("ghost")); !errors.Is(err, logbase.ErrNotFound) {
			t.Fatalf("Read missing = %v, want ErrNotFound", err)
		}
		none, err := st.Read(bg, "t", "g", []byte("ghost"), logbase.WithAllVersions())
		if err != nil || len(none) != 0 {
			t.Fatalf("Read missing versions = %v err=%v", none, err)
		}
	}
	t.Run("embedded", func(t *testing.T) { check(t, newEmbeddedStore(t)) })
	t.Run("cluster", func(t *testing.T) {
		cc, _ := newClusterStore(t, 3, 3)
		check(t, cc)
	})
}

// TestFullScanPushdown: the log-order path honours limit, prefix,
// value filter, and snapshot on both backends.
func TestFullScanPushdown(t *testing.T) {
	check := func(t *testing.T, st logbase.Store) {
		t.Helper()
		const n = 3000
		loadRows(t, st, "t", "g", n)

		got := drain(t, st.FullScan(bg, "t", "g", logbase.WithLimit(17)))
		if len(got) != 17 {
			t.Fatalf("limited full scan = %d rows, want 17", len(got))
		}

		got = drain(t, st.FullScan(bg, "t", "g", logbase.WithPrefix([]byte("k0000011"))))
		if len(got) != 10 {
			t.Fatalf("prefix full scan = %d rows, want 10", len(got))
		}

		got = drain(t, st.FullScan(bg, "t", "g", logbase.WithValueFilter(logbase.MatchPrefix([]byte("999")))))
		for _, r := range got {
			if !bytes.HasPrefix(r.Value, []byte("999")) {
				t.Fatalf("value filter let through %q", r.Value)
			}
		}
		if len(got) != 3 { // values cycle i%1000: 999, 1999, 2999
			t.Fatalf("value-filtered full scan = %d rows, want 3", len(got))
		}

		// Snapshot-pinned full scan ignores a later overwrite.
		pin := nowTS(t, st, "t", "g")
		if err := st.Put(bg, "t", "g", []byte("k00000000"), []byte("fresh")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got = drain(t, st.FullScan(bg, "t", "g",
			logbase.WithSnapshot(pin), logbase.WithPrefix([]byte("k00000000"))))
		if len(got) != 1 || string(got[0].Value) != "0" {
			t.Fatalf("snapshot full scan = %v, want the pre-overwrite row", got)
		}
	}
	t.Run("embedded", func(t *testing.T) { check(t, newEmbeddedStore(t)) })
	t.Run("cluster", func(t *testing.T) {
		cc, _ := newClusterStore(t, 3, 4)
		check(t, cc)
	})
}
