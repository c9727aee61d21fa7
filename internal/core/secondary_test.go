package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// cityOf extracts a "city=<x>;" attribute from the test value encoding.
func cityOf(value []byte) []byte {
	const prefix = "city="
	i := bytes.Index(value, []byte(prefix))
	if i < 0 {
		return nil
	}
	rest := value[i+len(prefix):]
	if j := bytes.IndexByte(rest, ';'); j >= 0 {
		return rest[:j]
	}
	return rest
}

func userVal(name, city string) []byte {
	return []byte(fmt.Sprintf("name=%s;city=%s;", name, city))
}

func TestSecondaryIndexBackfillAndLookup(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cities := []string{"tokyo", "paris", "tokyo", "lima", "paris", "tokyo"}
	for i, c := range cities {
		key := []byte(fmt.Sprintf("user%02d", i))
		s.Write(testTablet, testGroup, key, int64(i+1), userVal(fmt.Sprint(i), c))
	}
	if err := s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf); err != nil {
		t.Fatalf("RegisterSecondaryIndex: %v", err)
	}
	if got := s.SecondaryLen("by-city"); got != 6 {
		t.Errorf("SecondaryLen = %d, want 6", got)
	}
	rows, err := s.LookupSecondary("by-city", []byte("tokyo"))
	if err != nil {
		t.Fatalf("LookupSecondary: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("tokyo rows = %d, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1].Key, rows[i].Key) >= 0 {
			t.Error("secondary lookup not in primary-key order")
		}
	}
	if rows, _ := s.LookupSecondary("by-city", []byte("atlantis")); len(rows) != 0 {
		t.Errorf("absent secondary key returned %d rows", len(rows))
	}
}

func TestSecondaryIndexMaintainedOnWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf); err != nil {
		t.Fatalf("Register: %v", err)
	}
	key := []byte("alice")
	s.Write(testTablet, testGroup, key, 1, userVal("alice", "tokyo"))
	rows, _ := s.LookupSecondary("by-city", []byte("tokyo"))
	if len(rows) != 1 {
		t.Fatalf("after insert: tokyo = %d rows", len(rows))
	}
	// Moving city must unindex the old value.
	s.Write(testTablet, testGroup, key, 2, userVal("alice", "paris"))
	if rows, _ := s.LookupSecondary("by-city", []byte("tokyo")); len(rows) != 0 {
		t.Errorf("stale secondary entry after update: %d rows", len(rows))
	}
	rows, _ = s.LookupSecondary("by-city", []byte("paris"))
	if len(rows) != 1 || string(cityOf(rows[0].Value)) != "paris" {
		t.Errorf("paris rows = %v", rows)
	}
	// Delete removes the secondary entry.
	s.Delete(testTablet, testGroup, key, 3)
	if rows, _ := s.LookupSecondary("by-city", []byte("paris")); len(rows) != 0 {
		t.Errorf("secondary entry survived delete: %d rows", len(rows))
	}
}

// Rewriting a key with the same secondary value replaces its entry: the
// index keeps one entry per key, following the key's newest version.
func TestSecondarySameValueUpdate(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf); err != nil {
		t.Fatalf("Register: %v", err)
	}
	key := []byte("alice")
	s.Write(testTablet, testGroup, key, 1, userVal("alice", "tokyo"))
	s.Write(testTablet, testGroup, key, 2, userVal("alice2", "tokyo"))
	rows, err := s.LookupSecondary("by-city", []byte("tokyo"))
	if err != nil {
		t.Fatalf("LookupSecondary: %v", err)
	}
	if len(rows) != 1 || rows[0].TS != 2 || string(rows[0].Value) != string(userVal("alice2", "tokyo")) {
		t.Fatalf("tokyo rows = %q, want the one row at ts 2", rows)
	}
	if got := s.SecondaryLen("by-city"); got != 1 {
		t.Errorf("SecondaryLen = %d, want 1", got)
	}
}

// Range bounds compare secondary values bytewise whatever their
// lengths, and rows come back in (value, primary key) order.
func TestSecondaryRangeMixedLengths(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	for i, c := range []string{"c", "ba", "b", "a\x00z", "bz", "d"} {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("u%d", i)), int64(i+1), userVal("x", c))
	}
	var got []string
	err := s.ScanSecondaryRange("by-city", []byte("a"), []byte("bz"), func(sec []byte, r Row) bool {
		got = append(got, fmt.Sprintf("%q/%s", sec, r.Key))
		return true
	})
	if err != nil {
		t.Fatalf("ScanSecondaryRange: %v", err)
	}
	want := []string{`"a\x00z"/u3`, `"b"/u2`, `"ba"/u1`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	if rows, _ := s.LookupSecondary("by-city", []byte("b")); len(rows) != 1 || string(rows[0].Key) != "u2" {
		t.Errorf("lookup b = %q, want u2 only", rows)
	}
}

// A range scan that starts near the end of a large index reads only the
// rows it returns: allocation stays far below collecting every entry
// (17 MB over 50K keys).
func TestSecondaryRangeScanTailAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	const n, chunk = 50000, 1000
	for i := 0; i < n; i += chunk {
		batch := make([]BatchWrite, chunk)
		for j := range batch {
			batch[j] = BatchWrite{Tablet: testTablet, Group: testGroup, Key: k6(i + j), TS: 1, Value: userVal("x", fmt.Sprintf("c%06d", i+j))}
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
	}
	rows := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.ScanSecondaryRange("by-city", []byte(fmt.Sprintf("c%06d", n-10)), nil, func([]byte, Row) bool { rows++; return true })
	runtime.ReadMemStats(&after)
	if err != nil || rows != 10 {
		t.Fatalf("tail scan saw %d rows, err %v; want 10", rows, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("tail scan allocated %d bytes, want < 2 MB", alloc)
	}
}

// A range scan longer than one index page returns each row at most
// once, even when rows it already returned move ahead of its cursor:
// every row the scan sees is rewritten to a city past the end of the
// range, where later pages find it again under its new composite.
func TestSecondaryRangeKeyMovedMidScan(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	const n = 3 * defaultScanBatch
	for i := 0; i < n; i++ {
		s.Write(testTablet, testGroup, k6(i), 1, userVal("x", fmt.Sprintf("a%06d", i)))
	}
	seen := make(map[string]int, n)
	err := s.ScanSecondaryRange("by-city", nil, nil, func(_ []byte, r Row) bool {
		seen[string(r.Key)]++
		if err := s.Write(testTablet, testGroup, r.Key, r.TS+1, userVal("x", "z"+string(r.Key))); err != nil {
			t.Errorf("Write: %v", err)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanSecondaryRange: %v", err)
	}
	if len(seen) != n {
		t.Errorf("scan returned %d distinct rows, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("row %s returned %d times", k, c)
		}
	}
	if got := s.SecondaryLen("by-city"); got != n {
		t.Errorf("SecondaryLen = %d, want %d", got, n)
	}
}

func TestSecondaryIndexTxnWrites(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	err := s.ApplyTxn(9, 50, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("bob"), Value: userVal("bob", "lima")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("carol"), Value: userVal("carol", "lima")},
	})
	if err != nil {
		t.Fatalf("ApplyTxn: %v", err)
	}
	rows, _ := s.LookupSecondary("by-city", []byte("lima"))
	if len(rows) != 2 {
		t.Fatalf("lima rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.TS != 50 {
			t.Errorf("row %s TS = %d, want commit ts 50", r.Key, r.TS)
		}
	}
}

func TestSecondaryRangeScan(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	for i, c := range []string{"aa", "bb", "cc", "dd", "bb"} {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("u%d", i)), int64(i+1), userVal("x", c))
	}
	var got []string
	err := s.ScanSecondaryRange("by-city", []byte("bb"), []byte("dd"), func(sec []byte, r Row) bool {
		got = append(got, fmt.Sprintf("%s/%s", sec, r.Key))
		return true
	})
	if err != nil {
		t.Fatalf("ScanSecondaryRange: %v", err)
	}
	want := []string{"bb/u1", "bb/u4", "cc/u2"}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSecondaryIndexNilExtractor(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Index only rows with a city; others are skipped.
	s.RegisterSecondaryIndex("by-city", testTablet, testGroup, cityOf)
	s.Write(testTablet, testGroup, []byte("u1"), 1, []byte("no-city-here"))
	s.Write(testTablet, testGroup, []byte("u2"), 2, userVal("x", "oslo"))
	if got := s.SecondaryLen("by-city"); got != 1 {
		t.Errorf("SecondaryLen = %d, want 1 (nil extractions skipped)", got)
	}
	// A later update that gains a city gets indexed.
	s.Write(testTablet, testGroup, []byte("u1"), 3, userVal("y", "oslo"))
	rows, _ := s.LookupSecondary("by-city", []byte("oslo"))
	if len(rows) != 2 {
		t.Errorf("oslo rows = %d, want 2", len(rows))
	}
}

func TestSecondaryUnknownName(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.LookupSecondary("nope", []byte("x")); err == nil {
		t.Error("lookup on unregistered index succeeded")
	}
	if err := s.ScanSecondaryRange("nope", nil, nil, func([]byte, Row) bool { return true }); err == nil {
		t.Error("scan on unregistered index succeeded")
	}
	if err := s.RegisterSecondaryIndex("x", "missing/tablet", testGroup, cityOf); err == nil {
		t.Error("register on unknown tablet succeeded")
	}
}
