package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/readopt"
)

const (
	testTablet = "users/0000"
	testGroup  = "profile"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *dfs.DFS) {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	s := mustServer(t, fs, "ts1", cfg)
	return s, fs
}

// versionsOf returns every stored version of key, oldest first.
func versionsOf(s *Server, key []byte) ([]Row, error) {
	return s.ReadRow(testTablet, testGroup, key, readopt.Options{AllVersions: true})
}

func mustServer(t *testing.T, fs *dfs.DFS, id string, cfg Config) *Server {
	t.Helper()
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 1 << 20
	}
	s, err := NewServer(fs, id, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup, "activity"})
	return s
}

func TestWriteGet(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Write(testTablet, testGroup, []byte("alice"), 10, []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	row, err := s.Get(testTablet, testGroup, []byte("alice"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(row.Value) != "v1" || row.TS != 10 {
		t.Errorf("row = %+v", row)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.Get(testTablet, testGroup, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("nope/0", testGroup, []byte("x")); !errors.Is(err, ErrUnknownTablet) {
		t.Errorf("unknown tablet err = %v", err)
	}
	if err := s.Write(testTablet, "badgroup", []byte("x"), 1, nil); err == nil {
		t.Error("write to undeclared column group succeeded")
	}
}

func TestMultiversionGetAt(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("stock/AAPL")
	for _, ts := range []int64{10, 20, 30} {
		s.Write(testTablet, testGroup, key, ts, []byte(fmt.Sprintf("price@%d", ts)))
	}
	cases := []struct {
		at   int64
		want string
	}{{10, "price@10"}, {15, "price@10"}, {25, "price@20"}, {99, "price@30"}}
	for _, c := range cases {
		row, err := s.GetAt(testTablet, testGroup, key, c.at)
		if err != nil {
			t.Fatalf("GetAt(%d): %v", c.at, err)
		}
		if string(row.Value) != c.want {
			t.Errorf("GetAt(%d) = %q, want %q", c.at, row.Value, c.want)
		}
	}
	if _, err := s.GetAt(testTablet, testGroup, key, 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("pre-history GetAt err = %v", err)
	}
	rows, err := versionsOf(s, key)
	if err != nil || len(rows) != 3 {
		t.Fatalf("Versions = %d rows, err %v", len(rows), err)
	}
	for i, want := range []int64{10, 20, 30} {
		if rows[i].TS != want {
			t.Errorf("version %d TS = %d", i, rows[i].TS)
		}
	}
}

func TestDelete(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	key := []byte("gone")
	s.Write(testTablet, testGroup, key, 1, []byte("v"))
	s.Get(testTablet, testGroup, key) // populate cache
	if err := s.Delete(testTablet, testGroup, key, 2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(testTablet, testGroup, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete err = %v", err)
	}
	// Write after delete resurrects the key.
	s.Write(testTablet, testGroup, key, 3, []byte("back"))
	row, err := s.Get(testTablet, testGroup, key)
	if err != nil || string(row.Value) != "back" {
		t.Errorf("resurrected row = %+v err=%v", row, err)
	}
}

func TestColumnGroupIsolation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	key := []byte("k")
	s.Write(testTablet, testGroup, key, 1, []byte("profile-data"))
	s.Write(testTablet, "activity", key, 2, []byte("activity-data"))
	p, _ := s.Get(testTablet, testGroup, key)
	a, _ := s.Get(testTablet, "activity", key)
	if string(p.Value) != "profile-data" || string(a.Value) != "activity-data" {
		t.Errorf("cross-group contamination: %q / %q", p.Value, a.Value)
	}
	// Deleting in one group leaves the other.
	s.Delete(testTablet, testGroup, key, 3)
	if _, err := s.Get(testTablet, "activity", key); err != nil {
		t.Errorf("delete leaked across groups: %v", err)
	}
}

func TestReadCache(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	key := []byte("hot")
	s.Write(testTablet, testGroup, key, 1, []byte("v"))
	s.Get(testTablet, testGroup, key)
	logReadsBefore := s.Stats().LogReads.Load()
	for i := 0; i < 10; i++ {
		if _, err := s.Get(testTablet, testGroup, key); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if got := s.Stats().LogReads.Load(); got != logReadsBefore {
		t.Errorf("cached gets hit the log %d times", got-logReadsBefore)
	}
	if s.CacheStats().Hits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestCacheDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{}) // ReadCacheBytes 0
	key := []byte("k")
	s.Write(testTablet, testGroup, key, 1, []byte("v"))
	for i := 0; i < 3; i++ {
		s.Get(testTablet, testGroup, key)
	}
	if got := s.Stats().LogReads.Load(); got != 3 {
		t.Errorf("with cache disabled, log reads = %d, want 3", got)
	}
}

func TestCacheSnapshotVisibility(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20})
	key := []byte("k")
	s.Write(testTablet, testGroup, key, 10, []byte("v10"))
	s.Write(testTablet, testGroup, key, 20, []byte("v20")) // cached latest
	// A snapshot read at ts=15 must NOT be served the cached v20.
	row, err := s.GetAt(testTablet, testGroup, key, 15)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if string(row.Value) != "v10" {
		t.Errorf("snapshot read returned %q, want v10", row.Value)
	}
}

func TestScanRange(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("row-%03d", i))
		s.Write(testTablet, testGroup, key, 1, []byte(fmt.Sprintf("v%d", i)))
		s.Write(testTablet, testGroup, key, 2, []byte(fmt.Sprintf("v%d'", i)))
	}
	var keys []string
	err := serialScan(context.Background(), s, testTablet, testGroup, []byte("row-010"), []byte("row-020"), 99, func(r Row) bool {
		keys = append(keys, string(r.Key))
		if r.TS != 2 {
			t.Errorf("scan returned stale version ts=%d for %s", r.TS, r.Key)
		}
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(keys) != 10 || keys[0] != "row-010" || keys[9] != "row-019" {
		t.Errorf("scan keys = %v", keys)
	}
	// Snapshot scan sees version 1.
	err = serialScan(context.Background(), s, testTablet, testGroup, []byte("row-010"), []byte("row-012"), 1, func(r Row) bool {
		if r.TS != 1 {
			t.Errorf("snapshot scan got ts=%d", r.TS)
		}
		return true
	})
	if err != nil {
		t.Fatalf("snapshot Scan: %v", err)
	}
	// Early termination.
	n := 0
	serialScan(context.Background(), s, testTablet, testGroup, nil, nil, 99, func(Row) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early-stop scan visited %d", n)
	}
}

func TestFullScan(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		s.Write(testTablet, testGroup, key, 1, []byte("old"))
		s.Write(testTablet, testGroup, key, 2, []byte("new"))
	}
	s.Delete(testTablet, testGroup, []byte("k00"), 3)
	seen := map[string]string{}
	err := s.FullScanOpts(context.Background(), testTablet, testGroup, readopt.Options{}, func(r Row) bool {
		seen[string(r.Key)] = string(r.Value)
		return true
	})
	if err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if len(seen) != 49 {
		t.Errorf("full scan saw %d keys, want 49", len(seen))
	}
	for k, v := range seen {
		if v != "new" {
			t.Errorf("full scan returned stale value %q for %s", v, k)
		}
	}
	if _, ok := seen["k00"]; ok {
		t.Error("full scan returned deleted key")
	}
}

func TestGroupCommitPath(t *testing.T) {
	s, _ := newTestServer(t, Config{GroupCommit: true})
	// Twice as many concurrent writers as one flush carries, so a full
	// group spills into a second flush.
	const writers = 2 * groupCommitBatch
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("gc-%02d", g))
			if err := s.Write(testTablet, testGroup, key, int64(g+1), []byte("v")); err != nil {
				t.Errorf("Write: %v", err)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		if _, err := s.Get(testTablet, testGroup, []byte(fmt.Sprintf("gc-%02d", g))); err != nil {
			t.Errorf("Get gc-%02d: %v", g, err)
		}
	}
}

func TestApplyTxnVisibilityAndAtomicity(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	writes := []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("acct/a"), Value: []byte("90")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("acct/b"), Value: []byte("110")},
	}
	if err := s.ApplyTxn(7, 100, writes); err != nil {
		t.Fatalf("ApplyTxn: %v", err)
	}
	for _, k := range []string{"acct/a", "acct/b"} {
		row, err := s.Get(testTablet, testGroup, []byte(k))
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		if row.TS != 100 {
			t.Errorf("%s committed at ts %d, want 100", k, row.TS)
		}
	}
	// Transactional delete.
	if err := s.ApplyTxn(8, 200, []TxnWrite{{Tablet: testTablet, Group: testGroup, Key: []byte("acct/a"), Delete: true}}); err != nil {
		t.Fatalf("ApplyTxn delete: %v", err)
	}
	if _, err := s.Get(testTablet, testGroup, []byte("acct/a")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key err = %v", err)
	}
}

func TestCurrentVersion(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if v, _ := s.CurrentVersion(testTablet, testGroup, []byte("k")); v != 0 {
		t.Errorf("absent key version = %d", v)
	}
	s.Write(testTablet, testGroup, []byte("k"), 42, []byte("v"))
	if v, _ := s.CurrentVersion(testTablet, testGroup, []byte("k")); v != 42 {
		t.Errorf("version = %d, want 42", v)
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	s, _ := newTestServer(t, Config{ReadCacheBytes: 1 << 20, SegmentSize: 1 << 16})
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("w%d-k%03d", w, i))
				if err := s.Write(testTablet, testGroup, key, int64(i+1), bytes.Repeat([]byte{byte(w)}, 32)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				if _, err := s.Get(testTablet, testGroup, key); err != nil {
					t.Errorf("read own write %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.IndexLen(testTablet, testGroup); got != writers*perWriter {
		t.Errorf("index has %d entries, want %d", got, writers*perWriter)
	}
}

func TestStatsCounting(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("k"), 1, []byte("v"))
	s.Get(testTablet, testGroup, []byte("k"))
	s.Delete(testTablet, testGroup, []byte("k"), 2)
	st := s.Stats()
	if st.Writes.Load() != 1 || st.Reads.Load() != 1 || st.Deletes.Load() != 1 {
		t.Errorf("stats = w%d r%d d%d", st.Writes.Load(), st.Reads.Load(), st.Deletes.Load())
	}
}

func TestRemoveTablet(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("k"), 1, []byte("v"))
	s.RemoveTablet(testTablet)
	if err := s.Write(testTablet, testGroup, []byte("k2"), 2, []byte("v")); !errors.Is(err, ErrUnknownTablet) {
		t.Errorf("write to removed tablet err = %v", err)
	}
	if _, err := s.Get(testTablet, testGroup, []byte("k")); !errors.Is(err, ErrUnknownTablet) {
		t.Errorf("read of removed tablet err = %v", err)
	}
}

func TestWriteAmplification(t *testing.T) {
	// The log-only claim: n writes cost exactly n framed records in the
	// DFS — no second copy into data files.
	s, fs := newTestServer(t, Config{})
	payload := bytes.Repeat([]byte("x"), 100)
	const n = 200
	for i := 0; i < n; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), 1, payload)
	}
	logBytes, err := fs.Size("log/ts1/seg-00000001")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	perRecord := float64(logBytes) / n
	if perRecord > 220 { // 100B payload + ~60B metadata + framing, no 2x
		t.Errorf("per-record log cost %.0fB suggests data written twice", perRecord)
	}
}

// TestWriteAllocBudget is the write path's allocation ceiling: a
// Server.Write of a 256 B value, one log append replicated to three
// datanodes, makes at most 4 allocations (22 while the DFS wrote each
// replica on a goroutine of its own, 7 while the frame was encoded apart
// from the append batch, 5 while the append hook copied every batch),
// with or without an idle open feed: the log keeps the batch it wrote
// as its in-memory tail, and does nothing per feed.
// Lower it when a change removes one; a change that adds one fails here.
func TestWriteAllocBudget(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4 << 20})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	s := mustServer(t, fs, "ts1", Config{})
	defer s.Close()
	const runs = 200
	keys := make([][]byte, 2*(runs+1))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%06d", i))
	}
	value := bytes.Repeat([]byte("v"), 256)
	if err := s.Write(testTablet, testGroup, []byte("warm"), 1, value); err != nil {
		t.Fatalf("Write: %v", err)
	}
	i := 0
	measure := func(input string) {
		t.Helper()
		allocs := testing.AllocsPerRun(runs, func() {
			if err := s.Write(testTablet, testGroup, keys[i], int64(i+2), value); err != nil {
				t.Fatalf("Write: %v", err)
			}
			i++
		})
		if allocs > 4 {
			t.Fatalf("Server.Write of 256 B %s: %v allocs, want <= 4", input, allocs)
		}
	}
	measure("with no feed")
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	nextEvent(t, f) // the catch-up sweep is done; nobody reads on
	measure("with an idle open feed")
}

func TestRandomizedAgainstModel(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 14})
	rng := rand.New(rand.NewSource(99))
	type versioned struct {
		ts    int64
		value string
	}
	model := map[string][]versioned{}
	ts := int64(0)
	for op := 0; op < 2000; op++ {
		key := fmt.Sprintf("k%02d", rng.Intn(40))
		ts++
		switch rng.Intn(10) {
		case 0: // delete
			s.Delete(testTablet, testGroup, []byte(key), ts)
			model[key] = nil
		default:
			v := fmt.Sprintf("v%d", op)
			s.Write(testTablet, testGroup, []byte(key), ts, []byte(v))
			model[key] = append(model[key], versioned{ts, v})
		}
	}
	for key, versions := range model {
		row, err := s.Get(testTablet, testGroup, []byte(key))
		if len(versions) == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: want not-found, got %+v err=%v", key, row, err)
			}
			continue
		}
		want := versions[len(versions)-1]
		if err != nil || string(row.Value) != want.value || row.TS != want.ts {
			t.Errorf("%s: got (%q,%d) err=%v, want (%q,%d)", key, row.Value, row.TS, err, want.value, want.ts)
		}
		// Spot-check one historical version.
		mid := versions[rng.Intn(len(versions))]
		hrow, herr := s.GetAt(testTablet, testGroup, []byte(key), mid.ts)
		if herr != nil || string(hrow.Value) != mid.value {
			t.Errorf("%s@%d: got %q err=%v, want %q", key, mid.ts, hrow.Value, herr, mid.value)
		}
	}
}
