package lrs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/lsm"
	"repro/internal/wal"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 1 << 20
	}
	s, err := Open(fs, "lrs0", cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGet(t *testing.T) {
	s := newStore(t, Config{})
	s.Put([]byte("k"), 1, []byte("v"))
	row, err := s.GetLatest([]byte("k"))
	if err != nil || string(row.Value) != "v" {
		t.Errorf("Get = %+v err=%v", row, err)
	}
	if _, err := s.GetLatest([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
}

func TestIndexSpillsToDiskAndStillServes(t *testing.T) {
	// The point of LRS: the index lives in an LSM-tree, so it works even
	// when the "memory" (memtable) is tiny and most entries sit in
	// on-disk runs.
	s := newStore(t, Config{Index: lsm.Options{MemtableBytes: 1 << 10, L0CompactionTrigger: 2}})
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if err := s.Put(key, int64(i%7+1), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if runs := s.fs.List("lrs0/index/"); len(runs) == 0 {
		t.Fatal("index never spilled to disk; test misconfigured")
	}
	for _, i := range []int{0, 1, 999, 1999} {
		key := []byte(fmt.Sprintf("key-%05d", i))
		row, err := s.GetLatest(key)
		if err != nil || string(row.Value) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %+v err=%v", key, row, err)
		}
	}
}

func TestMultiversion(t *testing.T) {
	s := newStore(t, Config{})
	for ts := int64(1); ts <= 5; ts++ {
		s.Put([]byte("k"), ts*10, []byte(fmt.Sprintf("v%d", ts)))
	}
	row, err := s.Get([]byte("k"), 25)
	if err != nil || string(row.Value) != "v2" {
		t.Errorf("Get@25 = %+v err=%v", row, err)
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, Config{})
	s.Put([]byte("k"), 1, []byte("v"))
	s.Delete([]byte("k"), 2)
	if _, err := s.GetLatest([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key err = %v", err)
	}
	// Invalidation is also in the data log.
	found := false
	sc := s.log.NewScanner(wal.Position{})
	for sc.Next() {
		if sc.View().Kind() == wal.KindDelete {
			found = true
		}
	}
	if !found {
		t.Error("no invalidation record in the data log")
	}
}

func TestFullScanVersionCheck(t *testing.T) {
	s := newStore(t, Config{})
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		s.Put(key, 1, []byte("old"))
		s.Put(key, 2, []byte("new"))
	}
	s.Delete([]byte("k00"), 3)
	seen := map[string]string{}
	if err := s.FullScan(func(r Row) bool {
		seen[string(r.Key)] = string(r.Value)
		return true
	}); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if len(seen) != 49 {
		t.Errorf("full scan saw %d keys, want 49", len(seen))
	}
	for k, v := range seen {
		if v != "new" {
			t.Errorf("stale value %q for %s", v, k)
		}
	}
}
