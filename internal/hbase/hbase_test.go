package hbase

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dfs"
)

func newStore(t *testing.T, cfg Config) (*Store, *dfs.DFS) {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 1 << 20
	}
	s, err := Open(fs, "region0", cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, fs
}

func TestPutGet(t *testing.T) {
	s, _ := newStore(t, Config{})
	s.Put([]byte("k"), 1, []byte("v"))
	row, err := s.GetLatest([]byte("k"))
	if err != nil || string(row.Value) != "v" {
		t.Errorf("Get = %+v err=%v", row, err)
	}
	if _, err := s.GetLatest([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key err = %v", err)
	}
}

func TestDoubleWriteAmplification(t *testing.T) {
	// The paper's core contrast: HBase persists data twice — once in the
	// WAL and once in flushed store files.
	s, fs := newStore(t, Config{MemtableBytes: 4 << 10})
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), 1, make([]byte, 100))
	}
	s.Flush()
	n := 0
	if err := s.FullScan(func(Row) bool { n++; return true }); err != nil || n != 200 {
		t.Errorf("full scan = %d rows, %v; want 200", n, err)
	}
	var fileBytes int64
	for _, p := range fs.List(s.dir + "/hfile-") {
		size, err := fs.Size(p)
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += size
	}
	if fileBytes == 0 {
		t.Error("no store files despite small memtable: double write not exercised")
	}
	walBytes := s.wal.Size()
	if walBytes == 0 {
		t.Error("WAL empty: durability path missing")
	}
	// Total persisted ≈ WAL + store files ≈ 2x the data.
	if fileBytes < walBytes/2 {
		t.Errorf("store files hold %d bytes vs wal %d; flush path suspiciously small", fileBytes, walBytes)
	}
}

func TestVersionsAndSnapshotReads(t *testing.T) {
	s, _ := newStore(t, Config{MemtableBytes: 1 << 10})
	for ts := int64(1); ts <= 10; ts++ {
		s.Put([]byte("k"), ts*10, []byte(fmt.Sprintf("v%d", ts)))
		s.Put([]byte(fmt.Sprintf("filler%d", ts)), 1, make([]byte, 200)) // force flushes
	}
	row, err := s.Get([]byte("k"), 35)
	if err != nil || string(row.Value) != "v3" {
		t.Errorf("Get@35 = %+v err=%v", row, err)
	}
	row, err = s.GetLatest([]byte("k"))
	if err != nil || string(row.Value) != "v10" {
		t.Errorf("latest = %+v err=%v", row, err)
	}
}

func TestDeleteTombstones(t *testing.T) {
	s, _ := newStore(t, Config{})
	s.Put([]byte("k"), 1, []byte("v"))
	s.Delete([]byte("k"), 2)
	if _, err := s.GetLatest([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key err = %v", err)
	}
	s.Flush()
	if _, err := s.GetLatest([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Error("tombstone lost in flush")
	}
}

func TestMinorCompactionBoundsStoreFiles(t *testing.T) {
	s, _ := newStore(t, Config{MemtableBytes: 1 << 10, MaxStoreFiles: 3})
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), 1, make([]byte, 64))
	}
	if n := s.NumStoreFiles(); n > 4 {
		t.Errorf("store files = %d, minor compaction not bounding", n)
	}
	if written := s.nextFile - 1; written <= s.NumStoreFiles() {
		t.Errorf("%d store files written, %d left: no minor compactions ran", written, s.NumStoreFiles())
	}
	for _, i := range []int{0, 250, 499} {
		if _, err := s.GetLatest([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Errorf("k%04d lost: %v", i, err)
		}
	}
}

func TestScanSortedAcrossSources(t *testing.T) {
	s, _ := newStore(t, Config{MemtableBytes: 2 << 10})
	for i := 399; i >= 0; i-- {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), 1, []byte("v"))
	}
	var keys []string
	err := s.Scan([]byte("k0100"), []byte("k0200"), math.MaxInt64, func(r Row) bool {
		keys = append(keys, string(r.Key))
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(keys) != 100 || keys[0] != "k0100" || keys[99] != "k0199" {
		t.Errorf("scan: %d keys, first %s last %s", len(keys), keys[0], keys[len(keys)-1])
	}
	n := 0
	if err := s.FullScan(func(Row) bool { n++; return true }); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if n != 400 {
		t.Errorf("full scan = %d rows", n)
	}
}

func TestScanSkipsTombstonesAndOldVersions(t *testing.T) {
	s, _ := newStore(t, Config{})
	s.Put([]byte("a"), 1, []byte("a1"))
	s.Put([]byte("a"), 2, []byte("a2"))
	s.Put([]byte("b"), 1, []byte("b1"))
	s.Delete([]byte("b"), 2)
	s.Put([]byte("c"), 5, []byte("c5"))
	var got []string
	s.Scan(nil, nil, math.MaxInt64, func(r Row) bool {
		got = append(got, fmt.Sprintf("%s=%s", r.Key, r.Value))
		return true
	})
	if len(got) != 2 || got[0] != "a=a2" || got[1] != "c=c5" {
		t.Errorf("scan = %v", got)
	}
	// Snapshot scan sees b@1.
	got = nil
	s.Scan(nil, nil, 1, func(r Row) bool {
		got = append(got, fmt.Sprintf("%s=%s", r.Key, r.Value))
		return true
	})
	if len(got) != 2 || got[0] != "a=a1" || got[1] != "b=b1" {
		t.Errorf("snapshot scan = %v", got)
	}
}

func TestBlockCacheReducesReads(t *testing.T) {
	s, _ := newStore(t, Config{MemtableBytes: 1 << 10, BlockCacheBytes: 1 << 20})
	for i := 0; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), 1, make([]byte, 64))
	}
	s.Flush()
	s.GetLatest([]byte("k0001"))
	s.GetLatest([]byte("k0002"))
	if st := s.bc.Stats(); st.Hits == 0 {
		t.Errorf("no block cache hits: %+v", st)
	}
}
