package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/wal"
)

// crashAndRestart simulates a tablet server failure: the old in-memory
// state is dropped and a fresh server is opened over the same DFS log.
func crashAndRestart(t *testing.T, fs *dfs.DFS, id string, cfg Config) *Server {
	t.Helper()
	return mustServer(t, fs, id, cfg)
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	for i := 0; i < 100; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), int64(i+1), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete(testTablet, testGroup, []byte("k000"), 1000)

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	st, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.UsedCheckpoint {
		t.Error("recovery claims checkpoint that never existed")
	}
	if st.RecordsScanned != 101 {
		t.Errorf("scanned %d records, want 101", st.RecordsScanned)
	}
	for i := 1; i < 100; i++ {
		row, err := s2.Get(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(row.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d after recovery: %+v err=%v", i, row, err)
		}
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("k000")); !errors.Is(err, ErrNotFound) {
		t.Error("delete did not survive recovery (invalidated entry lost)")
	}
	// New writes continue the LSN sequence without clobbering.
	if err := s2.Write(testTablet, testGroup, []byte("post"), 2000, []byte("v")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

func TestRecoverWithCheckpoint(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	for i := 0; i < 60; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), int64(i+1), []byte("pre"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 60; i < 80; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), int64(i+1), []byte("post"))
	}
	// Overwrite one pre-checkpoint key after the checkpoint.
	s.Write(testTablet, testGroup, []byte("k010"), 500, []byte("overwritten"))

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	st, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	if st.IndexesLoaded == 0 {
		t.Error("no index files loaded")
	}
	// Tail redo must only scan post-checkpoint records (21 of them).
	if st.RecordsScanned > 25 {
		t.Errorf("redo scanned %d records; checkpoint not honoured", st.RecordsScanned)
	}
	for i := 0; i < 80; i++ {
		key := fmt.Sprintf("k%03d", i)
		want := "pre"
		if i >= 60 {
			want = "post"
		}
		if i == 10 {
			want = "overwritten"
		}
		row, err := s2.Get(testTablet, testGroup, []byte(key))
		if err != nil || string(row.Value) != want {
			t.Fatalf("%s = %q err=%v, want %q", key, row.Value, err, want)
		}
	}
}

func TestDeleteSurvivesCheckpointReload(t *testing.T) {
	// The paper's two-step delete: the index entries are removed AND an
	// invalidated entry is logged, because recovery reloads an OLDER
	// checkpoint that still contains the key.
	s, fs := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("victim"), 1, []byte("v"))
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Delete(testTablet, testGroup, []byte("victim"), 2) // after checkpoint

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("victim")); !errors.Is(err, ErrNotFound) {
		t.Error("checkpoint resurrection: deleted key visible after recovery")
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	for i := 0; i < 30; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i)), int64(i+1), []byte("v"))
	}
	s.Checkpoint()
	s.Write(testTablet, testGroup, []byte("tail"), 99, []byte("t"))

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	// Crash during recovery → just redo the process (paper §3.8).
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("repeated Recover: %v", err)
	}
	if got := s2.IndexLen(testTablet, testGroup); got != 31 {
		t.Errorf("index has %d entries after double recovery, want 31", got)
	}
}

func TestUncommittedTxnWritesInvisibleAfterRecovery(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("base"), 1, []byte("v"))
	// Simulate a transaction that persisted writes but crashed before
	// its commit record: append raw txn writes with no commit.
	rec := &wal.Record{
		Kind: wal.KindWrite, Table: "users", Tablet: testTablet, Group: testGroup,
		Key: []byte("phantom"), TS: 50, Value: []byte("uncommitted"), TxnID: 99,
	}
	if _, err := s.Log().Append(rec); err != nil {
		t.Fatalf("raw append: %v", err)
	}

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("phantom")); !errors.Is(err, ErrNotFound) {
		t.Error("uncommitted transactional write became visible after recovery")
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("base")); err != nil {
		t.Errorf("committed data lost: %v", err)
	}
}

func TestCommittedTxnWritesRecovered(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	err := s.ApplyTxn(5, 100, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("a"), Value: []byte("1")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("b"), Value: []byte("2")},
	})
	if err != nil {
		t.Fatalf("ApplyTxn: %v", err)
	}
	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, k := range []string{"a", "b"} {
		row, err := s2.Get(testTablet, testGroup, []byte(k))
		if err != nil || row.TS != 100 {
			t.Errorf("txn write %s lost: %+v err=%v", k, row, err)
		}
	}
}

func TestTornTailIgnoredOnRecovery(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	s.Write(testTablet, testGroup, []byte("good"), 1, []byte("v"))
	// Torn write at the tail: claims 500 payload bytes, delivers 4.
	segs := s.Log().Segments()
	path := s.Log().SegmentPath(segs[len(segs)-1].Num)
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := fs.WriteFile(path, append(data, 0xF4, 0x01, 0, 0, 1, 2, 3, 4)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := crashAndRestart(t, fs, "ts1", Config{})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	if _, err := s2.Get(testTablet, testGroup, []byte("good")); err != nil {
		t.Errorf("record before torn tail lost: %v", err)
	}
}

func TestRecoverTabletsFailover(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	dead := mustServer(t, fs, "dead", Config{})
	for i := 0; i < 40; i++ {
		dead.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i)), int64(i+1), []byte("v"))
	}
	dead.Delete(testTablet, testGroup, []byte("k00"), 100)
	// Server "dead" crashes; "heir" adopts its tablet from the shared DFS.
	heir, err := NewServer(fs, "heir", Config{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	heir.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup, "activity"})
	n, err := heir.RecoverTablets("dead", wal.Position{}, []string{testTablet})
	if err != nil {
		t.Fatalf("RecoverTablets: %v", err)
	}
	// 40 records replay: 39 live writes + 1 delete. The k00 write is
	// invalidated by the later delete and the LSN-ordered replay skips
	// it instead of writing it and deleting it again.
	if n != 40 {
		t.Errorf("adopted %d records, want 40", n)
	}
	for i := 1; i < 40; i++ {
		if _, err := heir.Get(testTablet, testGroup, []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("heir missing k%02d: %v", i, err)
		}
	}
	if _, err := heir.Get(testTablet, testGroup, []byte("k00")); !errors.Is(err, ErrNotFound) {
		t.Error("delete not honoured across failover")
	}
}

func TestCheckpointCostSplit(t *testing.T) {
	// Fig 17's contrast: writing a checkpoint and reloading it both work
	// and reloading restores the full index.
	s, fs := newTestServer(t, Config{})
	for i := 0; i < 500; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%04d", i)), int64(i+1), []byte("v"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s2 := crashAndRestart(t, fs, "ts1", Config{})
	st, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint || st.EntriesRestored < 500 {
		t.Errorf("recovery stats = %+v", st)
	}
	if got := s2.IndexLen(testTablet, testGroup); got != 500 {
		t.Errorf("restored index has %d entries", got)
	}
}

// TestLoadCheckpointCopiesNoPayload: loading a checkpoint allocates the
// indexes it builds and little else. The file's frames are parsed in
// place, so no index payload is copied on the way to index.Decode: the
// bytes allocated beyond the trees' own stay under half the payload's
// size (copying it would cost all of it).
func TestLoadCheckpointCopiesNoPayload(t *testing.T) {
	s, fs := newTestServer(t, Config{})
	const rows = 20_000
	for i := 0; i < rows; i++ {
		if err := s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%08d", i)), int64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(s.checkpointPath())
	if err != nil {
		t.Fatal(err)
	}
	s2 := crashAndRestart(t, fs, "ts1", Config{})
	rs := newReplaySession(s2, s2.log, wal.Position{}, nil)
	var st RecoveryStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s2.loadCheckpoint(b, rs, &st); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st.EntriesRestored != rows {
		t.Fatalf("restored %d entries, want %d", st.EntriesRestored, rows)
	}
	_, g, err := s2.tabletGroup(testTablet, testGroup)
	if err != nil {
		t.Fatal(err)
	}
	trees := uint64(g.tree().MemBytes())
	payload := uint64(len(b))
	if extra := after.TotalAlloc - before.TotalAlloc - trees; extra > payload/2 {
		t.Errorf("loadCheckpoint allocated %d bytes beyond the trees' %d; want <= %d (half the %d-byte file)",
			extra, trees, payload/2, payload)
	}
}
