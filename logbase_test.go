package logbase_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	logbase "repro"
)

var bg = context.Background()

// readAt is the point read as of ts: Read pinned with WithSnapshot.
func readAt(st logbase.Store, table, group string, key []byte, ts int64) (logbase.Row, error) {
	rows, err := st.Read(bg, table, group, key, logbase.WithSnapshot(ts))
	if err != nil {
		return logbase.Row{}, err
	}
	return rows[0], nil
}

// nowTS returns the store's current snapshot timestamp: every Exec
// result is stamped with the snapshot it ran at.
func nowTS(t *testing.T, st logbase.Store, table, group string) int64 {
	t.Helper()
	res, err := st.Exec(bg, logbase.Q(table).Group(group).Agg(logbase.Count))
	if err != nil {
		t.Fatalf("Exec (pin a snapshot): %v", err)
	}
	return res.TS
}

// each drains it into fn and returns what ended the stream.
func each(it logbase.Iterator, fn func(logbase.Row)) error {
	defer it.Close()
	for it.Next() {
		fn(it.Row())
	}
	return it.Err()
}

func openDB(t *testing.T, opts logbase.Options) *logbase.DB {
	t.Helper()
	db, err := logbase.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := db.CreateTable("events", "payload", "meta"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return db
}

// keepVersions declares table with one column group and bounds its
// retained history to n versions per key.
func keepVersions(t *testing.T, st logbase.Store, table, group string, n int) {
	t.Helper()
	if err := st.CreateTable(table, group); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := st.SetRetention(table, logbase.RetentionPolicy{KeepVersions: n}); err != nil {
		t.Fatalf("SetRetention: %v", err)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := openDB(t, logbase.Options{ReadCacheBytes: 1 << 20})
	if err := db.Put(bg, "events", "payload", []byte("e1"), []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	row, err := db.Get(bg, "events", "payload", []byte("e1"))
	if err != nil || string(row.Value) != "hello" {
		t.Fatalf("Get = %+v err=%v", row, err)
	}
	if _, err := db.Get(bg, "events", "payload", []byte("nope")); !errors.Is(err, logbase.ErrNotFound) {
		t.Errorf("missing key err = %v", err)
	}
	if err := db.Delete(bg, "events", "payload", []byte("e1")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := db.Get(bg, "events", "payload", []byte("e1")); !errors.Is(err, logbase.ErrNotFound) {
		t.Errorf("deleted key err = %v", err)
	}
}

func TestPublicAPIMultiversion(t *testing.T) {
	db := openDB(t, logbase.Options{})
	key := []byte("doc")
	for i := 1; i <= 3; i++ {
		db.Put(bg, "events", "payload", key, []byte(fmt.Sprintf("rev%d", i)))
	}
	rows, err := db.Read(bg, "events", "payload", key, logbase.WithAllVersions())
	if err != nil || len(rows) != 3 {
		t.Fatalf("Versions = %d err=%v", len(rows), err)
	}
	// Historical read at the first version's timestamp.
	old, err := readAt(db, "events", "payload", key, rows[0].TS)
	if err != nil || string(old.Value) != "rev1" {
		t.Errorf("GetAt = %+v err=%v", old, err)
	}
}

func TestPublicAPIScan(t *testing.T) {
	db := openDB(t, logbase.Options{})
	for i := 0; i < 20; i++ {
		db.Put(bg, "events", "meta", []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	var got []string
	it := db.Scan(bg, "events", "meta", []byte("k05"), []byte("k10"))
	for it.Next() {
		got = append(got, string(it.Row().Key))
	}
	if err := it.Close(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != 5 || got[0] != "k05" {
		t.Errorf("scan = %v", got)
	}
	n := 0
	if err := each(db.FullScan(bg, "events", "meta"), func(logbase.Row) { n++ }); err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if n != 20 {
		t.Errorf("full scan = %d", n)
	}
}

func TestPublicAPITxn(t *testing.T) {
	db := openDB(t, logbase.Options{})
	db.Put(bg, "events", "payload", []byte("acct/a"), []byte("100"))
	db.Put(bg, "events", "payload", []byte("acct/b"), []byte("0"))
	err := logbase.RunTx(bg, db, func(tx logbase.Tx) error {
		a, err := tx.Get(bg, "events", "payload", []byte("acct/a"))
		if err != nil {
			return err
		}
		if err := tx.Put("events", "payload", []byte("acct/a"), []byte("0")); err != nil {
			return err
		}
		return tx.Put("events", "payload", []byte("acct/b"), a)
	})
	if err != nil {
		t.Fatalf("RunTxn: %v", err)
	}
	b, _ := db.Get(bg, "events", "payload", []byte("acct/b"))
	if string(b.Value) != "100" {
		t.Errorf("transfer lost: b = %q", b.Value)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	db := openDB(t, logbase.Options{})
	for i := 0; i < 50; i++ {
		db.Put(bg, "events", "payload", []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	db.Checkpoint()
	db.Put(bg, "events", "payload", []byte("tail"), []byte("t"))

	db2, err := db.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	db2.CreateTable("events", "payload", "meta")
	st, err := db2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.UsedCheckpoint {
		t.Error("checkpoint not used")
	}
	if _, err := db2.Get(bg, "events", "payload", []byte("tail")); err != nil {
		t.Errorf("tail write lost: %v", err)
	}
}

// TestKeyTooLongKeepsCheckpointLoadable: a key is at most 65,535 bytes
// long, so a longer key is refused at the write — through
// Put, a batch and a transaction alike — and the server's checkpoint
// stays loadable: after Checkpoint, Reopen and Recover the short key
// still reads.
func TestKeyTooLongKeepsCheckpointLoadable(t *testing.T) {
	db := openDB(t, logbase.Options{})
	long := bytes.Repeat([]byte("k"), 1<<16)
	if err := db.Put(bg, "events", "payload", long, []byte("v")); !errors.Is(err, logbase.ErrKeyTooLong) {
		t.Fatalf("Put of a %d-byte key: err = %v, want ErrKeyTooLong", len(long), err)
	}
	b := db.Batch()
	b.Put("events", "payload", long, []byte("v"))
	if err := b.Flush(bg); !errors.Is(err, logbase.ErrKeyTooLong) {
		t.Fatalf("batch with a %d-byte key: err = %v, want ErrKeyTooLong", len(long), err)
	}
	err := logbase.RunTx(bg, db, func(tx logbase.Tx) error {
		return tx.Put("events", "payload", long, []byte("v"))
	})
	if !errors.Is(err, logbase.ErrKeyTooLong) {
		t.Fatalf("transaction with a %d-byte key: err = %v, want ErrKeyTooLong", len(long), err)
	}
	if err := db.Put(bg, "events", "payload", []byte("short"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db2, err := db.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	db2.CreateTable("events", "payload", "meta")
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if row, err := db2.Get(bg, "events", "payload", []byte("short")); err != nil || string(row.Value) != "v" {
		t.Fatalf("Get(short) after recovery = %+v, %v", row, err)
	}
}

func TestPublicAPICompact(t *testing.T) {
	db := openDB(t, logbase.Options{SegmentSize: 1 << 14})
	if err := db.SetRetention("events", logbase.RetentionPolicy{KeepVersions: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for v := 0; v < 4; v++ {
			db.Put(bg, "events", "payload", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", v)))
		}
	}
	before := db.LogSize()
	st, err := db.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Dropped == 0 || db.LogSize() >= before {
		t.Errorf("compaction reclaimed nothing: %+v", st)
	}
	row, err := db.Get(bg, "events", "payload", []byte("k00"))
	if err != nil || string(row.Value) != "v3" {
		t.Errorf("post-compaction read = %+v err=%v", row, err)
	}
}

func TestClusterFacade(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 3,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl := logbase.NewClusterClient(c)
	if err := cl.Put(bg, "t", "g", []byte{0x42}, []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	row, err := cl.Get(bg, "t", "g", []byte{0x42})
	if err != nil || string(row.Value) != "v" {
		t.Errorf("Get = %+v err=%v", row, err)
	}
}

func TestSchemaErrors(t *testing.T) {
	db := openDB(t, logbase.Options{})
	if err := db.Put(bg, "nope", "g", []byte("k"), nil); err == nil {
		t.Error("unknown table accepted")
	}
	if err := db.Put(bg, "events", "nope", []byte("k"), nil); err == nil {
		t.Error("unknown group accepted")
	}
	if err := db.CreateTable("bad"); err == nil {
		t.Error("table without groups accepted")
	}
	if err := db.CreateTable("events", "payload", "meta"); err != nil {
		t.Errorf("idempotent CreateTable failed: %v", err)
	}
}
