package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Failover and migration replay another server's log through the
// re-append sink, which lands the records a batch at a time (reappend).
// These tests count the batches, crash one, order a tombstone across
// two, and check that replayed history is not counted as client load.

// TestFailoverReappendsInBatches: adopting a tablet appends its history
// in a few large appends — one per batch of at most reappendBatchBytes,
// plus a header and a partial last write per segment — not one per
// record.
func TestFailoverReappendsInBatches(t *testing.T) {
	e := newOutputEnv(t, 1)
	batchLoad(t, e.srv, nil, 2000, 500, 1024)
	heir := mustServer(t, e.fs, "heir", Config{SegmentSize: 64 << 20})
	fires := 0
	e.reg.Arm("dfs.dn0.write", fault.Policy{OnFire: func() { fires++ }})
	n, err := heir.RecoverTablets("ts-crash", wal.Position{}, []string{testTablet})
	e.reg.Reset()
	if err != nil {
		t.Fatalf("RecoverTablets: %v", err)
	}
	if n != 2500 {
		t.Fatalf("adopted %d records, want 2500", n)
	}
	adopted := heir.Log().Size()
	segs := len(heir.Log().Segments())
	if bound := int((adopted+reappendBatchBytes-1)/reappendBatchBytes) + 2*segs; fires > bound {
		t.Fatalf("adopting %d records (%d B in %d segments) took %d replica writes on dn0, want <= %d",
			n, adopted, segs, fires, bound)
	}
}

// TestCrashMidFailoverBatch: the heir dies between a batch's append and
// its installs. After a restart and a second adoption it serves every
// acknowledged row, and no deleted key comes back.
func TestCrashMidFailoverBatch(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	dead := mustServer(t, fs, "dead", Config{})
	o := oracle{}
	batchLoad(t, dead, o, 3000, 1000, 512)
	var deleted [][]byte
	for i := 0; i < 3000; i += 7 {
		if err := dead.Delete(testTablet, testGroup, k6(i), int64(10000+i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		o.del(string(k6(i)))
		deleted = append(deleted, k6(i))
	}

	reg := fault.New(1)
	cfg := Config{Faults: reg}
	heir := mustServer(t, fs, "heir", cfg)
	reg.Arm("crash.batch.pre-index", fault.Policy{After: 1, Times: 1, Crash: true})
	if _, err := heir.RecoverTablets("dead", wal.Position{}, []string{testTablet}); !fault.Crashed(err) {
		t.Fatalf("RecoverTablets with the second batch crashing = %v, want a crash", err)
	}
	reg.Reset()
	heir = crashAndRestart(t, fs, "heir", cfg)
	if _, err := heir.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := heir.RecoverTablets("dead", wal.Position{}, []string{testTablet}); err != nil {
		t.Fatalf("RecoverTablets after the crash: %v", err)
	}
	verifyOracle(t, heir, o, nil)
	for _, k := range deleted {
		if rows, err := versionsOf(heir, k); err != nil || len(rows) != 0 {
			t.Fatalf("deleted key %q holds %d versions (err %v) after the crashed failover", k, len(rows), err)
		}
	}
}

// TestFailoverBatchKeepsDeleteOrder: a tombstone and a write
// acknowledged after it under an older timestamp are adopted in
// different batches. The write survives, on the heir and after its
// restart, and the versions the tombstone removed stay gone.
func TestFailoverBatchKeepsDeleteOrder(t *testing.T) {
	dead, fs := newTestServer(t, Config{})
	key := []byte("victim")
	for _, ts := range []int64{10, 20} {
		if err := dead.Write(testTablet, testGroup, key, ts, []byte(fmt.Sprint("v", ts))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := dead.Delete(testTablet, testGroup, key, 30); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// More than a batch of other rows between the tombstone and the late
	// write puts them in different batches.
	batchLoad(t, dead, nil, 1500, 0, 1024)
	if err := dead.Write(testTablet, testGroup, key, 25, []byte("late")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	check := func(s *Server, when string) {
		t.Helper()
		rows, err := versionsOf(s, key)
		if err != nil {
			t.Fatalf("%s: versions: %v", when, err)
		}
		if len(rows) != 1 || rows[0].TS != 25 || string(rows[0].Value) != "late" {
			t.Fatalf("%s: versions %+v, want only the late write at ts 25", when, rows)
		}
	}
	heir := mustServer(t, fs, "heir", Config{})
	if _, err := heir.RecoverTablets("ts1", wal.Position{}, []string{testTablet}); err != nil {
		t.Fatalf("RecoverTablets: %v", err)
	}
	check(heir, "after failover")
	heir = crashAndRestart(t, fs, "heir", Config{})
	if _, err := heir.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	check(heir, "after the heir's restart")
}

// TestReplayIsNotClientLoad: adopting a tablet's history moves neither
// the heir's operation counters nor the tablet's load, which the
// balancer reads as client traffic. A client write afterwards counts.
func TestReplayIsNotClientLoad(t *testing.T) {
	dead, fs := newTestServer(t, Config{})
	for i := 0; i < 1000; i++ {
		if err := dead.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("v")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	heir := mustServer(t, fs, "heir", Config{})
	n, err := heir.RecoverTablets("ts1", wal.Position{}, []string{testTablet})
	if err != nil || n != 1000 {
		t.Fatalf("RecoverTablets = %d, %v; want 1000 records", n, err)
	}
	ops := func() int64 {
		var sum int64
		for _, l := range heir.SampleLoad() {
			sum += l.Ops
		}
		return sum
	}
	if w, d, o := heir.StatsView().Writes, heir.StatsView().Deletes, ops(); w != 0 || d != 0 || o != 0 {
		t.Fatalf("after adopting 1000 records: %d writes, %d deletes, %d ops of load; want none", w, d, o)
	}
	if err := heir.Write(testTablet, testGroup, k6(0), 5000, []byte("client")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if w, o := heir.StatsView().Writes, ops(); w != 1 || o != 1 {
		t.Fatalf("after one client write: %d writes, %d ops of load; want 1 and 1", w, o)
	}
}

// BenchmarkRecoverTablets is a failover of one tablet: a fresh heir
// adopts a dead server's 50 K keys plus 10 K overwrites of 256 B values
// on three datanodes. The bytes are the dead server's log; loading it
// and opening each heir are outside the timer.
func BenchmarkRecoverTablets(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	fs, err := dfs.New(b.TempDir(), dfs.Config{NumDataNodes: 3})
	if err != nil {
		b.Fatal(err)
	}
	open := func(id string) *Server {
		s, err := NewServer(fs, id, Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup})
		return s
	}
	dead := open("dead")
	batchLoad(b, dead, nil, 50000, 10000, 256)
	b.SetBytes(dead.Log().Size())
	for i := range b.N {
		heir := open(fmt.Sprint("heir", i))
		b.StartTimer()
		_, err := heir.RecoverTablets("dead", wal.Position{}, []string{testTablet})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range fs.List("log/" + heir.id + "/") {
			if err := fs.Delete(p); err != nil && !errors.Is(err, dfs.ErrNotFound) {
				b.Fatal(err)
			}
		}
	}
}
