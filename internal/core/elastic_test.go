package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/wal"
)

func elasticTablet() partition.Tablet {
	// Bounded on one side so the by-range replay fallback applies.
	return partition.Tablet{ID: "users/0000", Table: "users", Range: partition.Range{End: nil, Start: []byte("a")}}
}

func ek(i int) []byte { return []byte(fmt.Sprintf("user%04d", i)) }

func TestLoadAccountingWindow(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 50; i++ {
		if err := s.Write(testTablet, testGroup, ek(i), int64(i+1), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	loads := s.SampleLoad()
	if len(loads) != 1 {
		t.Fatalf("SampleLoad returned %d tablets, want 1", len(loads))
	}
	l := loads[0]
	if l.Tablet != testTablet || l.Ops != 50 || l.Rows != 50 {
		t.Fatalf("load = %+v, want 50 ops/rows on %s", l, testTablet)
	}
	if l.Bytes != 50*int64(len("payload")) {
		t.Fatalf("load bytes = %d", l.Bytes)
	}
	// Reads count too.
	for i := 0; i < 10; i++ {
		if _, err := s.Get(testTablet, testGroup, ek(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l := s.SampleLoad()[0]; l.Ops != 60 {
		t.Fatalf("windowed ops after reads = %d, want 60 (window spans both samples)", l.Ops)
	}
	// A quiet tablet's load decays out of the rolling window.
	for i := 0; i < loadWindowSlots; i++ {
		s.SampleLoad()
	}
	if l := s.SampleLoad()[0]; l.Ops != 0 {
		t.Fatalf("windowed ops after idle window = %d, want 0", l.Ops)
	}
}

func TestSplitTabletSharesLog(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	spec := elasticTablet()
	s.RemoveTablet(testTablet)
	s.AddTablet(spec, []string{testGroup})
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Write(spec.ID, testGroup, ek(i), int64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := len(s.Log().Segments())
	mid, ok := s.SplitKey(spec.ID)
	if !ok {
		t.Fatal("SplitKey found no midpoint")
	}
	lr, rr, err := spec.Range.Split(mid)
	if err != nil {
		t.Fatal(err)
	}
	left := partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
	right := partition.Tablet{ID: "users/0002", Table: "users", Range: rr}
	if err := s.SplitTablet(spec.ID, left, right); err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	// No data copied: the log did not grow.
	if got := len(s.Log().Segments()); got != segsBefore {
		t.Errorf("split appended log segments: %d -> %d", segsBefore, got)
	}
	// Parent is gone, children partition the rows.
	if _, err := s.Get(spec.ID, testGroup, ek(0)); err == nil {
		t.Error("parent tablet still serving after split")
	}
	ln, rn := s.IndexLen(left.ID, testGroup), s.IndexLen(right.ID, testGroup)
	if ln+rn != n {
		t.Fatalf("children hold %d+%d entries, want %d", ln, rn, n)
	}
	if ln == 0 || rn == 0 {
		t.Fatalf("degenerate split: %d/%d", ln, rn)
	}
	// Every row still readable from the shared log via the right child.
	for i := 0; i < n; i++ {
		id := left.ID
		if bytes.Compare(ek(i), mid) >= 0 {
			id = right.ID
		}
		if _, err := s.Get(id, testGroup, ek(i)); err != nil {
			t.Fatalf("row %d unreadable after split: %v", i, err)
		}
	}
	// Scans across both children see every key exactly once.
	seen := map[string]int{}
	for _, id := range []string{left.ID, right.ID} {
		err := serialScan(context.Background(), s, id, testGroup, nil, nil, 1<<62, func(r Row) bool {
			seen[string(r.Key)]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != n {
		t.Fatalf("scanned %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %s seen %d times", k, c)
		}
	}
}

func TestFreezeTabletBlocksMutationsNotReads(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Write(testTablet, testGroup, []byte("k"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.FreezeTablet(testTablet); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(testTablet, testGroup, []byte("k"), 2, []byte("v2")); err == nil {
		t.Fatal("write on frozen tablet succeeded")
	} else if !errors.Is(err, ErrUnknownTablet) {
		t.Fatalf("frozen write error %v is not retryable stale routing", err)
	}
	if err := s.Delete(testTablet, testGroup, []byte("k"), 3); err == nil {
		t.Fatal("delete on frozen tablet succeeded")
	}
	if _, err := s.Get(testTablet, testGroup, []byte("k")); err != nil {
		t.Fatalf("read on frozen tablet failed: %v", err)
	}
	if err := s.UnfreezeTablet(testTablet); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(testTablet, testGroup, []byte("k"), 4, []byte("v3")); err != nil {
		t.Fatalf("write after unfreeze: %v", err)
	}
}

// TestReplaySessionPostSplitRanges exercises the failover/migration
// path the split makes tricky: records written under the PARENT tablet
// id must replay into the child adopted by range.
func TestReplaySessionPostSplitRanges(t *testing.T) {
	fs, err := newTestDFS(t)
	if err != nil {
		t.Fatal(err)
	}
	src := mustServer(t, fs, "src", Config{})
	parent := partition.Tablet{ID: "users/0000", Table: "users", Range: partition.Range{End: []byte("zzzz")}}
	src.AddTablet(parent, []string{testGroup})
	for i := 0; i < 100; i++ {
		if err := src.Write(parent.ID, testGroup, ek(i), int64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Split on the source, then keep writing under the child ids.
	mid := ek(50)
	lr, rr, err := parent.Range.Split(mid)
	if err != nil {
		t.Fatal(err)
	}
	left := partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
	right := partition.Tablet{ID: "users/0002", Table: "users", Range: rr}
	if err := src.SplitTablet(parent.ID, left, right); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(right.ID, testGroup, ek(75), 1000, []byte("post-split")); err != nil {
		t.Fatal(err)
	}

	// A new server adopts only the RIGHT child and replays src's log.
	dst := mustServer(t, fs, "dst", Config{})
	dst.AddTablet(right, []string{testGroup})
	rs, err := dst.NewReplaySession(src.Log(), wal.Position{}, []partition.Tablet{right})
	if err != nil {
		t.Fatal(err)
	}
	n, err := rs.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n != 51 { // keys 50..99 pre-split + the post-split write
		t.Fatalf("replayed %d records, want 51", n)
	}
	// Incremental rounds: more writes on src, another CatchUp picks up
	// exactly the new tail.
	if err := src.Write(right.ID, testGroup, ek(60), 1001, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(left.ID, testGroup, ek(10), 1002, []byte("other-child")); err != nil {
		t.Fatal(err)
	}
	n, err = rs.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("incremental CatchUp replayed %d, want 1", n)
	}
	row, err := dst.Get(right.ID, testGroup, ek(60))
	if err != nil || string(row.Value) != "tail" {
		t.Fatalf("tail row = %v, %v", row, err)
	}
	if _, err := dst.Get(right.ID, testGroup, ek(10)); err == nil {
		t.Fatal("left-child record leaked into right child")
	}
	if _, err := dst.Get(right.ID, testGroup, ek(75)); err != nil {
		t.Fatalf("post-split record missing: %v", err)
	}
}

// TestFreezeBlocks2PC pins the migration-cutover safety of the
// cross-server commit path: a frozen tablet accepts neither new
// prepares nor commit records for transactions prepared earlier (a
// late commit record would be invisible to the migration's final
// replay bound — silent loss on the destination).
func TestFreezeBlocks2PC(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := []TxnWrite{{Tablet: testTablet, Group: testGroup, Key: []byte("k"), Value: []byte("v")}}

	p, err := s.PrepareTxn(7, 100, w)
	if err != nil {
		t.Fatalf("PrepareTxn before freeze: %v", err)
	}
	if err := s.FreezeTablet(testTablet); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PrepareTxn(8, 101, w); !errors.Is(err, ErrTabletFrozen) {
		t.Fatalf("PrepareTxn on frozen tablet: err=%v, want ErrTabletFrozen", err)
	}
	if err := s.CommitTxn(7, 100, p); !errors.Is(err, ErrTabletFrozen) {
		t.Fatalf("CommitTxn on frozen tablet: err=%v, want ErrTabletFrozen", err)
	}
	// The refused commit left the prepared writes invisible.
	if _, err := s.Get(testTablet, testGroup, []byte("k")); err == nil {
		t.Fatal("uncommitted prepared write became visible")
	}
	// After unfreeze the transaction can commit normally.
	if err := s.UnfreezeTablet(testTablet); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitTxn(7, 100, p); err != nil {
		t.Fatalf("CommitTxn after unfreeze: %v", err)
	}
	if _, err := s.Get(testTablet, testGroup, []byte("k")); err != nil {
		t.Fatalf("committed write missing: %v", err)
	}
}
