package logbase

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestReplicaServesSnapshotIdentical is the embedded half of the
// acceptance criterion: a pinned Query/scan at ts <= watermark is
// served ENTIRELY by the replica (primary read counters stay flat) and
// returns results identical to the primary's.
func TestReplicaServesSnapshotIdentical(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t", "g"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := db.Put(ctx, "t", "g", k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.StartReplica()
	if err != nil {
		t.Fatal(err)
	}
	ts := db.svc.LastTimestamp()
	if err := rep.WaitForTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// More writes AFTER the pin: the replica must not serve them at ts,
	// and the primary keeps moving while the replica answers.
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := db.Put(ctx, "t", "g", k, []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}

	// Scans and queries cost log reads (one per fetched row); the
	// point-read counter stays out of it.
	primaryReads := db.Server().Stats().LogReads.Load()

	// Pinned scan: replica must serve it.
	var got []string
	it := db.Scan(ctx, "t", "g", nil, nil, WithSnapshot(ts))
	for it.Next() {
		got = append(got, string(it.Row().Key)+"="+string(it.Row().Value))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("pinned scan rows = %d, want 200", len(got))
	}
	for i, kv := range got {
		want := fmt.Sprintf("k%04d=v%d", i, i)
		if kv != want {
			t.Fatalf("row %d = %q, want %q (replica served post-pin state?)", i, kv, want)
		}
	}

	// Pinned statement too (the aggregate path routes the same way).
	res, err := db.Exec(ctx, Q("t").Group("g").Agg(Count).At(ts))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Groups[0].Aggs[0].Value(Count); n != 200 {
		t.Fatalf("pinned COUNT = %v, want 200", n)
	}

	if after := db.Server().Stats().LogReads.Load(); after != primaryReads {
		t.Fatalf("primary log reads moved %d -> %d; pinned reads were not served by the replica", primaryReads, after)
	}
	st := rep.Stats()
	if st.ReadsServed == 0 {
		t.Fatalf("replica served no reads: %+v", st)
	}
	if st.WatermarkTS < ts {
		t.Fatalf("watermark %d below pinned ts %d", st.WatermarkTS, ts)
	}

	// WithPrimary opts out: the primary serves, counters move.
	it = db.Scan(ctx, "t", "g", nil, nil, WithSnapshot(ts), WithPrimary())
	for it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if after := db.Server().Stats().LogReads.Load(); after == primaryReads {
		t.Fatal("WithPrimary scan did not hit the primary")
	}
}

// TestReplicaDeleteAndLatestRouting checks deletes ship, and that
// latest-timestamp point reads never route to a replica.
func TestReplicaDeleteAndLatestRouting(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t", "g"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := db.StartReplica()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(ctx, "t", "g", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	keepTS := db.svc.LastTimestamp()
	if err := db.Delete(ctx, "t", "g", []byte("a")); err != nil {
		t.Fatal(err)
	}
	ts := db.svc.LastTimestamp()
	if err := rep.WaitForTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A delete invalidates the row's whole index history (DeleteKey) on
	// primary and replica alike: both answer not-found, even below the
	// delete's timestamp. The replica must agree with the primary.
	if _, err := db.Read(ctx, "t", "g", []byte("a"), WithSnapshot(keepTS)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replica GetAt(keepTS) err = %v, want ErrNotFound (primary semantics)", err)
	}
	if _, err := db.Read(ctx, "t", "g", []byte("a"), WithSnapshot(keepTS), WithPrimary()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("primary GetAt(keepTS) err = %v, want ErrNotFound", err)
	}
	if _, err := db.Read(ctx, "t", "g", []byte("a"), WithSnapshot(ts)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetAt(after delete) err = %v, want ErrNotFound", err)
	}
	// Latest read: primary only.
	before := rep.Stats().ReadsServed
	if _, err := db.Get(ctx, "t", "g", []byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get err = %v, want ErrNotFound", err)
	}
	if after := rep.Stats().ReadsServed; after != before {
		t.Fatal("latest-timestamp Get was routed to a replica")
	}
}
