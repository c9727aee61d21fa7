package logbase

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
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
	ts := db.Cluster().Coord().LastTimestamp()
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
	keepTS := db.Cluster().Coord().LastTimestamp()
	if err := db.Delete(ctx, "t", "g", []byte("a")); err != nil {
		t.Fatal(err)
	}
	ts := db.Cluster().Coord().LastTimestamp()
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

// TestReplicaMaxLagRouting checks WithMaxLag: a read pinned below the
// replica's watermark goes to the replica only while its shipping lag is
// within the bound. The replica's apply loop is stalled behind 50 fresh
// records, so a bound of 10 sends the read to the primary and a bound of
// 1000 (or none) to the replica; once it catches up, 10 admits it too.
func TestReplicaMaxLagRouting(t *testing.T) {
	faults := fault.New(1)
	c, err := NewCluster(t.TempDir(), ClusterConfig{
		NumServers: 1,
		Replicas:   1,
		Tables:     []TableSpec{{Name: "t", Groups: []string{"g"}}},
		Server:     core.Config{Faults: faults},
	})
	if err != nil {
		t.Fatal(err)
	}
	cc := NewClusterClient(c)
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := cc.Put(ctx, "t", "g", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	rep := c.Replicas("ts00")[0]
	if err := rep.WaitForTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release) // before c.Close: a stalled replica cannot stop
	faults.Arm("repl."+rep.BaseID()+".apply", fault.Policy{OnFire: func() { <-gate }})
	for i := 0; i < 50; i++ {
		if err := cc.Put(ctx, "t", "g", []byte(fmt.Sprintf("k%02d", i%20)), []byte("later")); err != nil {
			t.Fatal(err)
		}
	}
	if lag := rep.Stats().LagRecords; lag < 49 {
		t.Fatalf("stalled replica lags %d records, want at least 49", lag)
	}

	// servedByReplica reads k05 pinned at ts and reports who answered.
	servedByReplica := func(opts ...ReadOption) bool {
		t.Helper()
		before := rep.Stats().ReadsServed
		rows, err := cc.Read(ctx, "t", "g", []byte("k05"), append([]ReadOption{WithSnapshot(ts)}, opts...)...)
		if err != nil || len(rows) != 1 || string(rows[0].Value) != "v5" {
			t.Fatalf("pinned read = %v, %v; want v5", rows, err)
		}
		return rep.Stats().ReadsServed > before
	}
	if servedByReplica(WithMaxLag(10)) {
		t.Fatal("a read bounded to 10 records of lag was served by a replica 49 or more behind")
	}
	if !servedByReplica(WithMaxLag(1000)) {
		t.Fatal("a read bounded to 1000 records of lag went to the primary")
	}
	if !servedByReplica() {
		t.Fatal("an unbounded pinned read went to the primary")
	}

	release()
	if err := rep.WaitForTS(c.Coord().LastTimestamp(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !servedByReplica(WithMaxLag(10)) {
		t.Fatalf("a caught-up replica (lag %d) was refused under a bound of 10", rep.Stats().LagRecords)
	}
}
