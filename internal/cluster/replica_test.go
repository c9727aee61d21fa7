package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/query"
	"repro/internal/readopt"
)

func newReplicatedCluster(t *testing.T, servers, replicas int) *Cluster {
	t.Helper()
	c, err := New(t.TempDir(), Config{
		NumServers: servers,
		Replicas:   replicas,
		Tables:     []TableSpec{{Name: "t", Groups: []string{"g"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func primaryLogReads(c *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, id := range c.LiveServers() {
		out[id] = c.Server(id).Stats().LogReads.Load()
	}
	return out
}

// TestClusterReplicaServesPinnedReads is the cluster half of the
// acceptance criterion: a pinned scan/Query at ts <= watermark is
// served ENTIRELY by replicas (every primary's log-read counter stays
// flat) and returns results identical to the primaries'.
func TestClusterReplicaServesPinnedReads(t *testing.T) {
	c := newReplicatedCluster(t, 2, 1)
	cl := c.NewClient()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := cl.Put("t", "g", k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Writes after the pin: replicas must not serve them at ts.
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := cl.Put("t", "g", k, []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}

	before := primaryLogReads(c)

	// Pinned scatter scan: replicas must serve every tablet's slice.
	var got []string
	if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts}, func(r core.Row) bool {
		got = append(got, string(r.Key)+"="+string(r.Value))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("pinned scan rows = %d, want 200", len(got))
	}
	for i, kv := range got {
		if want := fmt.Sprintf("k%04d=v%d", i, i); kv != want {
			t.Fatalf("row %d = %q, want %q (replica served post-pin state?)", i, kv, want)
		}
	}

	// Pinned per-server aggregate too.
	res, err := cl.Aggregate(ctx, "t", "g", ts, query.RelFilter{}, query.Fold{Aggs: []query.AggSpec{{Kind: query.Count}}})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Value(0, query.Count); n != 200 {
		t.Fatalf("pinned COUNT = %v, want 200", n)
	}

	for id, n := range primaryLogReads(c) {
		if n != before[id] {
			t.Fatalf("primary %s log reads moved %d -> %d; pinned reads were not served by its replica", id, before[id], n)
		}
	}
	var served int64
	for _, id := range c.LiveServers() {
		for _, rep := range c.Replicas(id) {
			st := rep.Stats()
			served += st.ReadsServed
			if st.WatermarkTS < ts {
				t.Fatalf("replica %s of %s watermark %d below pinned ts %d", st.BaseID, id, st.WatermarkTS, ts)
			}
		}
	}
	if served == 0 {
		t.Fatal("no replica served any read")
	}

	// Primary opt-out: the same pinned scan with Primary set moves the
	// primaries' counters.
	if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts, Primary: true}, func(core.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	moved := false
	for id, n := range primaryLogReads(c) {
		if n != before[id] {
			moved = true
			_ = id
		}
	}
	if !moved {
		t.Fatal("Primary-pinned scan did not hit any primary")
	}
}

// TestClusterReplicaPromotion kills a primary while pinned reads are in
// flight: the master promotes the dead server's caught-up replica
// (replaying only the unshipped delta), routing flips to it, and the
// pinned snapshot keeps answering identically throughout.
func TestClusterReplicaPromotion(t *testing.T) {
	c := newReplicatedCluster(t, 2, 1)
	cl := c.NewClient()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := cl.Put("t", "g", k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Readers hammer the pinned snapshot while the failover runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rcl := c.NewClient()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte(fmt.Sprintf("k%04d", i%300))
			rows, err := rcl.Read("t", "g", k, readopt.Options{Snapshot: ts})
			if err != nil {
				select {
				case readErr <- fmt.Errorf("GetAt(%s) during failover: %w", k, err):
				default:
				}
				return
			}
			if want := fmt.Sprintf("v%d", i%300); string(rows[0].Value) != want {
				select {
				case readErr <- fmt.Errorf("GetAt(%s) = %q, want %q", k, rows[0].Value, want):
				default:
				}
				return
			}
		}
	}()

	if err := c.KillServer("ts00"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}

	// The replica was promoted, not scattered: ts00's tablets now belong
	// to its replica's server, registered first-class.
	assign := c.Assignments()
	promoted := false
	for tab, owner := range assign {
		if owner == "ts00" {
			t.Fatalf("tablet %s still assigned to dead ts00", tab)
		}
		if owner == "ts00.r0" {
			promoted = true
		}
	}
	if !promoted {
		t.Fatalf("no tablet promoted to ts00.r0; assignments: %v", assign)
	}
	found := false
	for _, id := range c.LiveServers() {
		if id == "ts00.r0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("promoted server ts00.r0 not live: %v", c.LiveServers())
	}

	// Full pinned result set survives the promotion, including rows
	// whose records only the dead primary's log holds (the delta replay).
	var rows int
	if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts}, func(r core.Row) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 300 {
		t.Fatalf("post-promotion pinned scan rows = %d, want 300", rows)
	}
	// And writes keep flowing to the promoted owner.
	if err := cl.Put("t", "g", []byte("k0000"), []byte("after")); err != nil {
		t.Fatalf("Put after promotion: %v", err)
	}
	row, err := cl.Get("t", "g", []byte("k0000"))
	if err != nil || string(row.Value) != "after" {
		t.Fatalf("Get after promotion = %q, %v", row.Value, err)
	}
}

// TestClusterReplicaSplitAndMoveMirror drives a tablet split and a live
// migration under replication: replicas mirror the new layout and a
// pinned scan at a pre-split timestamp still answers identically from
// the replicas.
func TestClusterReplicaSplitAndMoveMirror(t *testing.T) {
	c := newReplicatedCluster(t, 2, 1)
	cl := c.NewClient()
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := cl.Put("t", "g", k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Split one tablet, then migrate one of the children.
	var tab string
	for id, owner := range c.Assignments() {
		if owner == "ts00" {
			tab = id
			break
		}
	}
	leftID, _, err := c.SplitTablet(tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MoveTablet(leftID, "ts01"); err != nil {
		t.Fatal(err)
	}

	// ts01's replica adopted the migrated tablet's history from ts00's
	// log; wait until its watermark covers the pin again.
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	before := primaryLogReads(c)
	var rows int
	if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts}, func(r core.Row) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 400 {
		t.Fatalf("pinned scan rows after split+move = %d, want 400", rows)
	}
	for id, n := range primaryLogReads(c) {
		if n != before[id] {
			t.Fatalf("primary %s log reads moved %d -> %d after split+move; replicas did not serve", id, before[id], n)
		}
	}
}

// TestMoveTabletHoldsReplicaWatermarkUntilDrained stalls the
// destination replica's apply loop across a live migration: the moved
// tablet's replayed history is still in the shipping pipe when the move
// returns, so the replica's pre-move watermark (which already covered
// the pin) must not be re-exposed until that history has drained.
func TestMoveTabletHoldsReplicaWatermarkUntilDrained(t *testing.T) {
	faults := fault.New(1)
	c, err := New(t.TempDir(), Config{
		NumServers: 2,
		Replicas:   1,
		Tables:     []TableSpec{{Name: "t", Groups: []string{"g"}}},
		Server:     core.Config{Faults: faults},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cl := c.NewClient()
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := cl.Put("t", "g", k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tab, err := cl.TabletFor("t", []byte("k0000"))
	if err != nil {
		t.Fatal(err)
	}
	destID := "ts00"
	if c.Assignments()[tab] == destID {
		destID = "ts01"
	}
	rep := c.Replicas(destID)[0]

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release) // before c.Close: a stalled replica cannot stop
	faults.Arm("repl."+rep.BaseID()+".apply", fault.Policy{OnFire: func() { <-gate }})

	if err := c.MoveTablet(tab, destID); err != nil {
		t.Fatal(err)
	}
	tip := c.Server(destID).Log().NextLSN() - 1
	if wm := rep.WatermarkTS(); wm != 0 {
		t.Fatalf("watermark %d exposed with the moved tablet's history unapplied (applied LSN %d, destination tip %d)",
			wm, rep.AppliedLSN(), tip)
	}
	// The pin is served in full meanwhile — by the primary.
	count := func() int {
		rows := 0
		if err := cl.ScanOpts(ctx, "t", "g", nil, nil, readopt.Options{Snapshot: ts}, func(core.Row) bool {
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if rows := count(); rows != n {
		t.Fatalf("pinned scan with a stalled replica = %d rows, want %d", rows, n)
	}

	release()
	if err := rep.WaitForTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := rep.AppliedLSN(); got < tip {
		t.Fatalf("watermark %d republished at applied LSN %d, below the destination tip %d", rep.WatermarkTS(), got, tip)
	}
	if rows := rep.Server().IndexLen(tab, "g"); rows != n {
		t.Fatalf("replica holds %d of the moved tablet's %d rows", rows, n)
	}
	if rows := count(); rows != n {
		t.Fatalf("pinned scan after catch-up = %d rows, want %d", rows, n)
	}
}
