package logbase_test

// End-to-end changefeed and materialized-view tests over the public
// Store surface: the 100k-row catch-up-to-live acceptance run spanning
// background compaction, view/scan-path parity on both backends, and
// the cluster feed surviving tablet split, migration, and failover.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	logbase "repro"
)

// foldState folds an event stream into key -> (ts, value, live).
type foldState map[string]foldRow

type foldRow struct {
	ts   int64
	val  string
	live bool
}

func (f foldState) apply(ev logbase.ChangeEvent) {
	if ev.Kind == logbase.ChangeDelete {
		f[string(ev.Key)] = foldRow{ts: ev.TS}
		return
	}
	f[string(ev.Key)] = foldRow{ts: ev.TS, val: string(ev.Value), live: true}
}

// drainUntilIdle pulls events until the feed stays quiet for idle (or
// errors), folding them into fold. Returns the terminal error, if any.
func drainUntilIdle(t *testing.T, feed logbase.ChangeFeed, fold foldState, idle time.Duration, onEvent func(logbase.ChangeEvent)) error {
	t.Helper()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), idle)
		ev, err := feed.Next(ctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return nil
		}
		if err != nil {
			return err
		}
		if onEvent != nil {
			onEvent(ev)
		}
		fold.apply(ev)
	}
}

// checkFoldMatchesStore compares a folded event stream against the
// store's live rows: every live row present with the right version,
// every folded-live key present in the store.
func checkFoldMatchesStore(t *testing.T, st logbase.Store, table, group string, fold foldState) {
	t.Helper()
	live := 0
	it := st.Scan(bg, table, group, nil, nil)
	for it.Next() {
		r := it.Row()
		live++
		got, ok := fold[string(r.Key)]
		if !ok || !got.live {
			t.Errorf("store row %q@%d missing from replay", r.Key, r.TS)
			continue
		}
		if got.ts != r.TS || got.val != string(r.Value) {
			t.Errorf("key %q: replay %q@%d, store %q@%d", r.Key, got.val, got.ts, r.Value, r.TS)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("oracle scan: %v", err)
	}
	foldLive := 0
	for _, fr := range fold {
		if fr.live {
			foldLive++
		}
	}
	if foldLive != live {
		t.Errorf("replay has %d live keys, store has %d", foldLive, live)
	}
}

// TestWatchAcceptance100k is the acceptance run: a cursor at LSN 0 on
// a 100k-write table catches up through compacted segments and goes
// live without missed or duplicated events — cursors strictly ascend
// (the LSN-sequence check) and the folded stream reconstructs exactly
// the engine state (the oracle check), with incremental compaction
// running throughout the load.
func TestWatchAcceptance100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row acceptance run")
	}
	db, err := logbase.Open(t.TempDir(), logbase.Options{
		SegmentSize:         1 << 20,
		CompactKeepVersions: 2,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if err := db.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	// Load 100k writes (4 versions per key) with compaction ticks
	// interleaved, so catch-up sweeps compacted, re-clustered segments.
	const writes = 100_000
	const keySpace = writes / 4
	b := db.Batch()
	for i := 0; i < writes; i++ {
		k := fmt.Sprintf("k%06d", i%keySpace)
		b.Put("t", "g", []byte(k), []byte(fmt.Sprintf("v%d", i)))
		if b.Len() == 1000 {
			if err := b.Flush(bg); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if (i/1000)%10 == 9 {
				db.Server().Log().Rotate()
				if _, _, err := db.Server().AutoCompactTick(); err != nil {
					t.Fatalf("AutoCompactTick: %v", err)
				}
			}
		}
	}
	if err := b.Flush(bg); err != nil {
		t.Fatalf("final Flush: %v", err)
	}

	feed, err := db.Watch(bg, "t", "g", nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer feed.Close()

	// Live phase: mutations issued after the subscription, including
	// deletes of preloaded keys, must stream with no gap.
	const liveWrites = 1500
	for i := 0; i < liveWrites; i++ {
		switch {
		case i%5 == 4:
			if err := db.Delete(bg, "t", "g", []byte(fmt.Sprintf("k%06d", i))); err != nil {
				t.Fatalf("live Delete: %v", err)
			}
		default:
			if err := db.Put(bg, "t", "g", []byte(fmt.Sprintf("live%05d", i)), []byte(fmt.Sprintf("lv%d", i))); err != nil {
				t.Fatalf("live Put: %v", err)
			}
		}
	}

	fold := foldState{}
	events := 0
	var lastCursor uint64
	err = drainUntilIdle(t, feed, fold, 2*time.Second, func(ev logbase.ChangeEvent) {
		events++
		if ev.Cursor <= lastCursor {
			t.Fatalf("event %d: cursor %d not after %d (duplicate or reordering)", events, ev.Cursor, lastCursor)
		}
		lastCursor = ev.Cursor
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	// At minimum every key's retained tail plus every live mutation
	// must have streamed.
	if events < keySpace+liveWrites {
		t.Fatalf("replayed %d events, want >= %d", events, keySpace+liveWrites)
	}
	checkFoldMatchesStore(t, db, "t", "g", fold)
}

// TestClusterWatchSplitMoveFailover drives the cluster feed through
// every topology change it must survive: tablet split, live migration,
// and server failover (each of which replays log records with fresh
// LSNs but original timestamps). The delivered stream must stay
// per-key exactly-once — strictly ascending timestamps per key — and
// fold to the cluster's final state.
func TestClusterWatchSplitMoveFailover(t *testing.T) {
	cc, c := newClusterStore(t, 3, 4)
	const n = 3000
	loadRows(t, cc, "t", "g", n)

	feed, err := cc.Watch(bg, "t", "g", nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer feed.Close()

	// LSN-addressed resume is an embedded-only contract.
	if _, err := cc.Watch(bg, "t", "g", nil, nil, 42); err == nil {
		t.Error("cluster Watch accepted a non-zero fromLSN")
	}

	// Split the tablet owning the middle of the keyspace and migrate
	// one child, then write through the new topology.
	router, err := c.Router("t")
	if err != nil {
		t.Fatalf("Router: %v", err)
	}
	tab, ok := router.Lookup([]byte(fmt.Sprintf("k%08d", n/2)))
	if !ok {
		t.Fatal("no tablet owns the middle key")
	}
	_, right, err := c.SplitTablet(tab.ID)
	if err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	owner := c.Assignments()[right]
	for _, id := range c.LiveServers() {
		if id != owner {
			if err := c.MoveTablet(right, id); err != nil {
				t.Fatalf("MoveTablet: %v", err)
			}
			break
		}
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%08d", n/2+i)
		if err := cc.Put(bg, "t", "g", []byte(k), []byte(fmt.Sprintf("post-split-%d", i))); err != nil {
			t.Fatalf("post-split Put: %v", err)
		}
	}

	// Failover: kill a server; its tablets replay into an heir, and the
	// feed must absorb the replay without duplicating delivered keys.
	if err := c.KillServer(c.LiveServers()[0]); err != nil {
		t.Fatalf("KillServer: %v", err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%08d", i)
		if err := cc.Put(bg, "t", "g", []byte(k), []byte(fmt.Sprintf("post-failover-%d", i))); err != nil {
			t.Fatalf("post-failover Put: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := cc.Delete(bg, "t", "g", []byte(fmt.Sprintf("k%08d", n-1-i))); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}

	fold := foldState{}
	perKeyTS := map[string]int64{}
	err = drainUntilIdle(t, feed, fold, 2*time.Second, func(ev logbase.ChangeEvent) {
		k := string(ev.Key)
		if ev.TS <= perKeyTS[k] {
			t.Fatalf("key %q: ts %d not after %d (replayed duplicate leaked)", k, ev.TS, perKeyTS[k])
		}
		perKeyTS[k] = ev.TS
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkFoldMatchesStore(t, cc, "t", "g", fold)
}

// runMViewParity is the view/scan-path parity check: a registered view
// answering Exec must return exactly what the snapshot scan path (the
// same statement forced through ExecWith, which bypasses the view
// matcher) returns at the view's watermark, for every aggregate kind, and the
// scan path must actually be skipped (served counter advances).
var allAggKinds = []logbase.AggKind{logbase.Count, logbase.Sum, logbase.Min, logbase.Max, logbase.Avg}

func runMViewParity(t *testing.T, st logbase.Store, servedCount func() int64) {
	t.Helper()
	if err := st.CreateTable("m", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	prefixes := []string{"aa", "bb", "cc"}
	n := 0
	put := func(pfx string, i, v int) {
		t.Helper()
		k := fmt.Sprintf("%s/%03d", pfx, i)
		if err := st.Put(bg, "m", "g", []byte(k), []byte(fmt.Sprintf("%d", v))); err != nil {
			t.Fatalf("Put: %v", err)
		}
		n++
	}
	for i := 0; i < 40; i++ {
		put(prefixes[i%3], i, i*7%23)
	}

	spec := logbase.MViewSpec{
		Name: "pageagg", Table: "m", Group: "g",
		GroupPrefix: 2,
		Aggs:        allAggKinds,
	}
	if err := st.CreateMView(bg, spec); err != nil {
		t.Fatalf("CreateMView: %v", err)
	}
	// Post-bootstrap mutations: the view must track them through the
	// feed, including deletes and non-numeric rows (counted, not
	// summed).
	for i := 40; i < 70; i++ {
		put(prefixes[i%3], i, i*13%29)
	}
	if err := st.Put(bg, "m", "g", []byte("aa/999"), []byte("not-a-number")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	n++
	if err := st.Delete(bg, "m", "g", []byte("aa/000")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	n++

	// Wait for the feed to apply everything (bootstrap replays the full
	// retained history, so the event counter reaches the write count).
	deadline := time.Now().Add(10 * time.Second)
	for {
		stt, err := st.MViewStats("pageagg")
		if err != nil {
			t.Fatalf("MViewStats: %v", err)
		}
		if stt.Events >= uint64(n) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view lagging: %d events applied, want %d", stt.Events, n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// stmt is the statement shape the view maintains: one aggregate of
	// the whole value (COUNT(*) for Count) grouped on a 2-byte key prefix.
	stmt := func(kind logbase.AggKind) *logbase.Statement {
		s := logbase.Q("m").Group("g").GroupBy(2)
		if kind == logbase.Count {
			return s.Agg(logbase.Count)
		}
		return s.AggOf(kind, "m", logbase.ValExpr())
	}
	served0 := servedCount()
	for _, kind := range allAggKinds {
		got, err := st.Exec(bg, stmt(kind))
		if err != nil {
			t.Fatalf("Exec(%v): %v", kind, err)
		}
		want, err := st.(planForcer).ExecWith(bg, stmt(kind), logbase.ExecOptions{})
		if err != nil {
			t.Fatalf("ExecWith(%v): %v", kind, err)
		}
		if len(got.Groups) != len(want.Groups) || got.Rows != want.Rows {
			t.Fatalf("kind %v: view %d groups/%d rows, scan %d/%d", kind, len(got.Groups), got.Rows, len(want.Groups), want.Rows)
		}
		for i := range want.Groups {
			g, w := got.Groups[i], want.Groups[i]
			if g.Key != w.Key || g.Rows != w.Rows {
				t.Errorf("kind %v group %d: view %q/%d, scan %q/%d", kind, i, g.Key, g.Rows, w.Key, w.Rows)
				continue
			}
			if gv, wv := g.Aggs[0].Value(kind), w.Aggs[0].Value(kind); math.Abs(gv-wv) > 1e-9 {
				t.Errorf("kind %v group %q: view %g, scan %g", kind, g.Key, gv, wv)
			}
		}
	}
	if d := servedCount() - served0; d != int64(len(allAggKinds)) {
		t.Errorf("view served %d queries, want %d (scan path not skipped)", d, len(allAggKinds))
	}

	// A historical snapshot the view cannot answer falls back to the
	// scan path.
	if _, err := st.Exec(bg, stmt(logbase.Count).At(1)); err != nil {
		t.Fatalf("historical Exec: %v", err)
	}
	if d := servedCount() - served0; d != int64(len(allAggKinds)) {
		t.Errorf("historical query was served from the view (wrong snapshot)")
	}

	// MViewQuery returns every aggregate at the watermark timestamp.
	res, err := st.MViewQuery(bg, "pageagg")
	if err != nil {
		t.Fatalf("MViewQuery: %v", err)
	}
	stt, _ := st.MViewStats("pageagg")
	if res.TS != stt.WatermarkTS || len(res.Groups) != len(prefixes) {
		t.Errorf("MViewQuery TS=%d groups=%d, want TS=%d groups=%d", res.TS, len(res.Groups), stt.WatermarkTS, len(prefixes))
	}
}

func TestMViewMatchesScanPathEmbedded(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	served := db.Metrics().Counter("logbase_mview_served_total", "aggregate queries answered from materialized views", nil)
	runMViewParity(t, db, served.Load)
}

func TestMViewMatchesScanPathCluster(t *testing.T) {
	cc, c := newClusterStore(t, 3, 4)
	served := c.Metrics().Counter("logbase_mview_served_total", "aggregate queries answered from materialized views", nil)
	runMViewParity(t, cc, served.Load)
}
