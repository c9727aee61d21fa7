package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cdc"
)

// nextEvent pulls one event with a deadline so a broken feed fails the
// test instead of hanging it.
func nextEvent(t *testing.T, f *Feed) cdc.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ev, err := f.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return ev
}

// drainEvents pulls events until the feed errors, returning the events
// and the terminal error.
func drainEvents(f *Feed, max int) ([]cdc.Event, error) {
	var evs []cdc.Event
	for len(evs) < max {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ev, err := f.Next(ctx)
		cancel()
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

func TestWatchCatchUpThenLive(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	s.Write(testTablet, testGroup, []byte("alice"), 10, []byte("v1"))
	s.Write(testTablet, testGroup, []byte("bob"), 20, []byte("v2"))

	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()

	// Historical catch-up: the two pre-subscribe writes, in LSN order,
	// auto-commit cursor == LSN.
	ev1, ev2 := nextEvent(t, f), nextEvent(t, f)
	if ev1.Kind != cdc.Put || string(ev1.Key) != "alice" || string(ev1.Value) != "v1" || ev1.TS != 10 {
		t.Errorf("catch-up event 1 = %+v", ev1)
	}
	if string(ev2.Key) != "bob" || ev2.Cursor <= ev1.Cursor {
		t.Errorf("catch-up event 2 = %+v (after %+v)", ev2, ev1)
	}
	if ev1.Cursor != ev1.LSN || ev2.Cursor != ev2.LSN {
		t.Errorf("auto-commit cursors should equal LSNs: %+v %+v", ev1, ev2)
	}

	// Live tail: a write after subscribe streams with no missed gap.
	s.Write(testTablet, testGroup, []byte("carol"), 30, []byte("v3"))
	s.Delete(testTablet, testGroup, []byte("alice"), 40)
	ev3, ev4 := nextEvent(t, f), nextEvent(t, f)
	if string(ev3.Key) != "carol" || ev3.Cursor <= ev2.Cursor {
		t.Errorf("live event = %+v", ev3)
	}
	if ev4.Kind != cdc.Delete || string(ev4.Key) != "alice" || ev4.TS != 40 {
		t.Errorf("live delete = %+v", ev4)
	}
	if ev4.Table != "users" || ev4.Group != testGroup {
		t.Errorf("event labels = %+v", ev4)
	}
}

func TestWatchFilters(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	s.Write(testTablet, testGroup, []byte("a"), 1, []byte("pa"))
	s.Write(testTablet, "activity", []byte("a"), 2, []byte("xa"))
	s.Write(testTablet, testGroup, []byte("b"), 3, []byte("pb"))
	s.Write(testTablet, testGroup, []byte("c"), 4, []byte("pc"))

	// Group filter.
	f, err := s.Watch("users", "activity", nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	ev := nextEvent(t, f)
	if ev.Group != "activity" || string(ev.Key) != "a" {
		t.Errorf("group-filtered event = %+v", ev)
	}
	f.Close()

	// Key range [b, c): only b, across all groups.
	f, err = s.Watch("users", "", []byte("b"), []byte("c"), 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	ev = nextEvent(t, f)
	if string(ev.Key) != "b" || string(ev.Value) != "pb" {
		t.Errorf("range-filtered event = %+v", ev)
	}
	f.Close()
}

func TestWatchResumeFromCursor(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Write(testTablet, testGroup, []byte{byte('a' + i)}, int64(i+1), []byte("v"))
	}
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	evs, _ := drainEvents(f, 5)
	f.Close()
	if len(evs) != 5 {
		t.Fatalf("got %d catch-up events, want 5", len(evs))
	}
	last := evs[4].Cursor

	// Resume after the last cursor: only later writes appear, exactly
	// once.
	s.Write(testTablet, testGroup, []byte("z"), 99, []byte("zz"))
	f2, err := s.Watch("users", testGroup, nil, nil, last+1)
	if err != nil {
		t.Fatalf("resume Watch: %v", err)
	}
	defer f2.Close()
	ev := nextEvent(t, f2)
	if string(ev.Key) != "z" || ev.Cursor <= last {
		t.Errorf("resumed event = %+v, want key z after cursor %d", ev, last)
	}
}

func TestWatchTxnCommitCursor(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()

	// Transaction committed before subscribe: catch-up path.
	if err := s.ApplyTxn(7, 100, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("t1"), Value: []byte("a")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("t2"), Value: []byte("b")},
	}); err != nil {
		t.Fatalf("ApplyTxn: %v", err)
	}
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	ev1, ev2 := nextEvent(t, f), nextEvent(t, f)
	if ev1.Cursor != ev2.Cursor {
		t.Errorf("txn events should share the commit cursor: %d vs %d", ev1.Cursor, ev2.Cursor)
	}
	if ev1.Cursor <= ev1.LSN || ev1.Cursor <= ev2.LSN {
		t.Errorf("commit cursor %d should be past both record LSNs %d, %d", ev1.Cursor, ev1.LSN, ev2.LSN)
	}
	if string(ev1.Key) != "t1" || string(ev2.Key) != "t2" {
		t.Errorf("txn events out of record order: %q, %q", ev1.Key, ev2.Key)
	}

	// Transaction committed after subscribe: records buffer until the
	// commit lands on the live tail.
	if err := s.ApplyTxn(8, 200, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("t3"), Value: []byte("c")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("t4"), Delete: true},
	}); err != nil {
		t.Fatalf("ApplyTxn: %v", err)
	}
	ev3, ev4 := nextEvent(t, f), nextEvent(t, f)
	if ev3.Cursor != ev4.Cursor || ev3.Cursor <= ev1.Cursor {
		t.Errorf("live txn cursors = %d, %d (after %d)", ev3.Cursor, ev4.Cursor, ev1.Cursor)
	}
	if ev4.Kind != cdc.Delete || string(ev4.Key) != "t4" {
		t.Errorf("live txn delete = %+v", ev4)
	}
	f.Close()

	// Resuming at commitCursor+1 replays neither txn; at commitCursor
	// the whole second txn replays (a resume point never splits one).
	f2, err := s.Watch("users", testGroup, nil, nil, ev3.Cursor)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	evs, _ := drainEvents(f2, 2)
	f2.Close()
	if len(evs) != 2 || string(evs[0].Key) != "t3" || string(evs[1].Key) != "t4" {
		t.Errorf("resume at commit cursor replayed %+v, want t3,t4", evs)
	}
}

func TestWatchCursorTruncated(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.Write(testTablet, testGroup, []byte("k"), int64(i+1), []byte{byte('0' + i)})
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.pruneHorizon.Load() == 0 {
		t.Fatal("whole-log compaction should raise the prune horizon")
	}

	// An exact resume at or below the horizon is refused...
	if _, err := s.Watch("users", testGroup, nil, nil, 2); !errors.Is(err, cdc.ErrCursorTruncated) {
		t.Fatalf("Watch below horizon: err = %v, want ErrCursorTruncated", err)
	}

	// ...but fromLSN 0 still replays the retained (coalesced) history
	// and reconstructs the current state.
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch from 0: %v", err)
	}
	defer f.Close()
	var last cdc.Event
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		ev, nerr := f.Next(ctx)
		cancel()
		if nerr != nil {
			break // idle: retained history exhausted
		}
		if ev.TS < last.TS {
			t.Errorf("replay out of version order: %+v after %+v", ev, last)
		}
		last = ev
	}
	if string(last.Key) != "k" || string(last.Value) != "3" || last.TS != 4 {
		t.Errorf("folded replay = %+v, want latest version (ts 4)", last)
	}
}

// TestWatchSlowConsumer floods a feed nobody reads past the log's 4 KB
// in-memory tail, and the consumer still gets every write exactly once,
// in cursor order — the feed fell off the tail and re-read its gap from
// the segments.
func TestWatchSlowConsumer(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 4 << 10})
	defer s.Close()
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%04d", i)), int64(i+1), []byte("v"))
	}
	evs, err := drainEvents(f, n)
	if err != nil {
		t.Fatalf("drained %d of %d events: %v", len(evs), n, err)
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("k%04d", i); string(ev.Key) != want {
			t.Fatalf("event %d is %q, want %q", i, ev.Key, want)
		}
		if i > 0 && ev.Cursor <= evs[i-1].Cursor {
			t.Fatalf("cursor regression at %d: %d -> %d", i, evs[i-1].Cursor, ev.Cursor)
		}
	}
	if got := s.obs.cdcRereads.Load(); got < 1 {
		t.Errorf("rereads = %d, want >= 1: the feed never fell off the tail", got)
	}
}

// TestWatchOverflowKeepsTransactionsWhole floods an undrained feed with
// three-write transactions past the log's 4 KB in-memory tail, so the
// tail's first LSN falls inside a transaction, while one prepared
// transaction stays open across the re-read. Every transaction still
// arrives once, whole, in record order and under one cursor: the
// re-read of the segments finds the records of a transaction the tail
// only commits.
func TestWatchOverflowKeepsTransactionsWhole(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 4 << 10})
	defer s.Close()
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	const txns = 500
	write := func(key string) TxnWrite {
		return TxnWrite{Tablet: testTablet, Group: testGroup, Key: []byte(key), Value: []byte("v")}
	}
	open, err := s.PrepareTxn(txns+1, txns+1, []TxnWrite{write("open-0"), write("open-1")})
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	var want [][]string // keys per transaction, in commit order
	for i := 0; i < txns; i++ {
		keys := []string{fmt.Sprintf("t%03d-0", i), fmt.Sprintf("t%03d-1", i), fmt.Sprintf("t%03d-2", i)}
		if err := s.ApplyTxn(uint64(i+1), int64(i+1), []TxnWrite{write(keys[0]), write(keys[1]), write(keys[2])}); err != nil {
			t.Fatalf("ApplyTxn: %v", err)
		}
		want = append(want, keys)
	}
	want = append(want, []string{"open-0", "open-1"})
	// The first Next falls off the tail and re-reads past the flood
	// while "open" is still open; its commit lands on the tail.
	evs := []cdc.Event{nextEvent(t, f)}
	if err := s.CommitTxn(txns+1, txns+1, open); err != nil {
		t.Fatalf("CommitTxn: %v", err)
	}
	rest, err := drainEvents(f, 3*txns+1)
	if err != nil {
		t.Fatalf("drained %d more events: %v", len(rest), err)
	}
	evs = append(evs, rest...)
	var prev uint64
	for _, keys := range want {
		cursor := evs[0].Cursor
		if cursor <= prev {
			t.Fatalf("transaction %v: cursor %d not past the previous %d", keys, cursor, prev)
		}
		for _, k := range keys {
			if string(evs[0].Key) != k || evs[0].Cursor != cursor {
				t.Fatalf("got %q at cursor %d, want %q at %d", evs[0].Key, evs[0].Cursor, k, cursor)
			}
			evs = evs[1:]
		}
		prev = cursor
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if ev, err := f.Next(ctx); err == nil {
		t.Errorf("extra event %q after every transaction", ev.Key)
	}
	if got := s.obs.cdcRereads.Load(); got < 1 {
		t.Errorf("rereads = %d, want >= 1: the feed never fell off the tail", got)
	}
}

// TestWatchOverflowIntoReclaimedGap: a feed falls off the log's 4 KB
// in-memory tail, and before its consumer comes back a retention
// compaction reclaims the gap. The feed returns cdc.ErrCursorTruncated
// and nothing after it.
func TestWatchOverflowIntoReclaimedGap(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 4 << 10})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	defer s.Close()
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	s.Write(testTablet, testGroup, []byte("a"), 1, []byte("v"))
	first := nextEvent(t, f)

	for i := 0; i < 100; i++ {
		s.Write(testTablet, testGroup, []byte("k"), int64(i+2), []byte{byte(i)})
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if h := s.pruneHorizon.Load(); h <= first.Cursor {
		t.Fatalf("prune horizon %d does not cover the gap after cursor %d", h, first.Cursor)
	}

	evs, err := drainEvents(f, 200)
	if !errors.Is(err, cdc.ErrCursorTruncated) {
		t.Fatalf("drained %d events, err = %v, want ErrCursorTruncated", len(evs), err)
	}
	if len(evs) > 0 {
		t.Errorf("%d events after the gap, want none: the feed fell off before it read them", len(evs))
	}
	last := first.Cursor
	for _, ev := range evs {
		if ev.Cursor <= last {
			t.Fatalf("cursor regression: %d after %d", ev.Cursor, last)
		}
		last = ev.Cursor
	}
	for i := 0; i < 2; i++ {
		if ev, err := f.Next(context.Background()); !errors.Is(err, cdc.ErrCursorTruncated) {
			t.Fatalf("Next after truncation = %+v, %v; want ErrCursorTruncated again", ev, err)
		}
	}
	if got := s.obs.cdcRereads.Load(); got != 1 {
		t.Errorf("rereads = %d, want the 1 fall-off", got)
	}
}

// TestWatchOverflowThenServerClose: a feed fell off the log's 1 KB
// in-memory tail and re-read its gap from the segments when its server
// shuts down. It returns what the re-read queued, then ends with
// cdc.ErrFeedClosed, like a feed the shutdown found reading the tail,
// instead of waiting on a tail that never moves.
func TestWatchOverflowThenServerClose(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 1 << 10})
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	const n = 100
	for i := 0; i < n; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%03d", i)), int64(i+1), []byte("v"))
	}
	nextEvent(t, f)
	if got := s.obs.cdcRereads.Load(); got != 1 {
		t.Fatalf("rereads = %d, want the 1 fall-off", got)
	}
	s.Close()
	evs, err := drainEvents(f, 2*n)
	if !errors.Is(err, cdc.ErrFeedClosed) {
		t.Fatalf("drained %d events, err = %v, want ErrFeedClosed", len(evs), err)
	}
	if 1+len(evs) >= n {
		t.Errorf("%d events, want only those the re-read queued below the tail", 1+len(evs))
	}
}

// TestFollowerNeverTakesInstallLatch: a feed that fell off the log's
// in-memory tail resumes from the segments while the install latch is
// held shared, as every in-flight mutation holds it. No feed waits on a
// writer.
func TestFollowerNeverTakesInstallLatch(t *testing.T) {
	s, _ := newTestServer(t, Config{SegmentSize: 4 << 10})
	defer s.Close()
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	// More writes than any feed buffer held, and far past the tail.
	const n = 5000
	for i := 0; i < n; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%04d", i)), int64(i+1), []byte("v"))
	}
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	drained := make(chan error, 1)
	go func() {
		evs, err := drainEvents(f, n)
		if err == nil && len(evs) != n {
			err = fmt.Errorf("%d events, want %d", len(evs), n)
		}
		drained <- err
	}()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain under the install latch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the feed still waits after 10s with the install latch held shared")
	}
	if got := s.obs.cdcRereads.Load(); got < 1 {
		t.Errorf("rereads = %d, want >= 1: the feed never fell off the tail", got)
	}
}

// TestWatchReplayMatchesOracle is the delete-semantics regression: a
// history of writes and deletes — including versions beyond the
// KeepVersions retention window — is compacted, then replayed
// from LSN 0; folding the replayed events must reconstruct exactly the
// server's live state (coalesced, never wrong).
func TestWatchReplayMatchesOracle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	defer s.Close()
	type kv struct {
		val string
		ok  bool
	}
	oracle := map[string]kv{}
	ts := int64(0)
	put := func(k, v string) {
		ts++
		s.Write(testTablet, testGroup, []byte(k), ts, []byte(v))
		oracle[k] = kv{v, true}
	}
	del := func(k string) {
		ts++
		s.Delete(testTablet, testGroup, []byte(k), ts)
		oracle[k] = kv{"", false}
	}
	for i := 0; i < 6; i++ {
		put("a", fmt.Sprintf("a%d", i)) // retention-pruned overwrites
	}
	put("b", "b0")
	del("b") // tombstoned key
	put("c", "c0")
	del("c")
	put("c", "c1") // deleted then rewritten
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer f.Close()
	replay := map[string]kv{}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		ev, nerr := f.Next(ctx)
		cancel()
		if nerr != nil {
			break // idle: caught up through the retained history
		}
		if ev.Kind == cdc.Delete {
			replay[string(ev.Key)] = kv{"", false}
		} else {
			replay[string(ev.Key)] = kv{string(ev.Value), true}
		}
	}
	for k, want := range oracle {
		got, live := replay[k]
		if want.ok != (live && got.ok) {
			t.Errorf("key %s: replay liveness = %v/%v, oracle %v", k, live, got.ok, want.ok)
			continue
		}
		if want.ok && got.val != want.val {
			t.Errorf("key %s: replay value %q, oracle %q", k, got.val, want.val)
		}
	}
}

// TestFeedGauges: logbase_cdc_feeds counts the open feeds and
// logbase_cdc_feed_lag_lsns reports how far the slowest one trails the
// log tip; a closed feed leaves both.
func TestFeedGauges(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	gauge := func(name string) float64 {
		t.Helper()
		m, ok := metricAt(t, s.Metrics(), name)
		if !ok {
			t.Fatalf("no %s gauge", name)
		}
		return m.Value
	}
	f, err := s.Watch("users", testGroup, nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	for i := 0; i < 5; i++ {
		s.Write(testTablet, testGroup, []byte(fmt.Sprintf("k%d", i)), int64(i+1), []byte("v"))
	}
	nextEvent(t, f)
	if n, lag := gauge("logbase_cdc_feeds"), gauge("logbase_cdc_feed_lag_lsns"); n != 1 || lag != 4 {
		t.Fatalf("with one feed that took 1 of 5 records: feeds %v, lag %v; want 1 and 4", n, lag)
	}
	for i := 0; i < 4; i++ {
		nextEvent(t, f)
	}
	if lag := gauge("logbase_cdc_feed_lag_lsns"); lag != 0 {
		t.Fatalf("caught up: lag %v, want 0", lag)
	}
	f.Close()
	if n := gauge("logbase_cdc_feeds"); n != 0 {
		t.Fatalf("after Close: feeds %v, want 0", n)
	}
}
