package logbase_test

// Model-based changefeed tests: interleaved writes, deletes,
// incremental compaction ticks, and (on the cluster) tablet split +
// migration, all consumed through a deliberately LAGGING Watch cursor
// over logs with 4 KB segments, and so 4 KB in-memory tails. The feed
// falls off the tail and re-reads its gap from the segments (counted in
// logbase_cdc_feed_rereads_total); when compaction has
// reclaimed that gap first, Next returns ErrCursorTruncated and the
// consumer re-bootstraps from LSN 0 — and through all of it the folded
// stream must reconstruct exactly the engine's final state. This is
// the retention/truncation contract exercised end to end.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// laggingConsumer drives a feed that deliberately falls behind: it
// drains only a few events per round and re-bootstraps on truncation.
type laggingConsumer struct {
	st   logbase.Store
	feed logbase.ChangeFeed
	fold foldState
}

// open re-bootstraps: a fresh fold and a Watch from 0, the only replay
// that is state-correct after the gap was reclaimed.
func (lc *laggingConsumer) open(t *testing.T) {
	t.Helper()
	lc.fold = foldState{}
	feed, err := lc.st.Watch(bg, "t", "g", nil, nil, 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	lc.feed = feed
}

// drain pulls up to max events (0 = until idle), re-bootstrapping when
// compaction reclaimed the lagging feed's gap. Returns the number of
// events folded.
func (lc *laggingConsumer) drain(t *testing.T, max int, idle time.Duration) int {
	t.Helper()
	n := 0
	for max <= 0 || n < max {
		ctx, cancel := context.WithTimeout(context.Background(), idle)
		ev, err := lc.feed.Next(ctx)
		cancel()
		switch {
		case err == nil:
			lc.fold.apply(ev)
			n++
		case errors.Is(err, context.DeadlineExceeded):
			return n
		case errors.Is(err, logbase.ErrCursorTruncated):
			lc.feed.Close()
			lc.open(t)
		default:
			t.Fatalf("Next: %v", err)
		}
	}
	return n
}

// rereads sums logbase_cdc_feed_rereads_total over every server.
func rereads(st logbase.Store) float64 {
	var n float64
	for _, m := range st.(interface{ Metrics() *obs.Registry }).Metrics().Snapshot() {
		if m.Name == "logbase_cdc_feed_rereads_total" {
			n += m.Value
		}
	}
	return n
}

// runChangefeedModel mutates in rounds with the consumer lagging
// behind, then drains fully and compares the folded state against the
// engine.
func runChangefeedModel(t *testing.T, st logbase.Store, tick func(t *testing.T, round int), seed int64, rounds int) bool {
	t.Helper()
	if err := st.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	const keySpace = 80

	lc := &laggingConsumer{st: st}
	lc.open(t)
	defer func() { lc.feed.Close() }()

	for round := 0; round < rounds; round++ {
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("row/%04d", rng.Intn(keySpace))
			if rng.Intn(8) == 0 {
				if err := st.Delete(bg, "t", "g", []byte(k)); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			} else {
				v := fmt.Sprintf("val-%d-%d", round, i)
				if err := st.Put(bg, "t", "g", []byte(k), []byte(v)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
		}
		tick(t, round)
		// Lag: consume far fewer events than the round produced, so the
		// feed falls off the tail and reread/re-bootstrap paths fire.
		lc.drain(t, 15, 100*time.Millisecond)
	}

	// Catch up completely, then check the fold against the engine.
	for lc.drain(t, 0, 500*time.Millisecond) > 0 {
	}
	if rereads(st) == 0 {
		t.Logf("seed %d: no feed re-read its gap; the fall-off path never ran", seed)
		return false
	}
	live := map[string]logbase.Row{}
	it := st.Scan(bg, "t", "g", nil, nil)
	for it.Next() {
		r := it.Row()
		live[string(r.Key)] = logbase.Row{Key: append([]byte(nil), r.Key...), TS: r.TS, Value: append([]byte(nil), r.Value...)}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("oracle scan: %v", err)
	}
	for k, r := range live {
		got, ok := lc.fold[k]
		if !ok || !got.live || got.ts != r.TS || got.val != string(r.Value) {
			t.Logf("seed %d key %q: fold %+v, engine %q@%d", seed, k, got, r.Value, r.TS)
			return false
		}
	}
	for k, fr := range lc.fold {
		if fr.live {
			if _, ok := live[k]; !ok {
				t.Logf("seed %d key %q: live in fold, deleted in engine", seed, k)
				return false
			}
		}
	}
	return true
}

// modelSegment is the model stores' segment size: a round's writes
// outgrow the 4 KB in-memory tail it bounds.
const modelSegment = 4 << 10

func TestChangefeedModelEmbedded(t *testing.T) {
	f := func(seed int64) bool {
		db, err := logbase.Open(t.TempDir(), logbase.Options{SegmentSize: modelSegment})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		keepVersions(t, db, "t", "g", 2)
		tick := func(t *testing.T, _ int) {
			t.Helper()
			db.Server().Log().Rotate()
			if _, _, err := db.Server().AutoCompactTick(); err != nil {
				t.Fatalf("AutoCompactTick: %v", err)
			}
		}
		return runChangefeedModel(t, db, tick, seed, 6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestChangefeedModelCluster(t *testing.T) {
	f := func(seed int64) bool {
		c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
			NumServers: 3,
			Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 3}},
			Server:     core.Config{SegmentSize: modelSegment},
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cc := logbase.NewClusterClient(c)
		defer cc.Close()
		tick := func(t *testing.T, round int) {
			t.Helper()
			for _, id := range c.LiveServers() {
				c.Server(id).Log().Rotate()
			}
			if err := c.AutoCompactTick(); err != nil {
				t.Fatalf("AutoCompactTick: %v", err)
			}
			if round == 2 {
				// Mid-run topology churn: split a random tablet and
				// migrate one child.
				assign := c.Assignments()
				for id := range assign {
					left, right, err := c.SplitTablet(id)
					if err != nil {
						continue // too small: try another
					}
					_ = left
					owner := c.Assignments()[right]
					for _, sid := range c.LiveServers() {
						if sid != owner {
							if err := c.MoveTablet(right, sid); err != nil {
								t.Fatalf("MoveTablet: %v", err)
							}
							break
						}
					}
					break
				}
			}
		}
		return runChangefeedModel(t, cc, tick, seed, 5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}
