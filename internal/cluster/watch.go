package cluster

// Cluster-wide changefeeds: a scatter-gather over the per-server feeds
// in internal/core. Every tablet server's log is an independent LSN
// space, and topology changes — failover, live migration — REPLAY
// records into destination logs (new LSNs, original commit
// timestamps), so a cluster feed cannot merge by LSN or resume by one.
// Instead it subscribes every live server from the beginning of its
// retained log and deduplicates at the cluster level with a per-key
// commit-timestamp watermark: an event is delivered iff its TS is
// newer than the last delivered TS for that (group, key). Replayed
// copies carry their original TS and are absorbed; a server that joins
// (or adopts tablets through failover) is picked up by a supervisor
// that re-subscribes it from LSN 0, with the watermark suppressing the
// history the consumer has already seen.
//
// Ordering contract: per-key events arrive in commit-timestamp order;
// there is no total order across keys (feeds from different servers
// interleave arbitrarily). Event.Cursor/LSN are the origin server's
// values and are NOT usable as a cluster-wide resume point — a cluster
// Watch always starts from 0 and is bootstrapped via the watermark.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cdc"
	"repro/internal/core"
)

// feedEvents sizes the merged event channel. It only smooths the
// handoff: a lagging consumer leaves its server feeds behind in the logs.
const feedEvents = 64

// feedPollInterval paces the supervisor's topology poll. The in-process
// "RPC" makes this cheap; it only bounds how quickly a feed notices a
// newly live server or a failover heir.
const feedPollInterval = 10 * time.Millisecond

// Watch subscribes a cluster-wide changefeed over table: committed
// Put/Delete events for keys in [start, end) (nil = open; group "" =
// every column group), each key's events in commit-timestamp order.
// The feed spans topology changes — tablet splits, live migrations and
// server failovers — re-subscribing heirs as the supervisor notices
// them and absorbing replayed history through the timestamp watermark.
// Close the feed (or cancel ctx passed to Next) to release the
// per-server subscriptions.
func (c *Cluster) Watch(ctx context.Context, table, group string, start, end []byte) (cdc.Feed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.RLock()
	groups, ok := c.tableGroups[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no table %s", table)
	}
	if group != "" {
		found := false
		for _, g := range groups {
			if g == group {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: table %s has no column group %s", table, group)
		}
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &clusterFeed{
		c:      c,
		table:  table,
		group:  group,
		start:  append([]byte(nil), start...),
		end:    append([]byte(nil), end...),
		events: make(chan cdc.Event, feedEvents),
		done:   make(chan struct{}),
		ctx:    fctx,
		cancel: cancel,
		feeds:  make(map[string]*core.Feed),
		marks:  make(map[string]int64),
	}
	// Subscribe the current live set synchronously so the feed's
	// boundary covers every write committed before Watch returned.
	f.resubscribe()
	f.wg.Add(1)
	go f.supervise()
	return f, nil
}

// clusterFeed implements cdc.Feed over per-server core feeds.
type clusterFeed struct {
	c            *Cluster
	table, group string
	start, end   []byte

	events chan cdc.Event
	done   chan struct{}
	ctx    context.Context // cancelled on close; unblocks pump Next calls
	cancel context.CancelFunc
	once   sync.Once
	wg     sync.WaitGroup

	mu    sync.Mutex
	err   error                 // terminal error, set before done closes
	feeds map[string]*core.Feed // serverID -> live subscription
	marks map[string]int64      // group \x00 key -> highest delivered TS
}

var _ cdc.Feed = (*clusterFeed)(nil)

// supervise polls the live-server set, subscribing servers that have no
// feed (new servers; heirs whose earlier feed died with their source).
func (f *clusterFeed) supervise() {
	defer f.wg.Done()
	t := time.NewTicker(feedPollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
			f.resubscribe()
		}
	}
}

// resubscribe opens a per-server feed (from LSN 0 — the watermark
// absorbs replayed history) for every live server that lacks one.
func (f *clusterFeed) resubscribe() {
	select {
	case <-f.done:
		return
	default:
	}
	for _, id := range f.c.LiveServers() {
		f.mu.Lock()
		_, have := f.feeds[id]
		f.mu.Unlock()
		if have {
			continue
		}
		srv := f.c.Server(id)
		if srv == nil {
			continue
		}
		feed, err := srv.Watch(f.table, f.group, f.start, f.end, 0)
		if err != nil {
			continue // server mid-shutdown; next poll retries
		}
		f.mu.Lock()
		f.feeds[id] = feed
		f.mu.Unlock()
		f.wg.Add(1)
		go f.pump(id, feed)
	}
}

// pump drains one server's feed into the merged stream.
func (f *clusterFeed) pump(id string, feed *core.Feed) {
	defer f.wg.Done()
	defer feed.Close()
	for {
		ev, err := feed.Next(f.ctx)
		if err != nil {
			f.mu.Lock()
			delete(f.feeds, id)
			f.mu.Unlock()
			if errors.Is(err, cdc.ErrCursorTruncated) {
				// A lagging server feed's gap was compacted away, and with
				// it maybe a delete the consumer never saw: a replay from
				// 0 cannot bring that back, so the consumer must
				// re-bootstrap.
				f.fail(err)
			}
			return
		}
		if !f.admit(ev) {
			continue
		}
		select {
		case f.events <- ev:
		case <-f.done:
			return
		}
	}
}

// admit applies the cluster-level dedupe: deliver iff this event's TS
// advances the per-key watermark. Replayed copies (same TS) and stale
// versions arriving after a newer one from another server are dropped.
func (f *clusterFeed) admit(ev cdc.Event) bool {
	k := ev.Group + "\x00" + string(ev.Key)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.TS <= f.marks[k] {
		return false
	}
	f.marks[k] = ev.TS
	return true
}

// fail records the terminal error (first wins) and shuts the feed down.
func (f *clusterFeed) fail(err error) {
	f.once.Do(func() {
		f.mu.Lock()
		f.err = err
		f.mu.Unlock()
		f.cancel()
		close(f.done)
	})
}

// Next returns the next deduplicated event, blocking until one is
// available, ctx is done, or the feed is closed.
func (f *clusterFeed) Next(ctx context.Context) (cdc.Event, error) {
	select {
	case <-f.done:
		return cdc.Event{}, f.feedErr()
	default:
	}
	select {
	case ev := <-f.events:
		return ev, nil
	case <-ctx.Done():
		return cdc.Event{}, ctx.Err()
	case <-f.done:
		return cdc.Event{}, f.feedErr()
	}
}

func (f *clusterFeed) feedErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	return cdc.ErrFeedClosed
}

// Close tears down every per-server subscription and waits for the
// supervisor and pumps to exit. Idempotent.
func (f *clusterFeed) Close() error {
	f.fail(nil)
	f.wg.Wait()
	return nil
}
