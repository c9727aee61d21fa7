package logbase

// Materialized views: registered aggregates maintained incrementally
// from a changefeed instead of re-scanned per query. CreateMView
// subscribes a Watch FIRST (so its boundary covers every later write),
// bootstraps from a snapshot scan, and then folds the feed into the
// view forever; the per-key timestamp guard in internal/mview absorbs
// the snapshot/feed overlap and any replayed history. Exec consults the
// registered views before falling back to the scan executor — a
// matching aggregate statement is answered in O(1) per group from the
// view, stamped with the view's watermark timestamp. It is all written
// against the client's own Watch and Scan, so both backends share it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mview"
	"repro/internal/obs"
)

// MViewSpec declares a materialized view — the declarative aggregate
// query it answers (see mview.Spec).
type MViewSpec = mview.Spec

// MViewStats is a view's observability snapshot.
type MViewStats = mview.Stats

// ErrViewBroken is returned by MViewQuery when the view's feed died
// (e.g. the consumer fell behind and the feed overflowed); the view is
// stale forever and must be re-created to re-bootstrap.
var ErrViewBroken = errors.New("logbase: materialized view feed broken; re-create the view")

// viewSet is the client's registry of running materialized views. The
// zero value is ready to use.
type viewSet struct {
	mu     sync.RWMutex
	views  map[string]*runningView
	served *obs.Counter
}

// runningView couples a view with the feed goroutine maintaining it.
type runningView struct {
	view   *mview.View
	feed   ChangeFeed
	cancel context.CancelFunc
	done   chan struct{}
	hist   *obs.Histogram // apply latency, nil when metrics disabled

	mu  sync.Mutex
	err error // terminal feed error; view is stale beyond its watermark
}

func (rv *runningView) fail(err error) {
	rv.mu.Lock()
	rv.err = err
	rv.mu.Unlock()
}

func (rv *runningView) broken() error {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.err
}

// CreateMView registers a materialized view and bootstraps it: a
// changefeed subscription, then a snapshot scan, then incremental
// maintenance until Close. It returns once the snapshot scan has been
// folded in; the feed keeps the view fresh in the background.
func (c *client) CreateMView(ctx context.Context, spec MViewSpec) error {
	vs, reg := &c.views, c.Metrics()
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}

	// Subscribe the feed before the snapshot scan: everything the scan
	// misses arrives as events, everything both see is deduplicated by
	// the per-key timestamp guard.
	fctx, cancel := context.WithCancel(context.Background())
	feed, err := c.Watch(fctx, spec.Table, spec.Group, spec.Start, spec.End, 0)
	if err != nil {
		cancel()
		return err
	}
	rv := &runningView{
		view:   mview.New(spec),
		feed:   feed,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if reg != nil {
		rv.hist = reg.Histogram("logbase_mview_apply_seconds", "materialized-view event apply latency",
			obs.Labels{"view": spec.Name})
	}

	vs.mu.Lock()
	if vs.views == nil {
		vs.views = make(map[string]*runningView)
	}
	if vs.served == nil && reg != nil {
		vs.served = reg.Counter("logbase_mview_served_total", "aggregate queries answered from materialized views", nil)
	}
	if _, exists := vs.views[spec.Name]; exists {
		vs.mu.Unlock()
		cancel()
		feed.Close()
		return fmt.Errorf("logbase: materialized view %s already exists", spec.Name)
	}
	vs.views[spec.Name] = rv
	vs.mu.Unlock()

	// Drain the feed concurrently with the bootstrap scan so a long
	// scan under write load cannot overflow the feed buffer.
	go rv.run(fctx)

	it := c.Scan(ctx, spec.Table, spec.Group, spec.Start, spec.End)
	for it.Next() {
		rv.view.ApplySnapshotRow(it.Row())
	}
	it.Close()
	if err := it.Err(); err != nil {
		vs.drop(spec.Name)
		return fmt.Errorf("logbase: bootstrap view %s: %w", spec.Name, err)
	}
	return nil
}

// run is the view's apply loop: one goroutine folding feed events into
// the view until the feed or the store closes.
func (rv *runningView) run(ctx context.Context) {
	defer close(rv.done)
	for {
		ev, err := rv.feed.Next(ctx)
		if err != nil {
			if !errors.Is(err, ErrFeedClosed) && !errors.Is(err, context.Canceled) {
				rv.fail(err)
			}
			return
		}
		var t0 time.Time
		if rv.hist != nil {
			t0 = time.Now()
		}
		rv.view.ApplyEvent(ev)
		if rv.hist != nil {
			rv.hist.Observe(time.Since(t0))
		}
	}
}

// stop tears down one view's feed goroutine.
func (rv *runningView) stop() {
	rv.cancel()
	rv.feed.Close()
	<-rv.done
}

func (vs *viewSet) get(name string) (*runningView, error) {
	vs.mu.RLock()
	rv, ok := vs.views[name]
	vs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("logbase: no materialized view %s", name)
	}
	return rv, nil
}

// drop removes and stops one view (used on failed bootstrap).
func (vs *viewSet) drop(name string) {
	vs.mu.Lock()
	rv := vs.views[name]
	delete(vs.views, name)
	vs.mu.Unlock()
	if rv != nil {
		rv.stop()
	}
}

// closeAll stops every view; called from Store.Close.
func (vs *viewSet) closeAll() {
	vs.mu.Lock()
	views := vs.views
	vs.views = nil
	vs.mu.Unlock()
	for _, rv := range views {
		rv.stop()
	}
}

// MViewQuery materialises a registered view: every spec aggregate per
// group, stamped with the view's watermark timestamp.
func (c *client) MViewQuery(ctx context.Context, name string) (QueryResult, error) {
	if err := ctxErr(ctx); err != nil {
		return QueryResult{}, err
	}
	rv, err := c.views.get(name)
	if err != nil {
		return QueryResult{}, err
	}
	if err := rv.broken(); err != nil {
		return QueryResult{}, fmt.Errorf("%w: %w", ErrViewBroken, err)
	}
	return rv.view.Result(), nil
}

// MViewStats snapshots a registered view's counters and watermark.
func (c *client) MViewStats(name string) (MViewStats, error) {
	rv, err := c.views.get(name)
	if err != nil {
		return MViewStats{}, err
	}
	return rv.view.Stats(), nil
}

// serve answers a declarative aggregate query from a matching view, if
// one is registered: same table, group, key range and group prefix,
// maintaining the requested aggregate, with ts compatible with the
// view's watermark (0 = latest). ok reports whether a view answered.
func (vs *viewSet) serve(table, group string, kind AggKind, start, end []byte, ts int64, groupPrefix int) (QueryResult, bool) {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	for _, rv := range vs.views {
		if rv.broken() != nil {
			continue
		}
		sp := rv.view.Spec()
		if sp.Table != table || sp.Group != group || sp.GroupPrefix != groupPrefix {
			continue
		}
		if !bytes.Equal(sp.Start, start) || !bytes.Equal(sp.End, end) {
			continue
		}
		res, ok := rv.view.ResultFor(kind, ts)
		if !ok {
			continue
		}
		if vs.served != nil {
			vs.served.Inc()
		}
		return res, true
	}
	return QueryResult{}, false
}
