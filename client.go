package logbase

// One Store, written once, over one architecture. ClusterClient
// implements every Store method in front of a cluster — context checks,
// option resolution and snapshot pinning, the root span of each
// request's trace, iterator plumbing, write batches, the transaction
// adapter, statement execution, materialized views, changefeeds,
// retention and the admin fan-out — routing each request through a
// pooled cluster.Client. Open's embedded *DB is the same client in
// front of a one-server cluster, so the two deployments cannot drift
// apart.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/txn"
)

// ClusterClient is the Store over a cluster, plus the uniform admin
// surface. The low-level cluster.Client caches routing metadata and is
// single-goroutine by design; ClusterClient keeps a pool of them, so it
// is safe for concurrent use.
type ClusterClient struct {
	c     *Cluster
	pool  sync.Pool // of *cluster.Client
	kind  string    // "embedded" or "cluster": the backend label on root spans
	views viewSet
}

var _ Store = (*ClusterClient)(nil)

// NewClusterClient puts the Store client in front of a cluster.
func NewClusterClient(c *Cluster) *ClusterClient {
	cc := &ClusterClient{c: c, kind: "cluster"}
	cc.pool.New = func() any { return c.NewClient() }
	return cc
}

// Cluster returns the underlying deployment (failover controls, stats).
func (cc *ClusterClient) Cluster() *Cluster { return cc.c }

// Metrics returns the registry holding the engine's counters, gauges
// and latency histograms, shared by every tablet server under a
// {server} label. Serve it over HTTP with obs.Handler /
// obs.ListenAndServeMetrics.
func (cc *ClusterClient) Metrics() *obs.Registry { return cc.c.Metrics() }

// Tracer returns the request tracer, or nil when the deployment was
// started without a SlowOpLog.
func (cc *ClusterClient) Tracer() *obs.Tracer { return cc.c.Tracer() }

// root opens the request's trace: one store.<op> span family on both
// deployments, told apart by the backend label. With tracing off it
// returns (ctx, nil) without allocating.
func (cc *ClusterClient) root(ctx context.Context, op, table string) (context.Context, *obs.Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := cc.c.Tracer().Root(ctx, op)
	sp.Label("backend", cc.kind)
	sp.Label("table", table)
	return ctx, sp
}

// routed runs op on a pooled routing client with the request's root
// span parked on it, so stale-routing retries annotate the trace.
func (cc *ClusterClient) routed(ctx context.Context, op func(cl *cluster.Client) error) error {
	cl := cc.pool.Get().(*cluster.Client)
	cl.SetSpan(obs.FromContext(ctx))
	err := op(cl)
	cl.SetSpan(nil)
	cc.pool.Put(cl)
	return err
}

// ctxErr normalises a possibly-nil context's error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// CreateTable declares a table with its column groups, one tablet per
// server (use Cluster.CreateTable for explicit tablet counts).
// Idempotent, including under concurrent callers.
func (cc *ClusterClient) CreateTable(name string, groups ...string) error {
	if len(groups) == 0 {
		return errors.New("logbase: a table needs at least one column group")
	}
	return cc.c.CreateTable(cluster.TableSpec{Name: name, Groups: groups})
}

// Put writes a row version (auto-commit, durable on return); the
// version timestamp comes from the deployment's timestamp authority.
func (cc *ClusterClient) Put(ctx context.Context, table, group string, key, value []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	ctx, sp := cc.root(ctx, "store.put", table)
	defer sp.Finish()
	return cc.routed(ctx, func(cl *cluster.Client) error { return cl.Put(table, group, key, value) })
}

// Delete removes a row (persisting an invalidation record).
func (cc *ClusterClient) Delete(ctx context.Context, table, group string, key []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	ctx, sp := cc.root(ctx, "store.delete", table)
	defer sp.Finish()
	return cc.routed(ctx, func(cl *cluster.Client) error { return cl.Delete(table, group, key) })
}

// Read is the unified point read: the visible version of the row
// (latest, or pinned with WithSnapshot), or — with WithAllVersions —
// its version history, oldest first (newest first with WithReverse),
// optionally limited and value-filtered. All options are evaluated
// inside the tablet server. A read pinned with WithSnapshot may be
// served by a caught-up replica; an unpinned one always hits the
// primary (read-your-writes).
func (cc *ClusterClient) Read(ctx context.Context, table, group string, key []byte, opts ...ReadOption) ([]Row, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ctx, sp := cc.root(ctx, "store.read", table)
	defer sp.Finish()
	return cc.read(ctx, table, group, key, resolveReadOptions(opts))
}

func (cc *ClusterClient) read(ctx context.Context, table, group string, key []byte, ro ReadOptions) (rows []Row, err error) {
	err = cc.routed(ctx, func(cl *cluster.Client) error {
		rows, err = cl.Read(table, group, key, ro)
		return err
	})
	return rows, err
}

// Get returns the latest version of a row: Read with no options.
func (cc *ClusterClient) Get(ctx context.Context, table, group string, key []byte) (Row, error) {
	rows, err := cc.Read(ctx, table, group, key)
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// Scan iterates the visible version of each key in [start, end) in key
// order (descending with WithReverse); nil bounds are open. The scan
// runs against the snapshot current at the call (or the WithSnapshot
// timestamp) across every tablet the range spans; limits, filters and
// the prefix are evaluated inside the tablet servers, and the stream
// resumes by range through splits, moves and failovers. Always Close
// the iterator.
func (cc *ClusterClient) Scan(ctx context.Context, table, group string, start, end []byte, opts ...ReadOption) Iterator {
	ro := cc.pinned(opts)
	if ro.BatchSize <= 0 {
		// One fetch/hand-off granularity: the tablet server reads ahead at
		// most one iterator batch.
		ro.BatchSize = defaultIterBatch
	}
	return newRowIter(ctx, func(ctx context.Context, emit func([]Row) error) error {
		// The root span lives inside the producer so it covers the whole
		// streamed scan (the Scan call itself returns immediately); every
		// per-tablet server scan and its WAL reads hang off it via ctx.
		ctx, sp := cc.root(ctx, "store.scan", table)
		defer sp.Finish()
		return cc.scan(ctx, table, group, start, end, ro, emit)
	})
}

// scan streams the rows of [start, end) visible at the pinned ro to
// emit in batches.
func (cc *ClusterClient) scan(ctx context.Context, table, group string, start, end []byte, ro ReadOptions, emit func([]Row) error) error {
	return cc.routed(ctx, func(cl *cluster.Client) error {
		return batched(emit, ro.Limit, func(fn func(Row) bool) error {
			return cl.ScanOpts(ctx, table, group, start, end, ro, fn)
		})
	})
}

// FullScan iterates every live row in log order (the batch-analytics
// path), tablet by tablet, with push-down options evaluated in each
// server's log sweep (WithReverse is ignored: the contract is log
// order). Always Close the iterator.
func (cc *ClusterClient) FullScan(ctx context.Context, table, group string, opts ...ReadOption) Iterator {
	ro := cc.pinned(opts)
	return newRowIter(ctx, func(ctx context.Context, emit func([]Row) error) error {
		ctx, sp := cc.root(ctx, "store.fullscan", table)
		defer sp.Finish()
		return cc.routed(ctx, func(cl *cluster.Client) error {
			return batched(emit, ro.Limit, func(fn func(Row) bool) error {
				return cl.FullScanOpts(ctx, table, group, ro, fn)
			})
		})
	})
}

// pinned resolves a scan's options and pins its snapshot now, so the
// stream is one consistent version set however long it runs. Pinning
// also makes the scan replica-eligible: a watermark at or above the
// pin means the replica's state at the pin is identical to the
// primary's, the caller's own earlier writes included.
func (cc *ClusterClient) pinned(opts []ReadOption) ReadOptions {
	ro := resolveReadOptions(opts)
	ro.Snapshot = cc.pinTS(ro.Snapshot)
	return ro
}

// pinTS resolves a snapshot timestamp: 0 means now, the newest issued
// commit timestamp.
func (cc *ClusterClient) pinTS(ts int64) int64 {
	if ts == 0 {
		return cc.c.Coord().LastTimestamp()
	}
	return ts
}

// Batch returns an empty WriteBatch bound to this store: flushing it
// routes every buffered mutation to its owning tablet server and
// applies them as one append sweep per server — the bulk-load path.
func (cc *ClusterClient) Batch() *WriteBatch { return &WriteBatch{cc: cc} }

// Watch subscribes a changefeed over table: committed Put/Delete events
// for keys in [start, end) (nil bounds = open; group "" = all column
// groups). The feed merges every tablet server's feed, each key's
// events in commit-timestamp order, across splits, migrations and
// failovers; per-server LSN spaces are not comparable, so fromLSN must
// be 0 (a DB, whose one server has one log, resumes by LSN). Cancel via
// ctx or Close.
func (cc *ClusterClient) Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64) (ChangeFeed, error) {
	return cc.watch(ctx, table, func(ctx context.Context) (ChangeFeed, error) {
		if fromLSN != 0 {
			return nil, errors.New("logbase: cluster changefeeds are not LSN-addressable; Watch with fromLSN 0 and dedupe by event TS")
		}
		return cc.c.Watch(ctx, table, group, start, end)
	})
}

// watch opens a changefeed with subscribe under the request's root
// span.
func (cc *ClusterClient) watch(ctx context.Context, table string, subscribe func(context.Context) (ChangeFeed, error)) (ChangeFeed, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ctx, sp := cc.root(ctx, "store.watch", table)
	defer sp.Finish()
	return subscribe(ctx)
}

// SetRetention installs a per-table retention policy on every tablet
// server and every read replica (one started later inherits it),
// enforced by compaction, including the auto-compactor: keep the newest
// KeepVersions per key, drop versions older than KeepFor, or both. A
// table without a policy, or with the zero policy, keeps everything.
func (cc *ClusterClient) SetRetention(table string, p RetentionPolicy) error {
	if _, err := cc.c.Router(table); err != nil {
		return err
	}
	// Primaries first, then a fresh look at the replica sets: a replica
	// started concurrently either is listed by the second pass or copies
	// the policy from its primary (Cluster.StartReplica).
	for _, id := range cc.c.LiveServers() {
		cc.c.Server(id).SetRetention(table, p)
	}
	for _, id := range cc.c.LiveServers() {
		for _, r := range cc.c.Replicas(id) {
			r.SetRetention(table, p)
		}
	}
	return nil
}

// Close stops the materialized-view feeds and releases the
// deployment's background resources (replicas, auto-compaction loops,
// open changefeeds). Data is already durable — appends are synchronous
// — so Close never loses writes. The store is not usable afterwards.
func (cc *ClusterClient) Close() error {
	cc.views.closeAll()
	return cc.c.Close()
}

// --- secondary indexes ------------------------------------------------

// Extractor derives a secondary-index key from a row's value; nil means
// "don't index this row".
type Extractor = core.Extractor

// RegisterSecondaryIndex creates a secondary index over a table's
// column group on every owning tablet server (the paper's §5
// future-work extension): rows become findable by an extracted
// attribute at the cost of one extra in-memory index per tablet, with
// lookups costing an index descent plus batched log reads of the
// matches. Existing rows are backfilled; see
// Cluster.RegisterSecondaryIndex.
func (cc *ClusterClient) RegisterSecondaryIndex(name, table, group string, extract Extractor) error {
	return cc.c.RegisterSecondaryIndex(name, table, group, extract)
}

// LookupSecondary returns rows whose extracted attribute equals
// secKey, in primary-key order, gathered from all tablet servers.
func (cc *ClusterClient) LookupSecondary(name string, secKey []byte) (rows []Row, err error) {
	err = cc.routed(context.Background(), func(cl *cluster.Client) error {
		rows, err = cl.LookupSecondary(name, secKey)
		return err
	})
	return rows, err
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key) cluster-wide.
func (cc *ClusterClient) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	return cc.routed(context.Background(), func(cl *cluster.Client) error {
		return cl.ScanSecondaryRange(name, start, end, fn)
	})
}

// --- transactions -----------------------------------------------------

// Txn is a snapshot-isolation transaction over a Store; it implements
// Tx by resolving table-addressed keys to the tablets the transaction
// manager works in.
type Txn struct {
	cc *ClusterClient
	t  *txn.Txn
}

var _ Tx = (*Txn)(nil)

// Begin starts a cluster-wide snapshot-isolation transaction.
func (cc *ClusterClient) Begin(ctx context.Context) Tx {
	return &Txn{cc: cc, t: cc.c.TxnManager().Begin()}
}

// tabletFor resolves a key to its tablet id: transactions address
// tablets.
func (tx *Txn) tabletFor(table string, key []byte) (tab string, err error) {
	err = tx.cc.routed(context.Background(), func(cl *cluster.Client) error {
		tab, err = cl.TabletFor(table, key)
		return err
	})
	return tab, err
}

// Get reads a row at the transaction snapshot.
func (tx *Txn) Get(ctx context.Context, table, group string, key []byte) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tab, err := tx.tabletFor(table, key)
	if err != nil {
		return nil, err
	}
	return tx.t.Get(tab, group, key)
}

// Put buffers a transactional write.
func (tx *Txn) Put(table, group string, key, value []byte) error {
	tab, err := tx.tabletFor(table, key)
	if err != nil {
		return err
	}
	return tx.t.Put(tab, group, key, value)
}

// Delete buffers a transactional delete.
func (tx *Txn) Delete(table, group string, key []byte) error {
	tab, err := tx.tabletFor(table, key)
	if err != nil {
		return err
	}
	return tx.t.Delete(tab, group, key)
}

// Scan streams snapshot-visible rows in [start, end), tablet by tablet
// in key order, until fn returns false.
func (tx *Txn) Scan(ctx context.Context, table, group string, start, end []byte, fn func(Row) bool) error {
	router, err := tx.cc.c.Router(table)
	if err != nil {
		return err
	}
	more := true
	for _, tab := range router.Overlapping(start, end) {
		err := tx.t.Scan(ctx, tab.ID, group, start, end, func(r Row) bool {
			more = fn(r)
			return more
		})
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// Commit validates and commits; ErrConflict means retry.
func (tx *Txn) Commit(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return tx.t.Commit()
}

// Abort discards the transaction.
func (tx *Txn) Abort() { tx.t.Abort() }

// --- admin ------------------------------------------------------------
//
// Every admin call fans out over the live tablet servers (one for a
// DB) in id order.

// Checkpoint writes every tablet server's recovery checkpoint: its
// in-memory indexes and the log position redo starts from, one file per
// server.
func (cc *ClusterClient) Checkpoint() error {
	for _, id := range cc.c.LiveServers() {
		if err := cc.c.Server(id).Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Compact vacuums every tablet server's log: obsolete versions, deleted
// rows and uncommitted transactional writes are dropped, survivors
// re-clustered by (table, group, key, timestamp). The returned stats
// are summed over the servers. With AutoCompact enabled this is rarely
// needed — the background compactor keeps the log clustered
// incrementally.
func (cc *ClusterClient) Compact() (core.CompactionStats, error) {
	var sum core.CompactionStats
	for _, id := range cc.c.LiveServers() {
		st, err := cc.c.Server(id).Compact()
		if err != nil {
			return sum, err
		}
		sum.RecordsIn += st.RecordsIn
		sum.RecordsKept += st.RecordsKept
		sum.Dropped += st.Dropped
		sum.SegmentsIn += st.SegmentsIn
		sum.SegmentsOut += st.SegmentsOut
		sum.BytesReclaimed += st.BytesReclaimed
	}
	return sum, nil
}

// Scrub verifies every tablet server's log segments against all DFS
// replicas (record frames and sorted-segment footer CRCs), repairs
// corrupt replica blocks from a healthy peer, and reports ranges where
// every replica is corrupt — one report per server. The first I/O error
// aborts the sweep; corruption findings are in the reports, not the
// error. A second Scrub after a repair pass reports zero defects.
func (cc *ClusterClient) Scrub() ([]ScrubReport, error) {
	var out []ScrubReport
	for _, id := range cc.c.LiveServers() {
		rep, err := cc.c.Server(id).Scrub()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Stats returns one mutually-consistent counter snapshot per tablet
// server (see core.StatsView).
func (cc *ClusterClient) Stats() []core.StatsView {
	var out []core.StatsView
	for _, id := range cc.c.LiveServers() {
		out = append(out, cc.c.Server(id).StatsView())
	}
	return out
}

// ReplicaStats snapshots every read replica's shipping state (applied
// cursor, lag, watermark, reads served), keyed by primary server id;
// servers without replicas have no entry.
func (cc *ClusterClient) ReplicaStats() map[string][]ReplicaStats {
	out := make(map[string][]ReplicaStats)
	for _, id := range cc.c.LiveServers() {
		for _, r := range cc.c.Replicas(id) {
			out[id] = append(out[id], r.Stats())
		}
	}
	return out
}
