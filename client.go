package logbase

// One Store, written once. A deployment supplies a small primitive set
// (backend); client implements every Store method on top of it: context
// checks, option resolution and snapshot pinning, the root span of each
// request's trace, iterator plumbing, write batches, the transaction
// adapter, statement execution, materialized views, changefeeds,
// retention and the admin fan-out. *DB and *ClusterClient embed a
// client and add only what is genuinely theirs (Reopen/Recover/
// StartReplica on one, Cluster on the other), so neither declares a
// Store method and the two deployments cannot drift apart.

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/txn"
)

// backend is what a deployment provides. There are exactly two: *DB
// (one embedded tablet server and its StartReplica set) and
// *ClusterClient (the pooled cluster routing client). The exported
// methods pass straight through to the public surface of both; the
// unexported ones are the primitives client composes. A primitive's ctx
// carries the request's root span (obs.FromContext) and is never nil.
type backend interface {
	// Metrics returns the registry holding the engine's counters,
	// gauges and latency histograms (on a cluster, shared by every
	// tablet server under a {server} label). Serve it over HTTP with
	// obs.Handler / obs.ListenAndServeMetrics.
	Metrics() *obs.Registry
	// RegisterSecondaryIndex creates a secondary index over a column
	// group (the paper's §5 future-work extension): rows become
	// findable by an extracted attribute at the cost of one extra
	// in-memory index per tablet, with lookups costing an index descent
	// plus batched log reads of the matches. Existing rows are backfilled.
	RegisterSecondaryIndex(name, table, group string, extract Extractor) error
	// LookupSecondary returns rows whose extracted attribute equals
	// secKey, in primary-key order.
	LookupSecondary(name string, secKey []byte) ([]Row, error)
	// ScanSecondaryRange streams rows whose extracted attribute falls in
	// [start, end), ordered by (attribute, primary key).
	ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error

	createTable(name string, groups []string) error
	// lastTS is the newest issued commit timestamp: "now" for a pin.
	lastTS() int64
	put(ctx context.Context, table, group string, key, value []byte) error
	del(ctx context.Context, table, group string, key []byte) error
	// applyBatch persists ops as one append sweep per tablet server; on
	// error it reports the indices of ops that were NOT durably applied
	// (nil = none were), so a retried Flush never re-applies mutations
	// that already landed.
	applyBatch(ctx context.Context, ops []batchOp) ([]int, error)
	// read, scan and fullScan evaluate ro at the owning tablet server —
	// or at a read replica whose watermark covers ro.Snapshot. The scans
	// arrive pinned (ro.Snapshot != 0) and stream row batches to emit.
	read(ctx context.Context, table, group string, key []byte, ro ReadOptions) ([]Row, error)
	scan(ctx context.Context, table, group string, start, end []byte, ro ReadOptions, emit func([]Row) error) error
	fullScan(ctx context.Context, table, group string, ro ReadOptions, emit func([]Row) error) error
	// aggregate is the partial fetch strategy: every tablet server
	// holding a piece of f's key range folds its rows under f at snapshot
	// ts, and the mergeable partials are merged.
	aggregate(ctx context.Context, table, group string, ts int64, f query.RelFilter, fold query.Fold) (QueryResult, error)
	watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64, o WatchOptions) (ChangeFeed, error)
	beginTxn() *txn.Txn
	// tabletFor and tabletsIn resolve a key, or the key range
	// [start, end) in key order, to tablet ids — transactions address
	// tablets. An empty group names the table as a whole.
	tabletFor(table, group string, key []byte) (string, error)
	tabletsIn(table, group string, start, end []byte) ([]string, error)
	// servers lists every live tablet server with its read replicas, in
	// server-id order — the admin fan-out.
	servers() []serverSet
	close() error
}

// serverSet is one tablet server and its read replicas.
type serverSet struct {
	srv      *core.Server
	replicas []*repl.Replica
}

// client is the one implementation of Store (plus the uniform admin
// surface), shared by both deployments. Safe for concurrent use.
type client struct {
	backend
	kind   string      // "embedded" or "cluster": the backend label on root spans
	tracer *obs.Tracer // nil = tracing off
	views  viewSet
}

var _ Store = (*client)(nil)

// root opens the request's trace: one store.<op> span family on both
// backends, told apart by the backend label. With tracing off it
// returns (ctx, nil) without allocating.
func (c *client) root(ctx context.Context, op, table string) (context.Context, *obs.Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := c.tracer.Root(ctx, op)
	sp.Label("backend", c.kind)
	sp.Label("table", table)
	return ctx, sp
}

// ctxErr normalises a possibly-nil context's error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Tracer returns the request tracer, or nil when the deployment was
// opened without a SlowOpLog.
func (c *client) Tracer() *obs.Tracer { return c.tracer }

// CreateTable declares a table with its column groups (on a cluster,
// one tablet per server — use Cluster.CreateTable for explicit tablet
// counts). Idempotent, including under concurrent callers.
func (c *client) CreateTable(name string, groups ...string) error {
	if len(groups) == 0 {
		return errors.New("logbase: a table needs at least one column group")
	}
	return c.createTable(name, groups)
}

// Put writes a row version (auto-commit, durable on return); the
// version timestamp comes from the deployment's timestamp authority.
func (c *client) Put(ctx context.Context, table, group string, key, value []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	ctx, sp := c.root(ctx, "store.put", table)
	defer sp.Finish()
	return c.put(ctx, table, group, key, value)
}

// Delete removes a row (persisting an invalidation record).
func (c *client) Delete(ctx context.Context, table, group string, key []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	ctx, sp := c.root(ctx, "store.delete", table)
	defer sp.Finish()
	return c.del(ctx, table, group, key)
}

// Read is the unified point read: the visible version of the row
// (latest, or pinned with WithSnapshot), or — with WithAllVersions —
// its version history, oldest first (newest first with WithReverse),
// optionally limited and value-filtered. All options are evaluated
// inside the tablet server. A read pinned with WithSnapshot may be
// served by a caught-up replica; an unpinned one always hits the
// primary (read-your-writes).
func (c *client) Read(ctx context.Context, table, group string, key []byte, opts ...ReadOption) ([]Row, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ctx, sp := c.root(ctx, "store.read", table)
	defer sp.Finish()
	return c.read(ctx, table, group, key, resolveReadOptions(opts))
}

// Get returns the latest version of a row: Read with no options.
func (c *client) Get(ctx context.Context, table, group string, key []byte) (Row, error) {
	rows, err := c.Read(ctx, table, group, key)
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
func (c *client) Scan(ctx context.Context, table, group string, start, end []byte, opts ...ReadOption) Iterator {
	ro := c.pinned(opts)
	if ro.BatchSize <= 0 {
		// One fetch/hand-off granularity on both backends: the tablet
		// server reads ahead at most one iterator batch.
		ro.BatchSize = defaultIterBatch
	}
	return newRowIter(ctx, func(ctx context.Context, emit func([]Row) error) error {
		// The root span lives inside the producer so it covers the whole
		// streamed scan (the Scan call itself returns immediately); every
		// per-tablet server scan and its WAL reads hang off it via ctx.
		ctx, sp := c.root(ctx, "store.scan", table)
		defer sp.Finish()
		return c.scan(ctx, table, group, start, end, ro, emit)
	})
}

// FullScan iterates every live row in log order (the batch-analytics
// path), tablet by tablet, with push-down options evaluated in each
// server's log sweep (WithReverse is ignored: the contract is log
// order). Always Close the iterator.
func (c *client) FullScan(ctx context.Context, table, group string, opts ...ReadOption) Iterator {
	ro := c.pinned(opts)
	return newRowIter(ctx, func(ctx context.Context, emit func([]Row) error) error {
		ctx, sp := c.root(ctx, "store.fullscan", table)
		defer sp.Finish()
		return c.fullScan(ctx, table, group, ro, emit)
	})
}

// pinned resolves a scan's options and pins its snapshot now, so the
// stream is one consistent version set however long it runs. Pinning
// also makes the scan replica-eligible: a watermark at or above the
// pin means the replica's state at the pin is identical to the
// primary's, the caller's own earlier writes included.
func (c *client) pinned(opts []ReadOption) ReadOptions {
	ro := resolveReadOptions(opts)
	ro.Snapshot = c.pinTS(ro.Snapshot)
	return ro
}

// pinTS resolves a snapshot timestamp: 0 means now.
func (c *client) pinTS(ts int64) int64 {
	if ts == 0 {
		return c.lastTS()
	}
	return ts
}

// Batch returns an empty WriteBatch bound to this store: flushing it
// routes every buffered mutation to its owning tablet server and
// applies them as one append sweep per server — the bulk-load path.
func (c *client) Batch() *WriteBatch { return &WriteBatch{b: c.backend} }

// Watch subscribes a changefeed over table: committed Put/Delete events
// for keys in [start, end) (nil bounds = open; group "" = all column
// groups). On the embedded backend events arrive in LSN order and
// fromLSN > 0 resumes after a previously observed cursor (pass
// cursor+1). A cluster feed merges every tablet server's feed, each
// key's events in commit-timestamp order, across splits, migrations and
// failovers; per-server LSN spaces are not comparable, so there fromLSN
// must be 0. Cancel via ctx or Close.
func (c *client) Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64, opts ...WatchOptions) (ChangeFeed, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var o WatchOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	ctx, sp := c.root(ctx, "store.watch", table)
	defer sp.Finish()
	return c.watch(ctx, table, group, start, end, fromLSN, o)
}

// SetRetention installs a per-table retention policy on every tablet
// server and every read replica (one started later inherits it),
// enforced by compaction, including the auto-compactor: keep the newest
// KeepVersions per key, drop versions older than KeepFor, or both. A
// table without a policy, or with the zero policy, keeps everything.
func (c *client) SetRetention(table string, p RetentionPolicy) error {
	if _, err := c.tabletsIn(table, "", nil, nil); err != nil {
		return err
	}
	// Primaries first, then a fresh look at the replica sets: a replica
	// started concurrently either is listed by the second pass or copies
	// the policy from its primary (DB.StartReplica).
	for _, s := range c.servers() {
		s.srv.SetRetention(table, p)
	}
	for _, s := range c.servers() {
		for _, r := range s.replicas {
			r.SetRetention(table, p)
		}
	}
	return nil
}

// Close stops the materialized-view feeds and releases the
// deployment's background resources (replicas, auto-compaction loops,
// open changefeeds). Data is already durable — appends are synchronous
// — so Close never loses writes. The store is not usable afterwards.
func (c *client) Close() error {
	c.views.closeAll()
	return c.close()
}

// --- transactions -----------------------------------------------------

// Txn is a snapshot-isolation transaction over a Store; it implements
// Tx by resolving table-addressed keys to the tablets the transaction
// manager works in.
type Txn struct {
	b backend
	t *txn.Txn
}

var _ Tx = (*Txn)(nil)

// Begin starts a snapshot-isolation transaction (cluster-wide on a
// cluster).
func (c *client) Begin(ctx context.Context) Tx { return &Txn{b: c.backend, t: c.beginTxn()} }

// Get reads a row at the transaction snapshot.
func (tx *Txn) Get(ctx context.Context, table, group string, key []byte) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	tab, err := tx.b.tabletFor(table, group, key)
	if err != nil {
		return nil, err
	}
	return tx.t.Get(tab, group, key)
}

// Put buffers a transactional write.
func (tx *Txn) Put(table, group string, key, value []byte) error {
	tab, err := tx.b.tabletFor(table, group, key)
	if err != nil {
		return err
	}
	return tx.t.Put(tab, group, key, value)
}

// Delete buffers a transactional delete.
func (tx *Txn) Delete(table, group string, key []byte) error {
	tab, err := tx.b.tabletFor(table, group, key)
	if err != nil {
		return err
	}
	return tx.t.Delete(tab, group, key)
}

// Scan streams snapshot-visible rows in [start, end), tablet by tablet
// in key order, until fn returns false.
func (tx *Txn) Scan(ctx context.Context, table, group string, start, end []byte, fn func(Row) bool) error {
	tabs, err := tx.b.tabletsIn(table, group, start, end)
	if err != nil {
		return err
	}
	more := true
	for _, tab := range tabs {
		err := tx.t.Scan(ctx, tab, group, start, end, func(r Row) bool {
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
// The admin surface is the same on both backends: every call fans out
// over the live tablet servers (one for an embedded DB) in id order.

// Checkpoint writes every tablet server's recovery checkpoint: its
// in-memory indexes and the log position redo starts from, one file per
// server.
func (c *client) Checkpoint() error {
	for _, s := range c.servers() {
		if err := s.srv.Checkpoint(); err != nil {
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
func (c *client) Compact() (core.CompactionStats, error) {
	var sum core.CompactionStats
	for _, s := range c.servers() {
		st, err := s.srv.Compact()
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
func (c *client) Scrub() ([]ScrubReport, error) {
	var out []ScrubReport
	for _, s := range c.servers() {
		rep, err := s.srv.Scrub()
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Stats returns one mutually-consistent counter snapshot per tablet
// server (see core.StatsView).
func (c *client) Stats() []core.StatsView {
	var out []core.StatsView
	for _, s := range c.servers() {
		out = append(out, s.srv.StatsView())
	}
	return out
}

// ReplicaStats snapshots every read replica's shipping state (applied
// cursor, lag, watermark, reads served), keyed by primary server id;
// servers without replicas have no entry.
func (c *client) ReplicaStats() map[string][]ReplicaStats {
	out := make(map[string][]ReplicaStats)
	for _, s := range c.servers() {
		for _, r := range s.replicas {
			out[s.srv.ID()] = append(out[s.srv.ID()], r.Stats())
		}
	}
	return out
}
