// Package logbase is a Go reproduction of "LogBase: A Scalable
// Log-structured Database System in the Cloud" (Vo, Wang, Agrawal,
// Chen, Ooi — PVLDB 5(10), 2012).
//
// LogBase is a log-only database engine: the write-ahead log is the
// only data repository. Writes are a single sequential append; reads go
// through dense in-memory multiversion indexes pointing into the log;
// deletes persist invalidation records; periodic compaction re-clusters
// the log; checkpoints bound recovery to an index reload plus a short
// redo of the log tail. Transactions spanning records and servers get
// snapshot isolation through multiversion optimistic concurrency
// control with write locks acquired at validation.
//
// # The Store interface
//
// One engine, two deployments, one client. The layering is client →
// backend → tablet server:
//
//   - Store (store.go) is the client contract: CreateTable, Put, Get /
//     Read, Delete, Scan / FullScan, Exec, Watch, materialized views,
//     retention, transactions (Begin / RunTx), WriteBatch, Close.
//   - client (client.go) implements it exactly once — context checks,
//     option resolution and snapshot pinning, one trace root per request,
//     iterators, statement execution, views — on top of a small backend
//     primitive set.
//   - There are two backends. Open returns an embedded single-server
//     *DB — the quickest way to use the engine as a library.
//     NewCluster starts a simulated multi-server deployment (tablet
//     servers over a replicated DFS with a master and failover), the
//     configuration the paper evaluates at 3–24 nodes; NewClusterClient
//     puts the same client in front of it.
//
// Code written against Store — harnesses, examples, protocol servers —
// runs unmodified on either backend. Every method takes a
// context.Context: cancellation and deadlines propagate down into the
// tablet-server scan loops and the cluster scatter-gather, so a slow
// analytical read can be abandoned mid-flight without leaking
// goroutines. Range and full scans return a pull-based Iterator
// (Next/Row/Err/Close) and accept composable push-down ReadOption
// values — limits, reverse order, snapshot pinning, prefixes, and a
// serializable key/value predicate set — all evaluated inside the
// tablet server so only the rows the caller consumes cross the wire;
// Read takes the same options for point reads (a version as of a
// timestamp, a key's whole history). Bulk loads go through WriteBatch,
// which buffers mutations and flushes them as one group append sweep
// through the log instead of one durable append per record.
//
// Analytical queries run on the same log: because every committed
// version stays addressable, Exec runs a Statement (build with Q) —
// select push-down, COUNT/SUM/MIN/MAX/AVG with grouping, multi-table
// equi-joins — pinned at one timestamp (Statement.At travels in time),
// with partial aggregation at every tablet server owning a piece of
// the table. See statement.go and internal/query for the executor.
//
// The underlying substrates (DFS, log repository, B-link multiversion
// index, LSM-tree, coordination service) live in internal/ packages;
// this package is the supported surface.
package logbase

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/txn"
)

// ErrNotFound is returned when a key or version does not exist.
var ErrNotFound = core.ErrNotFound

// ErrConflict is returned when a transaction loses first-committer-wins
// validation; retry the transaction (or use RunTx).
var ErrConflict = txn.ErrConflict

// Row is one record version.
type Row = core.Row

// Options configures an embedded DB.
type Options struct {
	// SegmentSize is the log segment rotation size (default 64 MB).
	SegmentSize int64
	// ReadCacheBytes bounds the optional read buffer; 0 disables it.
	ReadCacheBytes int64
	// GroupCommit batches concurrent log appends: writers that arrive
	// during a log write share the next one; a lone writer never waits.
	GroupCommit bool
	// GroupCommitBatch caps the records one log write carries (0 = 64
	// records).
	GroupCommitBatch int
	// CompactKeepVersions bounds versions kept per key at compaction;
	// 0 keeps all committed versions.
	CompactKeepVersions int
	// AutoCompact paces the background incremental compactor: unsorted
	// tail segments and segments whose garbage ratio crosses
	// AutoCompact.GarbageRatio are rewritten into sorted, footed
	// segments every AutoCompact.Interval (zero interval disables the
	// loop). This is what keeps the clustered scan fast path engaged
	// under sustained write+scan load without manual Compact calls.
	AutoCompact AutoCompactConfig
	// IndexFlushUpdates triggers an index-file merge after this many
	// updates per column group (0 = only explicit checkpoints).
	IndexFlushUpdates int64
	// Replication is the DFS replication factor (default 3, clamped to
	// DataNodes).
	Replication int
	// DataNodes is the simulated DFS size (default 3).
	DataNodes int
	// Metrics, when set, is the registry the engine registers its
	// counters, gauges, and latency histograms into (nil = the DB creates
	// a private registry, reachable via DB.Metrics).
	Metrics *obs.Registry
	// DisableMetrics turns off hot-path latency recording. Scrape-time
	// gauges over the existing atomic counters stay registered — they
	// cost the request paths nothing.
	DisableMetrics bool
	// SlowOpLog, when set, receives one rendered trace tree per traced
	// operation whose root span took at least SlowOpThreshold (zero
	// threshold = every traced op). Enabling it turns on request
	// tracing; leaving it nil keeps tracing completely off.
	SlowOpLog func(tree string)
	// SlowOpThreshold is the minimum root-span duration for emission to
	// SlowOpLog.
	SlowOpThreshold time.Duration
	// Faults, when set, is the deterministic fault-injection registry
	// threaded through the simulated disks, DFS block I/O, WAL and the
	// engine's crash points (see internal/fault). Nil disables every
	// hook — the production path.
	Faults *fault.Registry
}

// DB is an embedded single-server LogBase instance: the client over
// the embedded backend — one tablet server, one whole-keyspace tablet
// per table, plus any StartReplica standbys. Every Store method and the
// admin surface come from the embedded client; what is declared here is
// the backend and the embedded-only extras (Reopen, Recover, replicas,
// incremental compaction, storage gauges). Safe for concurrent use
// (including CreateTable racing reads from other goroutines, e.g.
// concurrent protocol sessions).
type DB struct {
	client

	fs     *dfs.DFS
	svc    *coord.Service
	server *core.Server
	txns   *txn.Manager
	tmu    sync.RWMutex
	tables map[string]tableMeta
	opts   Options
	dir    string

	// rmu guards the read-replica set (logbase_repl.go); rrNext is the
	// round-robin routing counter, replicaSeq the id allocator.
	rmu        sync.RWMutex
	replicas   []*Replica
	replicaSeq int
	rrNext     atomic.Uint32
}

var _ backend = (*DB)(nil)

type tableMeta struct {
	tablet string
	groups []string
}

// Open creates (or reopens) an embedded DB rooted at dir. Reopening a
// directory with existing data requires declaring the same tables with
// CreateTable and then calling Recover.
func Open(dir string, opts Options) (*DB, error) {
	nodes := opts.DataNodes
	if nodes <= 0 {
		nodes = 3
	}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes:      nodes,
		ReplicationFactor: opts.Replication,
		BlockSize:         4 << 20,
		Faults:            opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	return openOn(fs, dir, opts)
}

func openOn(fs *dfs.DFS, dir string, opts Options) (*DB, error) {
	server, err := core.NewServer(fs, "embedded", core.Config{
		SegmentSize:         opts.SegmentSize,
		ReadCacheBytes:      opts.ReadCacheBytes,
		GroupCommit:         opts.GroupCommit,
		GroupCommitBatch:    opts.GroupCommitBatch,
		CompactKeepVersions: opts.CompactKeepVersions,
		IndexFlushUpdates:   opts.IndexFlushUpdates,
		AutoCompact:         opts.AutoCompact,
		Metrics:             opts.Metrics,
		DisableMetrics:      opts.DisableMetrics,
		Faults:              opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		fs:     fs,
		svc:    coord.New(),
		server: server,
		tables: make(map[string]tableMeta),
		opts:   opts,
		dir:    dir,
	}
	db.client = client{backend: db, kind: "embedded"}
	if opts.SlowOpLog != nil {
		db.tracer = &obs.Tracer{
			Threshold: opts.SlowOpThreshold,
			Sink:      opts.SlowOpLog,
			SlowOps:   server.Metrics().Counter("logbase_slow_ops_total", "traces emitted to the slow-op log", nil),
		}
	}
	db.txns = txn.NewManager(db.svc, txn.ResolverFunc(func(string) (*core.Server, error) {
		return db.server, nil
	}))
	return db, nil
}

// --- the embedded backend ---------------------------------------------

func (db *DB) createTable(name string, groups []string) error {
	db.tmu.Lock()
	defer db.tmu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil
	}
	spec := partition.Tablet{ID: name + "/0000", Table: name}
	db.server.AddTablet(spec, groups)
	db.tables[name] = tableMeta{tablet: spec.ID, groups: append([]string(nil), groups...)}
	db.rmu.RLock()
	for _, r := range db.replicas {
		r.AddTablet(spec, groups)
	}
	db.rmu.RUnlock()
	return nil
}

// table resolves a table (and, unless group is "", checks it has that
// column group) to its single whole-keyspace tablet.
func (db *DB) table(name, group string) (string, error) {
	db.tmu.RLock()
	tm, ok := db.tables[name]
	db.tmu.RUnlock()
	if !ok {
		return "", errors.New("logbase: unknown table " + name)
	}
	if group != "" && !slices.Contains(tm.groups, group) {
		return "", errors.New("logbase: table " + name + " has no column group " + group)
	}
	return tm.tablet, nil
}

func (db *DB) tabletFor(table, group string, _ []byte) (string, error) {
	return db.table(table, group)
}

func (db *DB) tabletsIn(table, group string, _, _ []byte) ([]string, error) {
	tab, err := db.table(table, group)
	return []string{tab}, err
}

func (db *DB) lastTS() int64 { return db.svc.LastTimestamp() }

func (db *DB) put(_ context.Context, table, group string, key, value []byte) error {
	tab, err := db.table(table, group)
	if err != nil {
		return err
	}
	return db.server.Write(tab, group, key, db.svc.NextTimestamp(), value)
}

func (db *DB) del(_ context.Context, table, group string, key []byte) error {
	tab, err := db.table(table, group)
	if err != nil {
		return err
	}
	return db.server.Delete(tab, group, key, db.svc.NextTimestamp())
}

// applyBatch persists ops through one atomic server append: on any
// error nothing was applied, so the nil index slice tells Flush to
// keep the whole batch for retry.
func (db *DB) applyBatch(_ context.Context, ops []batchOp) ([]int, error) {
	writes := make([]core.BatchWrite, len(ops))
	for i, op := range ops {
		tab, err := db.table(op.table, op.group)
		if err != nil {
			return nil, err
		}
		writes[i] = core.BatchWrite{
			Tablet: tab, Group: op.group, Key: op.key, Value: op.value,
			TS: db.svc.NextTimestamp(), Delete: op.delete,
		}
	}
	return nil, db.server.ApplyBatch(writes)
}

func (db *DB) read(_ context.Context, table, group string, key []byte, ro ReadOptions) ([]Row, error) {
	tab, err := db.table(table, group)
	if err != nil {
		return nil, err
	}
	return db.readServer(ro.Snapshot, ro).ReadRow(tab, group, key, ro)
}

func (db *DB) scan(ctx context.Context, table, group string, start, end []byte, ro ReadOptions, emit func([]Row) error) error {
	tab, err := db.table(table, group)
	if err != nil {
		return err
	}
	return db.readServer(ro.Snapshot, ro).ParallelScan(ctx, tab, group, core.ReadScanOptions(start, end, ro.Snapshot, ro), emit)
}

func (db *DB) fullScan(ctx context.Context, table, group string, ro ReadOptions, emit func([]Row) error) error {
	tab, err := db.table(table, group)
	if err != nil {
		return err
	}
	return batched(emit, func(fn func(Row) bool) error {
		return db.readServer(ro.Snapshot, ro).FullScanOpts(ctx, tab, group, ro, fn)
	})
}

func (db *DB) aggregate(ctx context.Context, table, group string, ts int64, f query.RelFilter, fold query.Fold) (QueryResult, error) {
	tab, err := db.table(table, group)
	if err != nil {
		return QueryResult{}, err
	}
	return query.FoldScan(ctx, db.readServer(ts, ReadOptions{}), []string{tab}, group, ts, f, fold)
}

func (db *DB) watch(_ context.Context, table, group string, start, end []byte, fromLSN uint64, o WatchOptions) (ChangeFeed, error) {
	if _, err := db.table(table, group); err != nil {
		return nil, err
	}
	return db.server.Watch(table, group, start, end, fromLSN, o)
}

func (db *DB) beginTxn() *txn.Txn { return db.txns.Begin() }

func (db *DB) servers() []serverSet {
	return []serverSet{{srv: db.server, replicas: db.Replicas()}}
}

// close stops the replicas, then the server: its auto-compaction loop
// is joined and open changefeeds are closed.
func (db *DB) close() error {
	db.rmu.Lock()
	reps := db.replicas
	db.replicas = nil
	db.rmu.Unlock()
	for _, r := range reps {
		r.Close()
	}
	return db.server.Close()
}

// Metrics returns the registry holding the engine's counters, gauges,
// and latency histograms (Options.Metrics, or the DB's private
// registry).
func (db *DB) Metrics() *obs.Registry { return db.server.Metrics() }

// Extractor derives a secondary-index key from a row's value; nil means
// "don't index this row".
type Extractor = core.Extractor

// RegisterSecondaryIndex creates a secondary index over a column group;
// see the backend interface.
func (db *DB) RegisterSecondaryIndex(name, table, group string, extract Extractor) error {
	tab, err := db.table(table, group)
	if err != nil {
		return err
	}
	return db.server.RegisterSecondaryIndex(name, tab, group, extract)
}

// LookupSecondary returns rows whose extracted attribute equals secKey,
// in primary-key order.
func (db *DB) LookupSecondary(name string, secKey []byte) ([]Row, error) {
	return db.server.LookupSecondary(name, secKey)
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key).
func (db *DB) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	return db.server.ScanSecondaryRange(name, start, end, fn)
}

// --- embedded-only extras ---------------------------------------------

// Reopen simulates a crash-restart over the same storage: in-memory
// state is discarded; call CreateTable for the schema and Recover to
// rebuild the indexes.
func (db *DB) Reopen() (*DB, error) { return openOn(db.fs, db.dir, db.opts) }

// Recover rebuilds in-memory state after Reopen: index files from the
// last checkpoint plus a redo of the log tail. The timestamp oracle is
// advanced past every restored commit so "latest" snapshot reads (e.g.
// unpinned scans) see the recovered data immediately.
func (db *DB) Recover() (core.RecoveryStats, error) {
	st, err := db.server.Recover()
	if err == nil {
		db.svc.AdvanceTo(st.MaxTS)
	}
	return st, err
}

// AutoCompactConfig tunes the background incremental compactor; see
// Options.AutoCompact.
type AutoCompactConfig = core.AutoCompactConfig

// CompactionInfo is the storage-layout observability snapshot: see
// DB.CompactionInfo and the STATS protocol command.
type CompactionInfo = core.CompactionInfo

// ScrubReport summarises one tablet server's Scrub pass; see
// core.ScrubReport.
type ScrubReport = core.ScrubReport

// CompactSegments rewrites only the given segments (incremental
// compaction): records still live per the in-memory indexes are
// re-clustered into fresh sorted segments and the inputs reclaimed,
// while reads and writes keep flowing.
func (db *DB) CompactSegments(nums []uint32) (core.CompactionStats, error) {
	return db.server.CompactSegments(nums)
}

// CompactionInfo reports cumulative compaction counters and the
// current segment layout (sorted fraction, per-segment garbage).
func (db *DB) CompactionInfo() CompactionInfo { return db.server.CompactionInfo() }

// SortedFraction is the fraction of live log bytes in sorted segments
// (1.0 = fully clustered; analytical scans are sequential reads).
func (db *DB) SortedFraction() float64 { return db.server.SortedFraction() }

// IndexMemBytes estimates in-memory index size (the paper budgets ~24
// bytes per entry).
func (db *DB) IndexMemBytes() int64 { return db.server.IndexMemBytes() }

// LogSize returns the live log size in bytes.
func (db *DB) LogSize() int64 { return db.server.Log().Size() }

// Server exposes the underlying tablet server for advanced use.
func (db *DB) Server() *core.Server { return db.server }

// Cluster re-exports the simulated multi-server deployment.
type Cluster = cluster.Cluster

// ClusterConfig configures a simulated cluster.
type ClusterConfig = cluster.Config

// TableSpec declares a table for a cluster.
type TableSpec = cluster.TableSpec

// Client is a low-level cluster routing client (one per goroutine).
// Most callers want NewClusterClient, the concurrency-safe Store
// wrapping a pool of these.
type Client = cluster.Client

// NewCluster starts a simulated multi-server LogBase deployment.
func NewCluster(dir string, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(dir, cfg)
}
