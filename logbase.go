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
// One engine, one architecture, one client. The layering is client →
// cluster → tablet server:
//
//   - Store (store.go) is the client contract: CreateTable, Put, Get /
//     Read, Delete, Scan / FullScan, Exec, Watch, materialized views,
//     retention, transactions (Begin / RunTx), WriteBatch, Close.
//   - ClusterClient (client.go) implements it exactly once — context
//     checks, option resolution and snapshot pinning, one trace root per
//     request, iterators, statement execution, views — routing every
//     request through the cluster's key router to the owning tablet
//     server.
//   - Every deployment is a cluster: tablet servers over a replicated
//     DFS with a master and failover (internal/cluster). NewCluster
//     starts one at the paper's 3–24 nodes and NewClusterClient puts the
//     client in front of it; Open starts a one-server cluster and
//     returns it as an embedded *DB — the quickest way to use the engine
//     as a library — which adds what one server's single log allows
//     (an LSN-resumable Watch, Reopen / Recover, replicas of the server,
//     storage gauges).
//
// Code written against Store — harnesses, examples, protocol servers —
// runs unmodified on a DB or a cluster of any size. Every method takes a
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
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/txn"
)

// ErrNotFound is returned when a key or version does not exist.
var ErrNotFound = core.ErrNotFound

// ErrKeyTooLong is returned for a write whose key is longer than
// 65,535 bytes; nothing of the write is stored.
var ErrKeyTooLong = core.ErrKeyTooLong

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
	// AutoCompactInterval paces the background incremental compactor:
	// unsorted tail segments and sorted segments that are at least 30 %
	// garbage are rewritten into sorted, footed segments, up to four per
	// run, every AutoCompactInterval (zero disables the loop). This is
	// what keeps the clustered scan fast path engaged under sustained
	// write+scan load without manual Compact calls.
	AutoCompactInterval time.Duration
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

// DB is an embedded LogBase instance: the Store client in front of a
// one-server cluster — one tablet server, one whole-keyspace tablet per
// table, plus any StartReplica standbys. Every Store method and the
// admin surface come from the embedded *ClusterClient; declared here
// are what a deployment with one server and so one log adds (an
// LSN-resumable Watch, Reopen, Recover, replicas of the server,
// incremental compaction, storage gauges). Safe for concurrent use.
type DB struct {
	*ClusterClient
}

// dbServer is the id of the one tablet server of a DB.
const dbServer = "ts00"

// Open creates (or reopens) an embedded DB rooted at dir. Reopening a
// directory with existing data requires declaring the same tables with
// CreateTable and then calling Recover.
func Open(dir string, opts Options) (*DB, error) {
	nodes := opts.DataNodes
	if nodes <= 0 {
		nodes = 3
	}
	c, err := cluster.New(dir, cluster.Config{
		NumServers: 1,
		Server: core.Config{
			SegmentSize:         opts.SegmentSize,
			ReadCacheBytes:      opts.ReadCacheBytes,
			GroupCommit:         opts.GroupCommit,
			AutoCompactInterval: opts.AutoCompactInterval,
			DisableMetrics:      opts.DisableMetrics,
			Faults:              opts.Faults,
		},
		DFS: dfs.Config{
			NumDataNodes:      nodes,
			ReplicationFactor: opts.Replication,
			BlockSize:         4 << 20,
			Faults:            opts.Faults,
		},
		Metrics:         opts.Metrics,
		SlowOpLog:       opts.SlowOpLog,
		SlowOpThreshold: opts.SlowOpThreshold,
	})
	if err != nil {
		return nil, err
	}
	return embedded(c), nil
}

// embedded puts the client in front of a one-server cluster.
func embedded(c *Cluster) *DB {
	cc := NewClusterClient(c)
	cc.kind = "embedded"
	return &DB{cc}
}

// Watch is Store.Watch over the one server's log: events arrive in LSN
// order, and fromLSN > 0 resumes after a previously observed cursor
// (pass cursor+1). It is the one Store method DB declares itself: only
// a deployment with one log has one LSN space.
func (db *DB) Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64) (ChangeFeed, error) {
	return db.watch(ctx, table, func(context.Context) (ChangeFeed, error) {
		groups := db.c.Groups(table)
		if len(groups) == 0 {
			return nil, errors.New("logbase: unknown table " + table)
		}
		if group != "" && !slices.Contains(groups, group) {
			return nil, errors.New("logbase: table " + table + " has no column group " + group)
		}
		return db.Server().Watch(table, group, start, end, fromLSN)
	})
}

// Reopen simulates a crash-restart over the same storage: in-memory
// state is discarded; call CreateTable for the schema and Recover to
// rebuild the indexes. See Cluster.Reopen.
func (db *DB) Reopen() (*DB, error) {
	c, err := db.c.Reopen()
	if err != nil {
		return nil, err
	}
	return embedded(c), nil
}

// Recover rebuilds in-memory state after Reopen: the indexes of the
// last checkpoint plus a redo of the log tail. The timestamp oracle is
// advanced past every restored commit so "latest" snapshot reads (e.g.
// unpinned scans) see the recovered data immediately.
func (db *DB) Recover() (core.RecoveryStats, error) { return db.c.Recover() }

// StartReplica starts a WAL-shipping read replica of the DB's server
// (see Cluster.StartReplica). Pinned snapshot reads — Scan / FullScan,
// Read with WithSnapshot, and Exec statements — whose timestamp is at
// or below a replica's watermark are served by a replica, round-robin,
// falling back to the primary when none qualifies; WithPrimary opts a
// read out, WithMaxLag bounds the serving replica's shipping lag. Use
// the returned handle's WaitForTS to block until its watermark covers a
// timestamp. Close the DB to stop it.
func (db *DB) StartReplica() (*Replica, error) { return db.c.StartReplica(dbServer) }

// Replicas returns the DB's read replicas.
func (db *DB) Replicas() []*Replica { return db.c.Replicas(dbServer) }

// Replica is a WAL-shipping read replica (see internal/repl).
type Replica = repl.Replica

// ReplicaStats is a point-in-time view of one replica's shipping state.
type ReplicaStats = repl.Stats

// RetentionPolicy bounds a table's retained version history (keep the
// newest N versions per key, drop versions older than T, or both); see
// SetRetention.
type RetentionPolicy = core.RetentionPolicy

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
	return db.Server().CompactSegments(nums)
}

// CompactionInfo reports cumulative compaction counters and the
// current segment layout (sorted fraction, per-segment garbage).
func (db *DB) CompactionInfo() CompactionInfo { return db.Server().CompactionInfo() }

// SortedFraction is the fraction of live log bytes in sorted segments
// (1.0 = fully clustered; analytical scans are sequential reads).
func (db *DB) SortedFraction() float64 { return db.Server().SortedFraction() }

// IndexMemBytes returns the memory the in-memory indexes hold: every
// node's slots, key arenas and child lists at their full capacity. The
// paper budgets about 24 bytes per entry plus the key; a 40-byte slot
// plus the key is what a full leaf costs here.
func (db *DB) IndexMemBytes() int64 { return db.Server().IndexMemBytes() }

// LogSize returns the live log size in bytes.
func (db *DB) LogSize() int64 { return db.Server().Log().Size() }

// Server exposes the underlying tablet server for advanced use.
func (db *DB) Server() *core.Server { return db.c.Server(dbServer) }

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
