package logbase

// This file is the client contract: the Store interface (the paper's
// four data-access operations plus transactions, queries, changefeeds
// and views — arXiv:1207.0140 §3.6–§3.7), the pull-based Iterator, the
// Tx adapter's interface and the WriteBatch bulk path. The interface is
// implemented exactly once, by ClusterClient in client.go, in front of
// a cluster of any size (Open's DB is a one-server one).
//
// Reads are pull-based and composable: Scan/FullScan return an
// Iterator and, together with the unified point read Read, accept
// push-down ReadOption values (see readopts.go). Options are evaluated
// INSIDE the tablet server against the MVCC index, so a limited or
// filtered scan ships only matching rows and stops issuing log reads
// once its limit is satisfied. Every method takes a context.Context
// whose cancellation propagates down through the tablet-server scan
// loops (an abandoned analytical scan stops doing I/O within one batch
// boundary and leaks no goroutines).

import (
	"context"
	"errors"
	"iter"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Store is the LogBase client interface: one way per thing, served by
// *ClusterClient in front of any cluster — the embedded *DB is one in
// front of a one-server cluster.
// Every method takes a context.Context; cancellation and deadlines are
// honoured at batch granularity inside scans and queries.
type Store interface {
	// CreateTable declares a table with its column groups. Idempotent.
	CreateTable(name string, groups ...string) error
	// Put writes a row version (auto-commit, durable on return).
	Put(ctx context.Context, table, group string, key, value []byte) error
	// Read is the unified point read: the visible version of a row
	// (latest, or at WithSnapshot), or its whole version history with
	// WithAllVersions — options evaluated at the owning tablet server.
	// The single-version read returns ErrNotFound when nothing is
	// visible; the WithAllVersions read returns an empty slice instead.
	Read(ctx context.Context, table, group string, key []byte, opts ...ReadOption) ([]Row, error)
	// Get returns the latest version of a row (the paper's Get). For a
	// version as of a timestamp pass WithSnapshot to Read; for the whole
	// history, WithAllVersions.
	Get(ctx context.Context, table, group string, key []byte) (Row, error)
	// Delete removes a row (persisting an invalidation record).
	Delete(ctx context.Context, table, group string, key []byte) error
	// Scan iterates the visible version of each key in [start, end) in
	// key order; nil bounds are open. Push-down options (limit,
	// reverse, snapshot, prefix, filters) are evaluated at the tablet
	// server. Always Close the iterator.
	Scan(ctx context.Context, table, group string, start, end []byte, opts ...ReadOption) Iterator
	// FullScan iterates every live row in log order (the batch-
	// analytics path), with the same push-down options as Scan except
	// that WithReverse is ignored (the contract is log order). Always
	// Close the iterator.
	FullScan(ctx context.Context, table, group string, opts ...ReadOption) Iterator
	// Exec executes a composable query statement (build with Q):
	// select push-down, multi-table equi-joins, grouping and
	// aggregates, planned and run by one executor at one pinned
	// snapshot, identically on every deployment. A join-free statement is
	// aggregated at the tablet servers (only partials come back) — or
	// answered from a matching materialized view when one is
	// registered; joins are greedy-ordered. Statement.At pins a
	// historical timestamp (time travel).
	Exec(ctx context.Context, stmt *Statement) (QueryResult, error)
	// Watch subscribes a changefeed: committed Put/Delete events for
	// keys in [start, end) (nil = open; group "" = all column groups)
	// streamed in commit order — historical catch-up from the retained
	// log, then a live tail. fromLSN 0 starts at the beginning of the
	// retained log; fromLSN > 0 resumes after a previous event's Cursor
	// on a DB opened with Open, whose one server has one log (a
	// multi-server cluster's feeds are not LSN-addressable across
	// servers, and its ClusterClient rejects a non-zero fromLSN). Always
	// Close the feed.
	Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64) (ChangeFeed, error)
	// CreateMView registers a materialized aggregate view and
	// bootstraps it (changefeed subscription, then snapshot scan, then
	// incremental maintenance until Close).
	CreateMView(ctx context.Context, spec MViewSpec) error
	// MViewQuery materialises a registered view: every spec aggregate
	// per group, stamped with the view's watermark timestamp.
	MViewQuery(ctx context.Context, name string) (QueryResult, error)
	// MViewStats snapshots a registered view's counters and watermark.
	MViewStats(name string) (MViewStats, error)
	// SetRetention installs a per-table retention policy (keep the
	// newest KeepVersions per key, drop versions older than KeepFor, or
	// both), enforced by compaction on every tablet server and replica.
	// The zero policy keeps everything. Tighter retention reclaims log
	// space faster, which also shortens how far a changefeed or
	// replication cursor may lag before resumption fails with
	// ErrCursorTruncated (the consumer then re-bootstraps from scratch).
	SetRetention(table string, p RetentionPolicy) error
	// Begin starts a snapshot-isolation transaction.
	Begin(ctx context.Context) Tx
	// Batch returns an empty WriteBatch bound to this store.
	Batch() *WriteBatch
	// Close releases background resources (replicas, auto-compaction
	// loops, changefeeds). Data is already durable; Close never loses
	// writes.
	Close() error
}

// Iterator is a pull-based row stream. The contract:
//
//	it := st.Scan(ctx, "t", "g", nil, nil)
//	defer it.Close()
//	for it.Next() {
//	    use(it.Row())
//	}
//	if err := it.Err(); err != nil { ... }
//
// Next returns false at end-of-stream, on error, or once the context
// is cancelled; Err reports what stopped the stream (nil for a clean
// end or a deliberate early Close; ctx.Err() after cancellation).
// The producing scan runs only inside Next, as a coroutine of the
// caller; Close releases it — abandoning an unfinished iterator without
// Close leaks the suspended scan and the log segments it pins.
// Iterators are not safe for concurrent use. A Row stays valid after
// Next and Close, and the caller owns its Value; a retained Value keeps
// alive the chunk (at most 32 KB) its scan page copied it into.
type Iterator interface {
	Next() bool
	Row() Row
	Err() error
	Close() error
}

// Tx is a snapshot-isolation transaction over a Store: reads observe
// the snapshot taken at Begin (plus the transaction's own writes),
// writes are buffered until Commit validates them first-committer-wins
// (ErrConflict means retry — use RunTx for automatic retries).
type Tx interface {
	Get(ctx context.Context, table, group string, key []byte) ([]byte, error)
	Put(table, group string, key, value []byte) error
	Delete(table, group string, key []byte) error
	// Scan streams snapshot-visible rows in [start, end) to fn until it
	// returns false.
	Scan(ctx context.Context, table, group string, start, end []byte, fn func(Row) bool) error
	Commit(ctx context.Context) error
	Abort()
}

// RunTx executes fn inside a transaction on st, retrying validation
// conflicts (up to 20 attempts, the paper's restart behaviour). Any
// other error aborts and is returned as-is.
func RunTx(ctx context.Context, st Store, fn func(Tx) error) error {
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		tx := st.Begin(ctx)
		if err = fn(tx); err != nil {
			tx.Abort()
			if !errors.Is(err, core.ErrUnknownTablet) {
				return err
			}
			// Cluster topology shifted under the transaction (tablet
			// split, moved, or frozen for a migration cutover): re-run
			// to re-resolve routing, like the plain client paths do.
			continue
		}
		err = tx.Commit(ctx)
		if err == nil || (!errors.Is(err, ErrConflict) && !errors.Is(err, core.ErrUnknownTablet)) {
			return err
		}
	}
	return err
}

// --- iterator implementation -----------------------------------------

// defaultIterBatch is the row-batch granularity between a producing
// scan and its iterator.
const defaultIterBatch = 256

// rowIter adapts a push-based batch producer into the pull-based
// Iterator. The producer runs as a coroutine of the caller (iter.Pull):
// Next switches straight to it, it runs until it emits a batch or
// returns, and control switches straight back. There is no producer
// goroutine, channel or derived context, and the caller never parks in
// the scheduler to wait for a batch.
type rowIter struct {
	ctx     context.Context
	next    func() ([]Row, bool)
	stop    func()
	prodErr error // producer's return; valid once done

	cur  []Row
	pos  int
	err  error
	done bool
}

// errIterClosed is what emit returns to a producer whose iterator was
// closed.
var errIterClosed = errors.New("logbase: iterator closed")

// newRowIter wraps run, which starts at the first Next. run must
// stream batches through emit and return when emit errors or its ctx
// is cancelled; emit returns once the consumer wants the next batch,
// so run may reuse a batch after emit returns.
func newRowIter(ctx context.Context, run func(ctx context.Context, emit func([]Row) error) error) *rowIter {
	if ctx == nil {
		ctx = context.Background()
	}
	it := &rowIter{ctx: ctx}
	it.next, it.stop = iter.Pull(func(yield func([]Row) bool) {
		it.prodErr = run(ctx, func(rows []Row) error {
			if !yield(rows) {
				return errIterClosed
			}
			return nil
		})
	})
	return it
}

// Next advances to the next row, resuming the producer when the
// current batch is spent; a cancelled context ends the stream at that
// batch boundary without resuming it.
func (it *rowIter) Next() bool {
	if it.done {
		return false
	}
	if it.pos < len(it.cur) {
		it.pos++
		return true
	}
	if it.ctx.Err() == nil {
		if rows, ok := it.next(); ok {
			it.cur, it.pos = rows, 1
			return true
		}
	}
	it.finish()
	return false
}

// Row returns the row the last successful Next advanced to.
func (it *rowIter) Row() Row { return it.cur[it.pos-1] }

// finish stops the producer — a suspended one resumes with emit
// failing and unwinds — and settles Err: a cancelled context wins (the
// caller asked to stop and should see ctx.Err()); the failed emit of a
// deliberate Close is no error; anything else is the producer's own.
func (it *rowIter) finish() {
	it.done = true
	it.stop()
	switch {
	case it.ctx.Err() != nil:
		it.err = it.ctx.Err()
	case !errors.Is(it.prodErr, errIterClosed):
		it.err = it.prodErr
	}
}

func (it *rowIter) Err() error {
	if !it.done && it.ctx.Err() != nil {
		return it.ctx.Err()
	}
	return it.err
}

// Close stops the producing scan, which has returned when Close does,
// and returns the stream error, if any. Safe to call multiple times; a
// Close before exhaustion leaves Err nil.
func (it *rowIter) Close() error {
	if !it.done {
		it.finish()
	}
	return it.err
}

// batched runs produce, a one-row-at-a-time push scan, and hands its
// rows to emit in batches of defaultIterBatch, reusing one batch (emit
// is done with a batch when it returns) that a limit (0 = none) below
// defaultIterBatch sizes. produce's callback returns false once emit
// has failed, which stops the scan.
func batched(emit func([]Row) error, limit int, produce func(fn func(Row) bool) error) error {
	size := defaultIterBatch
	if limit > 0 && limit < size {
		size = limit
	}
	batch := make([]Row, 0, size)
	var emitErr error
	err := produce(func(r Row) bool {
		batch = append(batch, r)
		if len(batch) >= defaultIterBatch {
			emitErr = emit(batch)
			batch = batch[:0]
		}
		return emitErr == nil
	})
	switch {
	case err != nil:
		return err
	case emitErr != nil || len(batch) == 0:
		return emitErr
	}
	return emit(batch)
}

// --- WriteBatch -------------------------------------------------------

// WriteBatch buffers row mutations and flushes them as ONE append
// sweep through the log (per tablet server), instead of one durable
// append per record. This is the bulk-load path: on a sequential-log
// engine the per-append persistence cost dominates per-record Put
// throughput, and batching amortises it the same way group commit
// does for concurrent writers. Obtain one from Store.Batch, buffer
// with Put/Delete, then Flush.
//
// A WriteBatch has no transactional semantics: mutations are
// independent auto-commit writes that happen to share log appends,
// and a mid-flush crash may persist a prefix. Use transactions for
// atomicity. Not safe for concurrent use.
type WriteBatch struct {
	ops []cluster.BatchOp
	cc  *ClusterClient
}

// Put buffers a write. Key and value are copied, so callers may reuse
// their slices.
func (b *WriteBatch) Put(table, group string, key, value []byte) {
	b.ops = append(b.ops, cluster.BatchOp{
		Table: table, Group: group,
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	})
}

// Delete buffers a delete.
func (b *WriteBatch) Delete(table, group string, key []byte) {
	b.ops = append(b.ops, cluster.BatchOp{
		Table: table, Group: group,
		Key:    append([]byte(nil), key...),
		Delete: true,
	})
}

// Len returns the number of buffered mutations.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Reset discards all buffered mutations.
func (b *WriteBatch) Reset() { b.ops = b.ops[:0] }

// Flush durably applies every buffered mutation as one group append
// sweep per tablet server and resets the batch for reuse. On error the
// batch keeps exactly the mutations that were not durably applied — a
// partial failure prunes the sub-batches that landed, and a DB's flush
// is one atomic append, so there it keeps all of them — so calling
// Flush again retries without duplicating writes.
func (b *WriteBatch) Flush(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(b.ops) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var unapplied []int
	err := b.cc.routed(ctx, func(cl *cluster.Client) (err error) {
		unapplied, err = cl.ApplyBatch(b.ops)
		return err
	})
	if err != nil {
		if unapplied != nil {
			kept := make([]cluster.BatchOp, 0, len(unapplied))
			for _, i := range unapplied {
				kept = append(kept, b.ops[i])
			}
			b.ops = kept
		}
		return err
	}
	b.Reset()
	return nil
}
