package logbase

// This file is the client contract: the Store interface (the paper's
// four data-access operations plus transactions, queries, changefeeds
// and views — arXiv:1207.0140 §3.6–§3.7), the pull-based Iterator, the
// Tx adapter's interface and the WriteBatch bulk path. The interface is
// implemented exactly once, by the client type in client.go, on top of
// whichever backend (embedded or cluster) stands behind it.
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

	"repro/internal/core"
)

// Store is the LogBase client interface: one way per thing, served
// identically by the embedded *DB and the distributed *ClusterClient.
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
	// snapshot, identically on both backends. A join-free statement is
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
	// (embedded backend only — cluster feeds are not LSN-addressable
	// across servers and reject a non-zero fromLSN). Always Close the
	// feed.
	Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64, opts ...WatchOptions) (ChangeFeed, error)
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
// Close releases the producing scan promptly — abandoning an iterator
// without Close leaks its producer until the scan finishes on its own.
// Iterators are not safe for concurrent use.
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
// Iterator. The producer runs in one goroutine and hands batches over
// a channel; Close cancels the producer's context and drains, so the
// goroutine always exits promptly.
type rowIter struct {
	parent  context.Context
	cancel  context.CancelFunc
	batches chan []Row
	fin     chan struct{}
	prodErr error // producer's return; valid after fin is closed

	cur    []Row
	pos    int
	err    error
	done   bool
	closed bool
}

// newRowIter starts run in a goroutine. run must stream batches
// through emit and return when emit errors or its ctx is cancelled.
func newRowIter(ctx context.Context, run func(ctx context.Context, emit func([]Row) error) error) *rowIter {
	if ctx == nil {
		ctx = context.Background()
	}
	ictx, cancel := context.WithCancel(ctx)
	it := &rowIter{
		parent:  ctx,
		cancel:  cancel,
		batches: make(chan []Row, 4),
		fin:     make(chan struct{}),
	}
	go func() {
		defer close(it.fin)
		it.prodErr = run(ictx, func(rows []Row) error {
			select {
			case it.batches <- rows:
				return nil
			case <-ictx.Done():
				return ictx.Err()
			}
		})
		close(it.batches)
	}()
	return it
}

func (it *rowIter) Next() bool {
	if it.done {
		return false
	}
	if it.pos < len(it.cur) {
		it.pos++
		return true
	}
	rows, ok := <-it.batches
	if !ok {
		it.finish()
		return false
	}
	it.cur, it.pos = rows, 1
	return true
}

// Row returns the row the last successful Next advanced to.
func (it *rowIter) Row() Row { return it.cur[it.pos-1] }

// finish waits for the producer and settles Err: a cancelled parent
// context wins (the caller asked to stop and should see ctx.Err()); a
// deliberate Close suppresses the cancellation it caused; anything
// else is the producer's own error.
func (it *rowIter) finish() {
	it.done = true
	<-it.fin
	switch {
	case it.parent.Err() != nil:
		it.err = it.parent.Err()
	case it.closed:
		if it.prodErr != nil && !errors.Is(it.prodErr, context.Canceled) {
			it.err = it.prodErr
		}
	default:
		it.err = it.prodErr
	}
}

func (it *rowIter) Err() error {
	if !it.done && it.parent.Err() != nil {
		return it.parent.Err()
	}
	return it.err
}

// Close stops the producing scan (cancelling its derived context),
// waits for its goroutine to exit, and returns the stream error, if
// any. Safe to call multiple times; a Close before exhaustion leaves
// Err nil.
func (it *rowIter) Close() error {
	it.closed = true
	it.cancel()
	if !it.done {
		for range it.batches { // release a producer blocked on emit
		}
		it.finish()
	}
	return it.err
}

// batched runs produce, a one-row-at-a-time push scan, and hands its
// rows to emit in batches of defaultIterBatch. produce's callback
// returns false once emit has failed, which stops the scan.
func batched(emit func([]Row) error, produce func(fn func(Row) bool) error) error {
	batch := make([]Row, 0, defaultIterBatch)
	var emitErr error
	err := produce(func(r Row) bool {
		batch = append(batch, r)
		if len(batch) >= defaultIterBatch {
			emitErr = emit(batch)
			batch = make([]Row, 0, defaultIterBatch)
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

// batchOp is one buffered WriteBatch mutation.
type batchOp struct {
	table, group string
	key, value   []byte
	delete       bool
}

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
	ops []batchOp
	b   backend
}

// Put buffers a write. Key and value are copied, so callers may reuse
// their slices.
func (b *WriteBatch) Put(table, group string, key, value []byte) {
	b.ops = append(b.ops, batchOp{
		table: table, group: group,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete buffers a delete.
func (b *WriteBatch) Delete(table, group string, key []byte) {
	b.ops = append(b.ops, batchOp{
		table: table, group: group,
		key:    append([]byte(nil), key...),
		delete: true,
	})
}

// Len returns the number of buffered mutations.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Reset discards all buffered mutations.
func (b *WriteBatch) Reset() { b.ops = b.ops[:0] }

// Flush durably applies every buffered mutation as one group append
// sweep and resets the batch for reuse. On error the batch keeps
// exactly the mutations that were not durably applied — on the
// embedded backend that is all of them (its flush is one atomic
// append); on a cluster a partial failure prunes the sub-batches that
// landed — so calling Flush again retries without duplicating writes.
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
	unapplied, err := b.b.applyBatch(ctx, b.ops)
	if err != nil {
		if unapplied != nil {
			kept := make([]batchOp, 0, len(unapplied))
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
