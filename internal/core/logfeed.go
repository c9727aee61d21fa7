package core

// The shared log-reader: one resumable cursor engine over committed WAL
// records, consumed by both streaming subsystems built on the log — the
// changefeed (Watch, internal/cdc) and WAL-shipping replication
// (internal/repl). The log is the only data repository, so a feed is
// exactly "replay the retained log from an LSN, then follow its tail":
//
//   - Catch-up: a goroutine sweeps the segments pinned at the boundary
//     LSN for every record below it, and hands Next the matching ones
//     sorted by commit (compaction relocates records into key-clustered
//     segments, so file order is not LSN order).
//   - Tail: from the boundary on, Next reads the log's in-memory tail
//     (wal.Log.Follow), filters each frame in place and copies only the
//     records it returns. Appends do nothing per feed, and no writer
//     waits on one.
//
// The handoff is exact without stopping writers: the log pins its
// segments and reads the boundary under its own lock
// (wal.Log.PinRetained). An opening feed's boundary is the log's next
// LSN, so its history comes from the segments — compacted, and without
// the tablets that moved away. A feed whose next record the bounded
// tail has evicted falls off: it sweeps again, from its last returned
// cursor + 1 to the tail's first LSN, and reads the tail on from there.
//
// Transactional mutations become visible at their commit record, so
// their events carry Cursor = the commit's LSN (a resume point that
// cannot split a transaction); auto-commit events have Cursor == LSN.
// Records of transactions open at the boundary wait for their commit
// in the tail.
//
// Compaction raises the prune horizon (pruneHorizon) past every LSN it
// drops, or rewrites as a plain write, before any of its input segments
// can go. A catch-up reads the horizon after its pin, so a resume at or
// below it gets cdc.ErrCursorTruncated; fromLSN 0 is always served and
// replays the retained (coalesced but state-correct) history.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cdc"
	"repro/internal/wal"
)

// RecordEvent is one committed mutation record in feed order.
type RecordEvent struct {
	// Rec is the raw log record (KindWrite or KindDelete).
	Rec wal.Record
	// Cursor is the resume point: re-subscribing at FromLSN = Cursor+1
	// continues exactly after this record. Auto-commit records carry
	// Cursor == Rec.LSN; transactional records carry their commit
	// record's LSN (the transaction only became visible there).
	Cursor uint64
}

// feedSet is a server's open feeds, for the feed gauges and shutdown.
type feedSet struct {
	mu     sync.Mutex
	open   map[*RecordFeed]struct{}
	closed bool // the server shut down: no feed opens again
}

// add registers an opened feed, or refuses once the server closed.
func (fs *feedSet) add(f *RecordFeed) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.closed {
		fs.open[f] = struct{}{}
	}
	return !fs.closed
}

func (fs *feedSet) remove(f *RecordFeed) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.open, f)
}

// closeAll closes every open feed (server shutdown).
func (fs *feedSet) closeAll() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	for f := range fs.open {
		f.once.Do(func() { close(f.done) })
	}
	clear(fs.open)
}

// lag returns how many feeds are open and the most LSNs through tip
// any of them has not taken.
func (fs *feedSet) lag(tip uint64) (open int, most uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for f := range fs.open {
		most = max(most, f.Lag(tip))
	}
	return len(fs.open), most
}

// RecordFeed is a resumable cursor over this server's committed log
// records: catch-up from pinned segments, then the log's in-memory
// tail, in commit order with exactly-once handoff.
type RecordFeed struct {
	s      *Server
	filter *feedFilter // nil: every write/delete

	done chan struct{}
	once sync.Once

	// Consumer state, owned by Next. fromLSN is the resume point: the
	// last returned cursor + 1, or the subscribe position until an
	// event is returned.
	fromLSN uint64
	tail    *wal.Follower           // reads the tail from mark+1
	sweep   chan catchUpResult      // the outstanding catch-up; nil once taken
	queue   []RecordEvent           // events ready to return, in order
	mark    uint64                  // LSN the queue covers through
	pending map[uint64][]wal.Record // open transactions, by TxnID
	err     error                   // terminal: every later Next returns it

	// processed is the highest LSN the consumer holds everything
	// through: every record at or below it was returned by Next, waits
	// for a commit above it, or is one the feed does not select. Next
	// moves it only when its queue is empty, so it never moves
	// backwards: a catch-up's boundary lies past every frame the feed
	// read from the tail. Replication's watermark protocol reads it via
	// Drained.
	processed atomic.Uint64
}

// catchUpResult is one catch-up sweep's output.
type catchUpResult struct {
	evs     []RecordEvent           // below the boundary, in commit order
	pending map[uint64][]wal.Record // transactions still open at the boundary
	err     error
}

// subscribeRecords opens a record feed: filter selects the data records
// delivered (nil = every write/delete), fromLSN is the resume cursor
// (0 = full retained history). Resuming at or below the prune horizon
// fails with cdc.ErrCursorTruncated.
func (s *Server) subscribeRecords(filter *feedFilter, fromLSN uint64) (*RecordFeed, error) {
	f := &RecordFeed{s: s, filter: filter, done: make(chan struct{}), fromLSN: fromLSN}
	if err := f.catchUp(true); err != nil {
		return nil, err
	}
	if !s.feeds.add(f) {
		f.Close() // stops the sweep, which drops its pins
		return nil, cdc.ErrFeedClosed
	}
	return f, nil
}

// SubscribeRecords opens the replication stream: every committed
// write/delete record on this server from fromLSN onward, in commit
// order. It shares the changefeed's cursor/pinning engine — same
// resume contract, same cdc.ErrCursorTruncated semantics.
func (s *Server) SubscribeRecords(fromLSN uint64) (*RecordFeed, error) {
	return s.subscribeRecords(nil, fromLSN)
}

// catchUp pins the retained segments, starts the sweep of what lies
// below the boundary and follows the tail from it. Opening, the
// boundary is the log's next LSN; after a fall-off it is the tail's
// first LSN. Compaction raises the prune horizon before any of its
// input segments can go, so the horizon read after the pin covers every
// record the pinned segments lack: the feed waits for no writer.
func (f *RecordFeed) catchUp(open bool) error {
	sc, boundary, next := f.s.log.PinRetained()
	if open {
		boundary = next
	}
	if f.fromLSN > 0 && f.fromLSN <= f.s.pruneHorizon.Load() {
		sc.Close()
		return cdc.ErrCursorTruncated
	}
	f.tail, f.mark = f.s.log.Follow(boundary), boundary-1
	f.sweep = make(chan catchUpResult, 1)
	go f.sweepBelow(f.fromLSN, boundary, sc, f.sweep)
	return nil
}

// Next returns the next committed record in feed order. It blocks until
// one arrives, ctx is cancelled, or the feed ends: cdc.ErrCursorTruncated
// when compaction reclaimed the gap a lagging feed had to re-read,
// cdc.ErrFeedClosed after Close or server shutdown. The catch-up sweep
// runs on its own goroutine, so a ctx deadline only bounds the wait.
func (f *RecordFeed) Next(ctx context.Context) (RecordEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for len(f.queue) == 0 {
		if f.err != nil {
			return RecordEvent{}, f.err
		}
		var wait <-chan struct{}
		if f.sweep == nil {
			select {
			case <-f.done:
				return RecordEvent{}, cdc.ErrFeedClosed
			default:
			}
			if wait = f.readTail(); wait == nil {
				continue // an event, an error, or a catch-up started
			}
		}
		select {
		case r := <-f.sweep:
			f.sweep = nil
			f.queue, f.pending, f.err = r.evs, r.pending, r.err
		case <-wait:
		case <-ctx.Done():
			return RecordEvent{}, ctx.Err()
		case <-f.done:
			return RecordEvent{}, cdc.ErrFeedClosed
		}
	}
	ev := f.queue[0]
	if f.queue = f.queue[1:]; len(f.queue) == 0 {
		f.queue = nil // a drained catch-up's array is not kept
		f.processed.Store(f.mark)
	}
	f.fromLSN = ev.Cursor + 1
	return ev, nil
}

// readTail folds tail frames into the queue until an event is ready.
// Read through, it returns the channel the next append closes. A feed
// that fell off the tail starts a catch-up over the gap instead.
func (f *RecordFeed) readTail() <-chan struct{} {
	for len(f.queue) == 0 {
		v, wait, err := f.tail.Next()
		switch {
		case errors.Is(err, wal.ErrFellOff):
			f.s.obs.cdcRereads.Inc()
			f.err = f.catchUp(false)
			return nil
		case err != nil:
			f.err = err
			return nil
		case v == nil:
			f.processed.Store(f.mark) // read through: handled through mark
			return wait
		}
		f.take(v)
	}
	return nil
}

// take folds one tail frame into the queue: a selected auto-commit
// record is ready at once, a transactional one waits in pending for its
// commit, which releases them under its cursor. Only selected records
// are copied out of the tail; every frame moves the mark.
func (f *RecordFeed) take(v *wal.View) {
	f.mark = v.LSN()
	switch v.Kind() {
	case wal.KindCommit:
		for _, r := range f.pending[v.TxnID()] {
			f.queue = append(f.queue, RecordEvent{Rec: r, Cursor: v.LSN()})
		}
		delete(f.pending, v.TxnID())
	case wal.KindWrite, wal.KindDelete:
		if !f.filter.matchesView(v) {
			return
		}
		if rec := v.Record(); rec.TxnID != 0 {
			f.pending[rec.TxnID] = append(f.pending[rec.TxnID], rec)
		} else {
			f.queue = append(f.queue, RecordEvent{Rec: rec, Cursor: rec.LSN})
		}
	}
}

// Lag returns how many LSNs through tip the consumer has not taken yet.
func (f *RecordFeed) Lag(tip uint64) uint64 {
	if p := f.processed.Load(); tip > p {
		return tip - p
	}
	return 0
}

// Drained reports whether the consumer holds every committed record
// with LSN <= tip. It is exact only when called from the consumer's own
// goroutine between Next calls (Next moves the mark just before it
// returns the event). Replication's watermark protocol is the intended
// caller.
func (f *RecordFeed) Drained(tip uint64) bool {
	return f.processed.Load() >= tip
}

// Close releases the feed: an unfinished catch-up stops and drops its
// segment pins, and any blocked Next returns. Idempotent.
func (f *RecordFeed) Close() error {
	f.once.Do(func() { close(f.done) })
	f.s.feeds.remove(f)
	return nil
}

// catchUpCheckEvery bounds how many records are scanned between feed
// shutdown checks.
const catchUpCheckEvery = 1024

// sweepBelow sweeps the scanner's segments for records below the
// boundary, resolves transactional visibility, and hands the survivors
// from fromLSN on to Next in commit order. It releases the scanner
// before the hand-off and stops early when the feed closes.
func (f *RecordFeed) sweepBelow(fromLSN, boundary uint64, sc *wal.Scanner, out chan<- catchUpResult) {
	res := catchUpResult{pending: make(map[uint64][]wal.Record)}
	defer func() { out <- res }() // buffered: never blocks
	defer sc.Close()

	// Collect matching data records and every commit below the
	// boundary. Compaction can briefly leave a record live in both its
	// input and output segment (originals keep their LSNs), so the scan
	// deduplicates by LSN. Only matching records are copied out.
	var recs []wal.Record
	commits := make(map[uint64]uint64) // TxnID -> commit record LSN
	seen := make(map[uint64]struct{})
	for scanned := 1; sc.Next(); scanned++ {
		if scanned%catchUpCheckEvery == 0 {
			select {
			case <-f.done:
				return
			default:
			}
		}
		v := sc.View()
		lsn := v.LSN()
		if lsn >= boundary {
			continue // the tail has it
		}
		if _, dup := seen[lsn]; dup {
			continue
		}
		switch v.Kind() {
		case wal.KindCommit:
			seen[lsn] = struct{}{}
			commits[v.TxnID()] = lsn
		case wal.KindWrite, wal.KindDelete:
			if !f.filter.matchesView(v) {
				continue
			}
			// History of a tablet that migrated away belongs to its new
			// owner's log, which holds all of it; the copy left here is
			// stale, and a delete the new owner has since vacuumed
			// together with the rows it covered would leave this copy
			// to resurrect them in a bootstrapping consumer.
			if _, ok := f.s.resolve(string(v.Table()), string(v.Tablet()), v.Key(), nil); !ok {
				continue
			}
			seen[lsn] = struct{}{}
			recs = append(recs, v.Record())
		}
	}
	if res.err = sc.Err(); res.err != nil {
		return
	}

	// Resolve visibility: auto-commit records stand alone; committed
	// transactional records adopt their commit's LSN as cursor; records
	// of transactions not committed below the boundary carry into the
	// tail phase (their commit, if it ever lands, is at or above it).
	// Events before fromLSN were returned by an earlier feed.
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	evs := make([]RecordEvent, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		cursor := rec.LSN
		if rec.TxnID != 0 {
			c, ok := commits[rec.TxnID]
			if !ok {
				res.pending[rec.TxnID] = append(res.pending[rec.TxnID], *rec)
				continue
			}
			cursor = c
		}
		if cursor >= fromLSN {
			evs = append(evs, RecordEvent{Rec: *rec, Cursor: cursor})
		}
	}
	// Commit order: by cursor, transactions internally by record LSN.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cursor < evs[j].Cursor })
	res.evs = evs
}
