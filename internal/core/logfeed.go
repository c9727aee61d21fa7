package core

// The shared log-reader: one resumable cursor engine over committed WAL
// records, consumed by BOTH streaming subsystems built on the log — the
// changefeed (Watch, internal/cdc) and WAL-shipping replication
// (internal/repl). Because the log is the ONLY data repository, neither
// needs a second pipeline; both are exactly "replay the retained log
// from an LSN, then follow the append stream", and this file is the
// single implementation of that contract:
//
//   - Historical catch-up: a sequential sweep over the segments pinned
//     at subscribe time (pinning keeps compaction from reclaiming the
//     files mid-read). It runs on its own goroutine and hands its events
//     to Next once, sorted: segments are swept in file order and the
//     matching records sorted by LSN — compaction relocates records
//     into key-clustered segments, so file order is not LSN order.
//   - Live tail: records published from the append path itself (the
//     wal append hook fires under the log's append lock, so the live
//     stream is totally LSN-ordered across concurrent writers and both
//     the direct and group-commit paths). Next reads it only after the
//     catch-up events are all returned.
//
// The handoff is exact: subscribing takes the install latch
// exclusively, which drains every in-flight mutation (they hold it
// shared from log append through index install), then snapshots the
// boundary LSN, pins the segments, and registers the live subscriber
// before any new append can start. Everything below the boundary is
// durable in the pinned segments; everything at or above it arrives
// through the hub. No record is missed or delivered twice.
//
// A consumer that falls behind just lags. The live tail is bounded
// (cdc.Options.Buffer) and the publisher never blocks on it: when it
// fills, the hub drops the subscriber, and the feed subscribes again at
// its last returned cursor + 1 through the same barrier, re-reading the
// gap from the log. Only when compaction reclaimed the gap first does
// the feed end, with cdc.ErrCursorTruncated.
//
// Transactional mutations become visible at their commit record, so
// their events carry Cursor = the commit's LSN (the resume point that
// cannot split a transaction); auto-commit events have Cursor == LSN.
// Records of transactions whose commit lies beyond the catch-up
// boundary are carried into the live phase and emitted when the commit
// arrives.
//
// Compaction cooperates through the prune horizon (pruneHorizon): any
// run that drops a record — or rewrites a committed transactional
// record as a plain write, which silently re-attributes its cursor —
// raises the horizon past the affected LSNs. A subscription resuming at
// or below the horizon gets cdc.ErrCursorTruncated and must
// re-bootstrap; fromLSN 0 is always served and replays the retained
// (coalesced but state-correct) history.

import (
	"context"
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

// feedSub is one live-tail subscription registered with the hub.
type feedSub struct {
	// match selects the data records this subscriber observes (commit
	// records are always delivered; they carry no table).
	match func(*wal.Record) bool
	// ch carries matching data records plus every commit record; it is
	// open exactly while the subscriber is registered. The publisher
	// never blocks on it: a full channel drops the subscriber, and its
	// feed subscribes again and re-reads the gap from the log.
	ch chan wal.Record
	// overflow and released are guarded by the hub mutex; the channel
	// close publishes them to the feed. overflow marks a subscriber the
	// hub dropped; released one whose feed or server closed, which is
	// never registered again.
	overflow, released bool
	// cursor is the last cursor delivered to the consumer (feed-lag
	// metric).
	cursor atomic.Uint64
}

// cdcHub fans the append stream out to subscribers. publish runs under
// the wal append lock, so it must stay cheap: per-subscriber filtering
// and a non-blocking channel send.
type cdcHub struct {
	mu     sync.Mutex
	subs   map[*feedSub]struct{}
	closed bool // server shut down: nothing registers again
}

// add registers sub with a fresh live-tail channel. It refuses a
// released subscriber and a closed hub.
func (h *cdcHub) add(sub *feedSub, ch chan wal.Record) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || sub.released {
		return false
	}
	if h.subs == nil {
		h.subs = make(map[*feedSub]struct{})
	}
	sub.ch, sub.overflow = ch, false
	h.subs[sub] = struct{}{}
	return true
}

// dropLocked unregisters a subscriber and closes its channel. The
// caller holds h.mu.
func (h *cdcHub) dropLocked(sub *feedSub) {
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// remove releases a subscriber for good (its feed closed).
func (h *cdcHub) remove(sub *feedSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub.released = true
	h.dropLocked(sub)
}

// closeAll tears down every subscription (server shutdown).
func (h *cdcHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for sub := range h.subs {
		sub.released = true
		h.dropLocked(sub)
	}
}

// count returns the number of live subscriptions (metrics).
func (h *cdcHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// maxLag returns the largest LSN distance between the log's last
// assigned LSN and any subscriber's delivered cursor (metrics).
func (h *cdcHub) maxLag(nextLSN uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var lag uint64
	for sub := range h.subs {
		c := sub.cursor.Load()
		if nextLSN > c+1 && nextLSN-1-c > lag {
			lag = nextLSN - 1 - c
		}
	}
	return lag
}

// publish fans an appended record batch out to subscribers. Invoked by
// the wal append hook while the append lock is held — publications are
// therefore strictly LSN-ordered. Commit and checkpoint records go to
// every subscriber (they carry no table; a commit may resolve records
// the feed holds as pending).
func (h *cdcHub) publish(recs []*wal.Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	for sub := range h.subs {
		h.deliver(sub, recs)
	}
}

func (h *cdcHub) deliver(sub *feedSub, recs []*wal.Record) {
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindCommit, wal.KindCheckpoint:
			// Always delivered: commits resolve buffered transactional
			// records, and both double as progress beacons — without
			// them a feed could never report itself drained past a
			// trailing marker (RecordFeed.Drained).
		case wal.KindWrite, wal.KindDelete:
			if !sub.match(rec) {
				continue
			}
		default:
			continue
		}
		select {
		case sub.ch <- *rec:
		default:
			// Overflow: delivering later records would hide a gap, so
			// the subscriber is dropped here. Its feed's cursor is still
			// exact — it subscribes again and re-reads the gap.
			sub.overflow = true
			h.dropLocked(sub)
			return
		}
	}
}

// RecordFeed is a resumable cursor over this server's committed log
// records: historical catch-up from pinned segments, then the live
// append tail, in commit order with exactly-once handoff.
type RecordFeed struct {
	s      *Server
	sub    *feedSub
	buffer int

	done chan struct{}
	once sync.Once

	// Consumer state, owned by Next. fromLSN is the resume point: the
	// last returned cursor + 1, or the subscribe position until an
	// event is returned.
	fromLSN uint64
	sweep   chan catchUpResult      // the outstanding catch-up; nil once taken
	live    chan wal.Record         // the live tail; nil until the catch-up is taken
	queue   []RecordEvent           // events ready to return, in order
	mark    uint64                  // LSN the queue covers through
	pending map[uint64][]wal.Record // open transactions, by TxnID
	err     error                   // terminal: every later Next returns it

	// processed is the highest LSN the consumer holds everything
	// through: every record at or below it was returned by Next, waits
	// for a commit above it, or carried no data (commit/checkpoint
	// markers). Next moves it only when its queue is empty, so it never
	// moves backwards: a re-subscribe's boundary lies past every record
	// the old live tail carried. Replication's watermark protocol reads
	// it via Drained.
	processed atomic.Uint64
}

// catchUpResult is one catch-up sweep's output.
type catchUpResult struct {
	evs     []RecordEvent           // below the boundary, in commit order
	pending map[uint64][]wal.Record // transactions still open at the boundary
	live    chan wal.Record         // the live tail that follows
	err     error
}

// subscribeRecords opens a record feed: match selects the data records
// delivered (nil = every write/delete), fromLSN is the resume cursor
// (0 = full retained history), buffer sizes the live-tail channel.
// Resuming at or below the prune horizon fails with
// cdc.ErrCursorTruncated.
func (s *Server) subscribeRecords(match func(*wal.Record) bool, fromLSN uint64, buffer int) (*RecordFeed, error) {
	if match == nil {
		match = func(*wal.Record) bool { return true }
	}
	if buffer <= 0 {
		buffer = cdc.DefaultBuffer
	}
	f := &RecordFeed{
		s:       s,
		sub:     &feedSub{match: match},
		buffer:  buffer,
		done:    make(chan struct{}),
		fromLSN: fromLSN,
	}
	f.sub.cursor.Store(fromLSN)
	if err := f.subscribe(); err != nil {
		return nil, err
	}
	return f, nil
}

// subscribe registers the live tail at the feed's resume point and
// starts the catch-up sweep below the boundary. Taking the install
// latch exclusively drains every in-flight mutation (writers hold it
// shared from append through index install, and group-commit flushes
// complete inside that window). With writers excluded, the boundary
// LSN, the pinned segment set, and the hub registration form one
// consistent cut of the log.
func (f *RecordFeed) subscribe() error {
	s, ch := f.s, make(chan wal.Record, f.buffer)
	s.installMu.Lock()
	if f.fromLSN > 0 && f.fromLSN <= s.pruneHorizon.Load() {
		s.installMu.Unlock()
		return cdc.ErrCursorTruncated
	}
	boundary := s.log.NextLSN()
	pinned := s.log.PinAll()
	ok := s.cdc.add(f.sub, ch)
	s.installMu.Unlock()
	if !ok {
		s.log.Unpin(pinned...)
		return cdc.ErrFeedClosed
	}
	f.live, f.mark = nil, boundary-1
	f.sweep = make(chan catchUpResult, 1)
	go f.catchUp(f.fromLSN, boundary, pinned, ch, f.sweep)
	return nil
}

// SubscribeRecords opens the replication stream: every committed
// write/delete record on this server from fromLSN onward, in commit
// order. It shares the changefeed's cursor/pinning engine — same
// resume contract, same cdc.ErrCursorTruncated semantics. buffer <= 0
// uses cdc.DefaultBuffer.
func (s *Server) SubscribeRecords(fromLSN uint64, buffer int) (*RecordFeed, error) {
	return s.subscribeRecords(nil, fromLSN, buffer)
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
		select {
		case r := <-f.sweep:
			f.sweep = nil
			f.queue, f.pending, f.live, f.err = r.evs, r.pending, r.live, r.err
		case rec, ok := <-f.live:
			if !ok {
				// A released subscriber ends the feed. One the hub dropped
				// on overflow subscribes again at the resume point, and its
				// catch-up re-reads the gap from the log, pending
				// transactions included.
				f.err = cdc.ErrFeedClosed
				if f.sub.overflow {
					f.s.obs.cdcRereads.Inc()
					f.err = f.subscribe()
				}
				continue
			}
			f.take(rec)
		case <-ctx.Done():
			return RecordEvent{}, ctx.Err()
		case <-f.done:
			return RecordEvent{}, cdc.ErrFeedClosed
		}
		if len(f.queue) == 0 {
			f.processed.Store(f.mark) // nothing to return: handled through mark
		}
	}
	ev := f.queue[0]
	if f.queue = f.queue[1:]; len(f.queue) == 0 {
		f.queue = nil // a drained catch-up's array is not kept
		f.processed.Store(f.mark)
	}
	f.fromLSN = ev.Cursor + 1
	f.sub.cursor.Store(ev.Cursor)
	return ev, nil
}

// take folds one live-tail record into the queue: an auto-commit record
// is ready at once, a transactional one waits in pending, and a commit
// releases its transaction's records in record order, all sharing the
// commit's cursor. Checkpoint markers carry no data but move the mark.
func (f *RecordFeed) take(rec wal.Record) {
	switch {
	case rec.Kind == wal.KindCommit:
		for _, r := range f.pending[rec.TxnID] {
			f.queue = append(f.queue, RecordEvent{Rec: r, Cursor: rec.LSN})
		}
		delete(f.pending, rec.TxnID)
	case rec.Kind == wal.KindCheckpoint:
	case rec.TxnID != 0:
		f.pending[rec.TxnID] = append(f.pending[rec.TxnID], rec)
	default:
		f.queue = append(f.queue, RecordEvent{Rec: rec, Cursor: rec.LSN})
	}
	f.mark = rec.LSN
}

// Lag returns how many LSNs through tip the consumer has not taken yet.
func (f *RecordFeed) Lag(tip uint64) uint64 {
	if p := f.processed.Load(); tip > p {
		return tip - p
	}
	return 0
}

// Drained reports whether the consumer holds every committed record
// with LSN <= tip. Only meaningful on an unfiltered feed
// (SubscribeRecords) — filtered records never reach the feed, so a
// filtered feed's mark can stall — and only exact when called from the
// consumer's own goroutine between Next calls (Next moves the mark just
// before it returns the event). Replication's watermark protocol is the
// intended caller.
func (f *RecordFeed) Drained(tip uint64) bool {
	return f.processed.Load() >= tip
}

// Close releases the feed: the live subscription is unregistered, an
// unfinished catch-up stops and drops its segment pins, and any blocked
// Next returns. Idempotent.
func (f *RecordFeed) Close() error {
	f.once.Do(func() {
		close(f.done)
		f.s.cdc.remove(f.sub)
	})
	return nil
}

// catchUpCheckEvery bounds how many records are scanned between feed
// shutdown checks.
const catchUpCheckEvery = 1024

// catchUp sweeps the pinned segments for records below the boundary,
// resolves transactional visibility, and hands the survivors from
// fromLSN on to Next in commit order. It releases its pins before the
// hand-off and stops early when the feed closes.
func (f *RecordFeed) catchUp(fromLSN, boundary uint64, pinned []uint32, live chan wal.Record, out chan<- catchUpResult) {
	res := catchUpResult{pending: make(map[uint64][]wal.Record), live: live}
	defer func() { out <- res }() // buffered: never blocks
	defer f.s.log.Unpin(pinned...)

	// Collect matching data records and every commit below the
	// boundary. Compaction can briefly leave a record live in both its
	// input and output segment (originals keep their LSNs), so the scan
	// deduplicates by LSN.
	var recs []wal.Record
	commits := make(map[uint64]wal.Record) // TxnID -> commit record
	seen := make(map[uint64]struct{})
	scanned := 0
	for _, num := range pinned {
		sc, err := f.s.log.OpenSegmentScanner(num, 0)
		if err != nil {
			res.err = err
			return
		}
		for sc.Next() {
			scanned++
			if scanned%catchUpCheckEvery == 0 {
				select {
				case <-f.done:
					sc.Close()
					return
				default:
				}
			}
			rec := sc.Record()
			if rec.LSN >= boundary {
				continue // appended after subscribe; the live tail has it
			}
			if _, dup := seen[rec.LSN]; dup {
				continue
			}
			switch rec.Kind {
			case wal.KindCommit:
				seen[rec.LSN] = struct{}{}
				commits[rec.TxnID] = rec
			case wal.KindWrite, wal.KindDelete:
				if !f.sub.match(&rec) {
					continue
				}
				// History of a tablet that migrated away belongs to its new
				// owner's log, which holds all of it; the copy left here is
				// stale, and a delete the new owner has since vacuumed
				// together with the rows it covered would leave this copy
				// to resurrect them in a bootstrapping consumer.
				if _, ok := f.s.resolve(rec.Table, rec.Tablet, rec.Key, nil); !ok {
					continue
				}
				seen[rec.LSN] = struct{}{}
				recs = append(recs, rec)
			}
		}
		err = sc.Err()
		sc.Close()
		if err != nil {
			res.err = err
			return
		}
	}

	// Resolve visibility: auto-commit records stand alone; committed
	// transactional records adopt their commit's LSN as cursor; records
	// of transactions not committed below the boundary carry into the
	// live phase (their commit, if it ever lands, is at or above it).
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
			cursor = c.LSN
		}
		if cursor >= fromLSN {
			evs = append(evs, RecordEvent{Rec: *rec, Cursor: cursor})
		}
	}
	// Commit order: by cursor, transactions internally by record LSN.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Cursor != evs[j].Cursor {
			return evs[i].Cursor < evs[j].Cursor
		}
		return evs[i].Rec.LSN < evs[j].Rec.LSN
	})
	res.evs = evs
}
