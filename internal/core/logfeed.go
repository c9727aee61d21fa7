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
//     files mid-read). Segments are swept in file order and the
//     matching records sorted by LSN — compaction relocates records
//     into key-clustered segments, so file order is not LSN order.
//   - Live tail: records published from the append path itself (the
//     wal append hook fires under the log's append lock, so the live
//     stream is totally LSN-ordered across concurrent writers and both
//     the direct and group-commit paths).
//
// The handoff is exact: subscribing takes the install latch
// exclusively, which drains every in-flight mutation (they hold it
// shared from log append through index install), then snapshots the
// boundary LSN, pins the segments, and registers the live subscriber
// before any new append can start. Everything below the boundary is
// durable in the pinned segments; everything at or above it arrives
// through the hub. No record is missed or delivered twice.
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
	// ch carries matching data records plus every commit record. The
	// publisher never blocks on it: a full channel marks the subscriber
	// overflowed and closes it (the feed surfaces cdc.ErrSlowConsumer
	// and the consumer resumes from its last cursor).
	ch chan wal.Record
	// closed/overflow are guarded by the hub mutex; the channel close
	// is the publication barrier that lets the feed goroutine read
	// overflow afterwards.
	closed   bool
	overflow bool
	// cursor is the last cursor delivered to the consumer (feed-lag
	// metric).
	cursor atomic.Uint64
}

// cdcHub fans the append stream out to subscribers. publish runs under
// the wal append lock, so it must stay cheap: per-subscriber filtering
// and a non-blocking channel send.
type cdcHub struct {
	mu   sync.Mutex
	subs map[*feedSub]struct{}
}

func (h *cdcHub) add(sub *feedSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		h.subs = make(map[*feedSub]struct{})
	}
	h.subs[sub] = struct{}{}
}

// remove unregisters a subscriber, closing its channel so the feed
// goroutine drains and exits.
func (h *cdcHub) remove(sub *feedSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
}

// closeAll tears down every subscription (server shutdown).
func (h *cdcHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		delete(h.subs, sub)
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
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
// therefore strictly LSN-ordered. Commit records go to every
// subscriber (they carry no table and may commit records already
// buffered by the feed); checkpoint markers are dropped.
func (h *cdcHub) publish(recs []wal.Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	for sub := range h.subs {
		h.deliver(sub, recs)
	}
}

func (h *cdcHub) deliver(sub *feedSub, recs []wal.Record) {
	for i := range recs {
		rec := &recs[i]
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
			// the subscription dies here. The consumer's cursor is
			// still exact — it resumes and replays the gap from the
			// log.
			sub.overflow = true
			sub.closed = true
			close(sub.ch)
			delete(h.subs, sub)
			return
		}
	}
}

// RecordFeed is a resumable cursor over this server's committed log
// records: historical catch-up from pinned segments, then the live
// append tail, in commit order with exactly-once handoff.
type RecordFeed struct {
	s   *Server
	sub *feedSub

	fromLSN  uint64
	boundary uint64   // first live LSN; catch-up covers [fromLSN, boundary)
	pinned   []uint32 // segments pinned for catch-up

	events chan RecordEvent
	done   chan struct{}
	err    error // set before events is closed
	once   sync.Once

	// pending buffers transactional records whose commit has not been
	// seen yet, keyed by TxnID; it hands over seamlessly from the
	// catch-up phase to the live phase.
	pending map[uint64][]wal.Record

	// processed is the highest LSN the feed goroutine has fully handled:
	// every record at or below it was emitted, buffered as pending, or
	// carried no data (commit/checkpoint markers). It advances only
	// after the corresponding emits complete, so processed >= L plus an
	// empty events channel means the consumer holds everything through
	// L. Replication's watermark protocol reads it via Drained.
	processed atomic.Uint64
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
	sub := &feedSub{match: match, ch: make(chan wal.Record, buffer)}
	sub.cursor.Store(fromLSN)
	f := &RecordFeed{
		s:       s,
		sub:     sub,
		fromLSN: fromLSN,
		events:  make(chan RecordEvent, 256),
		done:    make(chan struct{}),
		pending: make(map[uint64][]wal.Record),
	}
	// Subscribe barrier: taking the install latch exclusively drains
	// every in-flight mutation (writers hold it shared from append
	// through index install, and group-commit flushes complete inside
	// that window). With writers excluded, the boundary LSN, the pinned
	// segment set, and the hub registration form one consistent cut of
	// the log.
	s.installMu.Lock()
	if fromLSN > 0 && fromLSN <= s.pruneHorizon.Load() {
		s.installMu.Unlock()
		return nil, cdc.ErrCursorTruncated
	}
	f.boundary = s.log.NextLSN()
	f.pinned = s.log.PinAll()
	s.cdc.add(sub)
	s.installMu.Unlock()
	go f.run()
	return f, nil
}

// SubscribeRecords opens the replication stream: every committed
// write/delete record on this server from fromLSN onward, in commit
// order. It shares the changefeed's cursor/pinning engine — same
// resume contract, same cdc.ErrCursorTruncated / cdc.ErrSlowConsumer
// semantics. buffer <= 0 uses cdc.DefaultBuffer.
func (s *Server) SubscribeRecords(fromLSN uint64, buffer int) (*RecordFeed, error) {
	return s.subscribeRecords(nil, fromLSN, buffer)
}

// Next returns the next committed record in feed order. It blocks until
// one arrives, ctx is cancelled, or the feed terminates
// (cdc.ErrSlowConsumer on live buffer overflow, cdc.ErrFeedClosed after
// Close).
func (f *RecordFeed) Next(ctx context.Context) (RecordEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case ev, ok := <-f.events:
		if !ok {
			if f.err != nil {
				return RecordEvent{}, f.err
			}
			return RecordEvent{}, cdc.ErrFeedClosed
		}
		f.sub.cursor.Store(ev.Cursor)
		return ev, nil
	case <-ctx.Done():
		return RecordEvent{}, ctx.Err()
	case <-f.done:
		return RecordEvent{}, cdc.ErrFeedClosed
	}
}

// ProcessedLSN returns the highest LSN the feed has fully handled (see
// Drained). It lags the log tip by whatever sits in the live-tail
// buffer.
func (f *RecordFeed) ProcessedLSN() uint64 { return f.processed.Load() }

// Drained reports whether the consumer holds every committed record
// with LSN <= tip: the feed goroutine has processed past tip and the
// event buffer is empty. Only meaningful on an unfiltered feed
// (SubscribeRecords) — filtered records never reach the feed, so a
// filtered feed's mark can stall — and only exact when called from the
// consumer's own goroutine between Next calls (an event popped by a
// concurrent Next would be invisible to both checks). Replication's
// watermark protocol is the intended caller.
func (f *RecordFeed) Drained(tip uint64) bool {
	return f.processed.Load() >= tip && len(f.events) == 0
}

// Close releases the feed: the live subscription is unregistered, the
// catch-up's segment pins drop, and any blocked Next returns.
// Idempotent.
func (f *RecordFeed) Close() error {
	f.once.Do(func() {
		close(f.done)
		f.s.cdc.remove(f.sub)
	})
	return nil
}

// run is the feed's producer goroutine: historical catch-up, then the
// live tail.
func (f *RecordFeed) run() {
	defer close(f.events)
	if ok := f.catchUp(); !ok {
		return
	}
	f.live()
}

// emit hands one record to the consumer, honouring fromLSN filtering
// and feed shutdown. Returns false when the feed is closing.
func (f *RecordFeed) emit(ev RecordEvent) bool {
	if f.fromLSN > 0 && ev.Cursor < f.fromLSN {
		return true // resumed past it: already delivered in a previous feed
	}
	select {
	case f.events <- ev:
		return true
	case <-f.done:
		return false
	}
}

// catchUpCheckEvery bounds how many records are scanned between feed
// shutdown checks.
const catchUpCheckEvery = 1024

// catchUp sweeps the pinned segments for records below the boundary,
// resolves transactional visibility, and emits the survivors in commit
// order. Returns false when the feed shut down mid-way.
func (f *RecordFeed) catchUp() bool {
	defer func() {
		f.s.log.Unpin(f.pinned...)
		f.pinned = nil
	}()

	// Collect matching data records and every commit below the
	// boundary. Compaction can briefly leave a record live in both its
	// input and output segment (originals keep their LSNs), so the scan
	// deduplicates by LSN.
	var recs []wal.Record
	commits := make(map[uint64]wal.Record) // TxnID -> commit record
	seen := make(map[uint64]struct{})
	scanned := 0
	for _, num := range f.pinned {
		sc, err := f.s.log.OpenSegmentScanner(num, 0)
		if err != nil {
			f.err = err
			return false
		}
		for sc.Next() {
			scanned++
			if scanned%catchUpCheckEvery == 0 {
				select {
				case <-f.done:
					sc.Close()
					return false
				default:
				}
			}
			rec := sc.Record()
			if rec.LSN >= f.boundary {
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
			f.err = err
			return false
		}
	}

	// Resolve visibility: auto-commit records stand alone; committed
	// transactional records adopt their commit's LSN as cursor; records
	// of transactions not committed below the boundary carry into the
	// live phase (their commit, if it ever lands, is at or above it).
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	evs := make([]RecordEvent, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		if rec.TxnID == 0 {
			evs = append(evs, RecordEvent{Rec: *rec, Cursor: rec.LSN})
			continue
		}
		if c, ok := commits[rec.TxnID]; ok {
			evs = append(evs, RecordEvent{Rec: *rec, Cursor: c.LSN})
			continue
		}
		f.pending[rec.TxnID] = append(f.pending[rec.TxnID], *rec)
	}
	// Commit order: by cursor, transactions internally by record LSN.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Cursor != evs[j].Cursor {
			return evs[i].Cursor < evs[j].Cursor
		}
		return evs[i].Rec.LSN < evs[j].Rec.LSN
	})
	for _, ev := range evs {
		if !f.emit(ev) {
			return false
		}
	}
	if f.boundary > 0 {
		f.processed.Store(f.boundary - 1)
	}
	return true
}

// live drains the hub subscription until the feed closes or the
// subscriber overflows.
func (f *RecordFeed) live() {
	for rec := range f.sub.ch {
		switch rec.Kind {
		case wal.KindCommit:
			// The transaction's buffered records become visible now, in
			// record order, all sharing the commit's cursor.
			if list, ok := f.pending[rec.TxnID]; ok {
				delete(f.pending, rec.TxnID)
				for i := range list {
					if !f.emit(RecordEvent{Rec: list[i], Cursor: rec.LSN}) {
						return
					}
				}
			}
		case wal.KindWrite, wal.KindDelete:
			if rec.TxnID != 0 {
				f.pending[rec.TxnID] = append(f.pending[rec.TxnID], rec)
				f.processed.Store(rec.LSN)
				continue
			}
			if !f.emit(RecordEvent{Rec: rec, Cursor: rec.LSN}) {
				return
			}
		}
		// Hub publications are strictly LSN-ordered and the emits above
		// completed, so everything through this record is now with the
		// consumer (or pending a future commit). Checkpoint markers land
		// here too — they carry no data but move the mark.
		f.processed.Store(rec.LSN)
	}
	// Channel closed: either the feed's own Close (err stays nil) or a
	// live-tail overflow.
	if f.sub.overflow {
		f.err = cdc.ErrSlowConsumer
	}
}
