package core

// Changefeeds off the log (the cdc subsystem's server half). The heavy
// lifting — pinned-segment catch-up, the log's in-memory tail, and
// transactional cursor resolution — lives in the shared log-reader
// (logfeed.go), which WAL-shipping replication rides too; this file is
// only the cdc-facing shape: the table/group/range filter and the
// wal.Record → cdc.Event conversion.

import (
	"bytes"
	"context"

	"repro/internal/cdc"
	"repro/internal/wal"
)

// feedFilter selects the records a feed observes: one table, an
// optional column group ("" = all), and a key range [start, end) with
// nil meaning open on that side.
type feedFilter struct {
	table      string
	group      string
	start, end []byte
}

// matchesView reports whether a feed with filter f selects the frame v,
// read in place; a nil filter selects every frame.
func (f *feedFilter) matchesView(v *wal.View) bool {
	return f == nil || f.selects(string(v.Table()) == f.table, string(v.Group()) == f.group, v.Key())
}

func (f *feedFilter) selects(table, group bool, key []byte) bool {
	if !table || (f.group != "" && !group) {
		return false
	}
	if len(f.start) > 0 && bytes.Compare(key, f.start) < 0 {
		return false
	}
	return f.end == nil || bytes.Compare(key, f.end) < 0
}

// Feed is a server-local changefeed (implements cdc.Feed): the ordered
// stream of committed mutations of one table/range on this server. It
// is a thin event-typed view over the shared RecordFeed.
type Feed struct {
	rf *RecordFeed
}

// Watch opens a changefeed over this server's log for one table,
// optional column group ("" = all groups), and key range [start, end)
// (nil bounds = open). Events stream in commit order (ascending
// Cursor), starting at fromLSN: historical records replay from the
// log's segments, then the feed follows the log's tail with no gap and
// no duplicates.
//
// fromLSN semantics: 0 replays the full retained history (compaction
// may have coalesced it — superseded versions and vacuumed rows are
// gone — but the replayed stream always reconstructs the current
// state). A non-zero fromLSN is an exact resume point (last delivered
// Cursor + 1); if compaction has since reclaimed records above it, the
// call fails with cdc.ErrCursorTruncated and the consumer must
// re-bootstrap.
func (s *Server) Watch(table, group string, start, end []byte, fromLSN uint64) (*Feed, error) {
	rf, err := s.subscribeRecords(&feedFilter{table: table, group: group, start: start, end: end}, fromLSN)
	if err != nil {
		return nil, err
	}
	return &Feed{rf: rf}, nil
}

// raisePruneHorizon lifts the reclaim horizon (never lowers it).
func (s *Server) raisePruneHorizon(lsn uint64) {
	for {
		cur := s.pruneHorizon.Load()
		if lsn <= cur || s.pruneHorizon.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Next returns the next event. It blocks until an event arrives, ctx
// is cancelled, or the feed terminates (cdc.ErrCursorTruncated when a
// lagging feed's gap was compacted away, cdc.ErrFeedClosed after
// Close).
func (f *Feed) Next(ctx context.Context) (cdc.Event, error) {
	ev, err := f.rf.Next(ctx)
	if err != nil {
		return cdc.Event{}, err
	}
	if f.rf.s.obs.enabled {
		f.rf.s.obs.cdcEvents.Inc()
	}
	return eventFrom(&ev.Rec, ev.Cursor), nil
}

// Close releases the feed: an unfinished catch-up drops its segment
// pins, and any blocked Next returns. Idempotent.
func (f *Feed) Close() error { return f.rf.Close() }

func eventFrom(rec *wal.Record, cursor uint64) cdc.Event {
	kind := cdc.Put
	if rec.Kind == wal.KindDelete {
		kind = cdc.Delete
	}
	return cdc.Event{
		Kind: kind, Table: rec.Table, Group: rec.Group,
		Key: rec.Key, Value: rec.Value, TS: rec.TS,
		LSN: rec.LSN, Cursor: cursor,
	}
}
