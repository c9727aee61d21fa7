package logbase

// Changefeeds: because the log is the ONLY repository, a changefeed is
// nothing more than a resumable cursor over the committed record
// stream — there is no second pipeline to build or keep consistent.
// Watch returns a pull-based feed that first catches up through the
// retained log segments (historical events, oldest first) and then
// switches seamlessly to a live tail fed from the group-commit flush
// path, in total LSN order, without missing or duplicating events
// across the handoff.
//
// Cursor contract: every event carries a Cursor; after consuming event
// e a client may resume with fromLSN = e.Cursor+1 and observe exactly
// the events after e. Events from multi-record transactions share the
// transaction's commit LSN as their cursor, so a resume point can never
// split a transaction. Compaction may reclaim log records behind every
// feed's cursor; a resume below that horizon fails with
// ErrCursorTruncated, telling the consumer to re-bootstrap (fromLSN 0
// replays the compacted — coalesced but state-correct — history).

import "repro/internal/cdc"

// ChangeEvent is one committed mutation observed by a changefeed.
type ChangeEvent = cdc.Event

// ChangeKind discriminates Put and Delete events.
type ChangeKind = cdc.EventKind

// Changefeed event kinds.
const (
	ChangePut    = cdc.Put
	ChangeDelete = cdc.Delete
)

// ChangeFeed is a pull-based changefeed: call Next until it returns an
// error, then Close. See cdc.Feed.
type ChangeFeed = cdc.Feed

// WatchOptions tunes a changefeed subscription.
type WatchOptions = cdc.Options

// ErrCursorTruncated reports that a feed's resume LSN has fallen behind
// the compaction reclaim horizon: the exact event history below that
// point no longer exists in the log, so the consumer must re-bootstrap
// (snapshot scan + Watch from 0, or an mview re-registration).
var ErrCursorTruncated = cdc.ErrCursorTruncated

// ErrFeedClosed is returned by Next after the feed is closed.
var ErrFeedClosed = cdc.ErrFeedClosed

// ErrSlowConsumer reports that a live feed's buffer overflowed because
// the consumer fell too far behind the write rate. The feed is closed;
// resume a fresh Watch from the last delivered Cursor+1.
var ErrSlowConsumer = cdc.ErrSlowConsumer
