// Package cdc defines LogBase's change-data-capture surface: the event
// model and feed contract shared by the per-server changefeed engine
// (internal/core), the cluster scatter-gather feed (internal/cluster),
// and everything stacked on top (materialized views, the wire
// protocol, the CLI).
//
// The design falls out of the paper's central claim — the log is the
// ONLY data repository (arXiv:1207.0140). Every committed mutation is
// already durable, LSN-ordered, and addressable in the WAL, so a
// changefeed needs no second pipeline: it is a resumable cursor over
// committed log records. Historical catch-up is a sequential sweep of
// pinned segments; new records come from the log's in-memory tail, and
// no writer waits on a feed. The only genuinely new state is the
// cursor itself.
package cdc

import (
	"context"
	"errors"
	"fmt"
)

// EventKind discriminates changefeed events.
type EventKind uint8

const (
	// Put is an insert or update of one row/column-group version.
	Put EventKind = iota + 1
	// Delete is a row invalidation (tombstone).
	Delete
)

func (k EventKind) String() string {
	switch k {
	case Put:
		return "PUT"
	case Delete:
		return "DELETE"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one committed mutation, in the order it entered the log.
type Event struct {
	Kind  EventKind
	Table string
	Group string
	Key   []byte
	// Value is the written content; nil for Delete.
	Value []byte
	// TS is the version timestamp (commit timestamp for transactional
	// writes). Timestamps are globally ordered across the cluster, which
	// is what lets consumers deduplicate re-deliveries after a tablet
	// migrates (migration replays records into the destination log under
	// new LSNs but original timestamps).
	TS int64
	// LSN is the record's log sequence number in the serving server's
	// log. Within one server the feed is strictly LSN-ascending.
	LSN uint64
	// Cursor is the resume point: reopening the feed at FromLSN =
	// Cursor+1 continues exactly after this event. For auto-commit
	// mutations Cursor == LSN; for transactional mutations it is the
	// commit record's LSN (the transaction only became visible there, so
	// resuming past it must skip the whole transaction).
	Cursor uint64
}

// ErrCursorTruncated reports that a feed's resume LSN has fallen behind
// the log's reclaim horizon: compaction has dropped records above the
// requested position, so resuming there could silently miss mutations.
// The consumer must re-bootstrap (snapshot scan + fresh feed), or
// restart from LSN 0 to replay the retained (coalesced) history.
var ErrCursorTruncated = errors.New("cdc: cursor behind compaction horizon; re-bootstrap required")

// ErrFeedClosed reports a Next call on a closed feed.
var ErrFeedClosed = errors.New("cdc: feed closed")

// Feed is a pull-based event iterator. Next blocks until an event is
// available, the context is cancelled, or the feed fails; after a
// non-nil error the feed is dead (Close is still required).
type Feed interface {
	// Next returns the next event in feed order.
	Next(ctx context.Context) (Event, error)
	// Close releases the feed's resources (segment pins, goroutines).
	// Idempotent.
	Close() error
}
