package core

// Elastic tablet management, server side (paper §3.2–§3.3 assume
// Bigtable-style tablets that split and move as load shifts):
//
//   - SplitTablet cuts one served tablet into two children at an
//     arbitrary key. Because the log is the only data repository, the
//     split copies NO data: each child gets a fresh in-memory index
//     whose entries point at the same log records as the parent's, and
//     the parent's log segments are simply shared by both children.
//   - FreezeTablet/UnfreezeTablet implement the brief cutover window of
//     a live migration: mutations on a frozen tablet fail with
//     ErrTabletFrozen (retryable stale routing from a client's view)
//     while reads keep being served until the routing flip.
//   - NewReplaySession/CatchUp drive live migration and range-aware
//     failover: another server's log is replayed into this one through
//     the shared record-apply path (apply.go).

import (
	"bytes"
	"fmt"

	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/wal"
)

// FreezeTablet blocks mutations on a tablet (reads still serve). It
// waits for in-flight mutations to drain, so when it returns every
// accepted write is durable in this server's log, and a catch-up round
// that starts after it returns reads them all. Idempotent.
func (s *Server) FreezeTablet(tabletID string) error {
	t, err := s.tablet(tabletID)
	if err != nil {
		return err
	}
	// Taking the install latch exclusively drains writers (they hold it
	// shared across the whole append), so the freeze flag is observed by
	// every mutation that starts after this returns.
	s.installMu.Lock()
	t.frozen.Store(true)
	s.installMu.Unlock()
	return nil
}

// UnfreezeTablet re-enables mutations (migration rollback). Idempotent.
func (s *Server) UnfreezeTablet(tabletID string) error {
	t, err := s.tablet(tabletID)
	if err != nil {
		return err
	}
	t.frozen.Store(false)
	return nil
}

// SplitKey proposes a data-driven split point for a tablet: the
// population midpoint of its largest column-group index (reusing the
// index's even-population leaf sampling, index.Tree.SplitKeys). Returns
// false when the tablet is too small to yield an interior key.
func (s *Server) SplitKey(tabletID string) ([]byte, bool) {
	t, err := s.tablet(tabletID)
	if err != nil {
		return nil, false
	}
	t.mu.RLock()
	var biggest *columnGroup
	for _, g := range t.groups {
		if biggest == nil || g.tree().Len() > biggest.tree().Len() {
			biggest = g
		}
	}
	t.mu.RUnlock()
	if biggest == nil {
		return nil, false
	}
	keys := biggest.tree().SplitKeys(t.rng.Start, t.rng.End, 2)
	if len(keys) == 0 {
		return nil, false
	}
	mid := keys[len(keys)/2]
	if len(t.rng.Start) > 0 && bytes.Compare(mid, t.rng.Start) <= 0 {
		return nil, false
	}
	if t.rng.End != nil && bytes.Compare(mid, t.rng.End) >= 0 {
		return nil, false
	}
	return mid, true
}

// SplitTablet atomically replaces a served tablet with two children
// whose ranges partition the parent's at right.Range.Start. No log data
// moves: each child's index entries point at the very same records the
// parent's did. Mutations are drained for the duration of the index
// partition (the install latch), exactly like a checkpoint install;
// in-flight reads keep using the parent's (still valid) trees.
func (s *Server) SplitTablet(parentID string, left, right partition.Tablet) error {
	splitKey := right.Range.Start
	if len(splitKey) == 0 {
		return fmt.Errorf("core: split tablet %s: empty split key", parentID)
	}
	s.installMu.Lock()
	defer s.installMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, ok := s.tablets[parentID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTablet, parentID)
	}
	if _, ok := s.tablets[left.ID]; ok {
		return fmt.Errorf("core: split child %s already served", left.ID)
	}
	if _, ok := s.tablets[right.ID]; ok {
		return fmt.Errorf("core: split child %s already served", right.ID)
	}
	if !parent.rng.Contains(splitKey) {
		return fmt.Errorf("core: split key %q outside tablet %s", splitKey, parentID)
	}
	mk := func(spec partition.Tablet) *Tablet {
		return &Tablet{id: spec.ID, table: parent.table, rng: spec.Range, groups: make(map[string]*columnGroup)}
	}
	lt, rt := mk(left), mk(right)
	parent.mu.RLock()
	for name, g := range parent.groups {
		lg := &columnGroup{name: name}
		rg := &columnGroup{name: name}
		ltree, rtree := index.New(), index.New()
		g.tree().Ascend(func(e index.Entry) bool {
			if bytes.Compare(e.Key, splitKey) < 0 {
				ltree.Put(e)
			} else {
				rtree.Put(e)
			}
			return true
		})
		lg.idx.Store(ltree)
		rg.idx.Store(rtree)
		lt.groups[name] = lg
		rt.groups[name] = rg
	}
	parent.mu.RUnlock()
	delete(s.tablets, parentID)
	s.tablets[left.ID] = lt
	s.tablets[right.ID] = rt
	return nil
}

// NewReplaySession opens a replay of a source log (from srcStart,
// typically the zero position or the source's last checkpoint) into
// this server, adopting the given tablet specs. The specs' tablets must
// already be declared here via AddTablet.
//
// For live migration pass the source server's live Log() — a reopened
// log snapshots segment sizes and would never see the source's ongoing
// appends. For failover from a dead server use OpenPeerLog.
func (s *Server) NewReplaySession(srcLog *wal.Log, srcStart wal.Position, specs []partition.Tablet) (*ReplaySession, error) {
	adopted := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if _, err := s.tablet(spec.ID); err != nil {
			return nil, err
		}
		adopted[spec.ID] = true
	}
	return newReplaySession(s, srcLog, srcStart, adopted), nil
}

// SetHighWater seeds the replay's LSN high-water mark: source records
// at or below lsn are treated as already covered and skipped. Replica
// promotion uses it — the promoted standby already holds everything the
// shipping feed applied through its watermark LSN, so replaying the
// dead primary's full log (positions into compacted segments are not
// durable, LSNs are) only applies the delta past the watermark.
func (rs *ReplaySession) SetHighWater(lsn uint64) {
	if lsn > rs.highWater {
		rs.highWater = lsn
	}
}

// PendingLive reports whether any buffered prepared-but-uncommitted
// record satisfies held — the migration cutover passes a lock-service
// probe, so prepared transactions still in their commit phase (write
// locks held) abort the cutover, while orphaned prepare records from
// long-dead transactions don't block migration forever.
func (rs *ReplaySession) PendingLive(held func(tablet, group string, key []byte) bool) bool {
	for _, parked := range rs.pending {
		for i := range parked {
			if rec := &parked[i].rec; held(rec.Tablet, rec.Group, rec.Key) {
				return true
			}
		}
	}
	return false
}

// OpenPeerLog opens another (dead) server's log in the shared DFS for
// replay. The returned log is a read-only snapshot of the segments as
// of the open; use the peer's live Log() instance to follow ongoing
// appends.
func (s *Server) OpenPeerLog(srcServerID string) (*wal.Log, error) {
	return wal.Open(s.fs, "log/"+srcServerID, wal.Options{SegmentSize: s.cfg.SegmentSize, Peer: true})
}

// CatchUp replays the source log from the session's cursor up to the
// log's current end, applying committed records for the adopted ranges,
// and advances the cursor. It returns the number of records applied
// this round; call it repeatedly until the returned count is small,
// freeze the source tablet, then call it once more to drain the tail.
//
// The round's records are buffered in order and handed to reappend in
// batches of at most reappendBatchBytes, the last before CatchUp returns.
//
// A round reads the source's log as it finds it on entry: up to End in
// the segment open for append, and the incremental compaction output
// numbered above that segment. Anything appended while it scans is left
// for the next round. The source's log is only read, never rotated.
func (rs *ReplaySession) CatchUp() (int, error) {
	before := rs.applied
	batch, size := []wal.Record(nil), 0
	flush := func() error {
		n, err := rs.dst.reappend(batch, rs.adopted)
		rs.applied += n
		batch, size = batch[:0], 0
		return err
	}
	err := rs.round(func(rec *wal.Record, _ wal.Ptr) (bool, error) {
		n := wal.FrameSize(rec)
		if size+n > reappendBatchBytes {
			if err := flush(); err != nil {
				return false, err
			}
		}
		batch, size = append(batch, *rec), size+n
		return false, nil // counted by flush
	})
	if err == nil {
		err = flush()
	}
	return rs.applied - before, err
}
