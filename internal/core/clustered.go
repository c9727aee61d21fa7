package core

// The clustered scan fast path (paper §3.6.4–3.6.5, Figure 10):
// compaction rewrites the log into sorted segments clustered by
// (table, column group, key, timestamp), so an analytical scan can
// stream those segments sequentially instead of resolving every row
// through the per-key index and a log fetch. The planner here
// k-way-merges the sorted segments covering a requested range with an
// index-driven overlay for everything the sorted set does not hold
// (records still in unsorted tail segments), and validates each
// emitted key against the MVCC index so visibility — snapshots,
// deletes, racing writes — is decided exactly like the index path.
//
// Cost shape on the modelled disk: each segment streams through a
// large contiguous read-ahead buffer (one seek per refill, pure
// sequential transfer otherwise), while the per-key index path pays a
// head movement every time consecutive keys resolve to different
// segments — the steady state after incremental compaction, where
// sorted segments overlap. internal/bench's scan-clustered experiment
// holds the gap at >= 2x.

import (
	"bytes"
	"context"
	"errors"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/wal"
)

// segStream is one sorted segment's record stream restricted to a
// (table, group, [start, end)) target.
type segStream struct {
	sc    *wal.SegmentScanner
	table string
	group string
	end   []byte // exclusive; nil = open

	rec   wal.Record
	ptr   wal.Ptr
	valid bool
}

// advance positions the stream at its next in-target write record;
// valid=false means the stream is exhausted (or errored — check
// sc.Err).
func (ss *segStream) advance(start []byte) {
	ss.valid = false
	for ss.sc.Next() {
		rec := ss.sc.Record()
		if rec.Kind != wal.KindWrite {
			continue // tombstones/commits ride along in sorted segments
		}
		if rec.Table != ss.table || rec.Group != ss.group {
			// Clustering order: once past the target (table, group) pair
			// the stream holds nothing further for this scan.
			if rec.Table > ss.table || (rec.Table == ss.table && rec.Group > ss.group) {
				return
			}
			continue
		}
		if len(start) > 0 && bytes.Compare(rec.Key, start) < 0 {
			continue
		}
		if ss.end != nil && bytes.Compare(rec.Key, ss.end) >= 0 {
			return
		}
		ss.rec, ss.ptr, ss.valid = rec, ss.sc.Ptr(), true
		return
	}
}

// overlayCursor pages the index entries whose visible version lives
// OUTSIDE the sorted segment set — the unsorted tail (and the read
// buffer's backing records). It enumerates one entry per key (the
// version visible at the pinned snapshot), in key order, re-descending
// the tree between pages so the latch is never held across I/O.
type overlayCursor struct {
	g    *columnGroup
	set  map[uint32]bool
	ts   int64
	end  []byte
	page int

	buf    []index.Entry
	i      int
	cursor []byte
	done   bool
}

// cur returns the overlay's current entry, filling the next page on
// demand.
func (o *overlayCursor) cur() (index.Entry, bool) {
	for {
		if o.i < len(o.buf) {
			return o.buf[o.i], true
		}
		if o.done {
			return index.Entry{}, false
		}
		o.fill()
	}
}

func (o *overlayCursor) next() { o.i++ }

func (o *overlayCursor) fill() {
	o.buf = o.buf[:0]
	o.i = 0
	var lastVisited []byte
	visited := 0
	o.g.tree().RangeLatest(o.cursor, o.end, o.ts, func(e index.Entry) bool {
		lastVisited = e.Key
		visited++
		if !o.set[e.Ptr.Seg] {
			o.buf = append(o.buf, index.Entry{
				Key: append([]byte(nil), e.Key...), TS: e.TS, Ptr: e.Ptr, LSN: e.LSN,
			})
		}
		// Bound both collected entries AND visited keys, so a long run of
		// filtered-out (sorted-resident) keys cannot pin the latch, and
		// the resume cursor always moves forward.
		return len(o.buf) < o.page && visited < o.page*8
	})
	if lastVisited == nil {
		o.done = true
		return
	}
	if len(o.buf) < o.page && visited < o.page*8 {
		// The walk ended because the range was exhausted, not because a
		// page bound stopped it.
		o.done = true
		return
	}
	// Resume just past the last visited key (one entry per key, so the
	// successor cannot skip data).
	o.cursor = append(append(make([]byte, 0, len(lastVisited)+1), lastVisited...), 0)
}

// clusteredScan attempts the segment-merge fast path for a serial
// forward scan of [start, end) under opt. It reports handled=false when
// the fast path does not apply — reverse scans (which fall back to the
// index's descending traversal), scans with the path disabled, or no
// sorted segment covering the target.
func (s *Server) clusteredScan(ctx context.Context, t *Tablet, g *columnGroup, group string, opt ScanOptions, start, end []byte, emit func([]Row) error) (bool, error) {
	if s.cfg.NoClusteredScan || opt.Reverse {
		return false, nil
	}
	// Intersect the request with the tablet's range: sorted segments
	// hold the whole server's data, but this tablet's tree only answers
	// for its own slice.
	if len(t.rng.Start) > 0 && (start == nil || bytes.Compare(start, t.rng.Start) < 0) {
		start = t.rng.Start
	}
	if t.rng.End != nil && (end == nil || bytes.Compare(t.rng.End, end) < 0) {
		end = t.rng.End
	}

	var nums []uint32
	for _, si := range s.log.Segments() {
		if !si.Sorted {
			continue
		}
		meta := s.log.SegmentMeta(si.Num)
		if meta == nil || !meta.Covers(t.table, group, start, end) {
			continue
		}
		nums = append(nums, si.Num)
	}
	if len(nums) == 0 {
		return false, nil
	}

	// Pin the whole live set for the scan's duration: the merge holds
	// wal.Ptrs across batches, and a racing compaction must not delete
	// files underneath them.
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)

	sortedSet := make(map[uint32]bool, len(nums))
	streams := make([]*segStream, 0, len(nums))
	defer func() {
		for _, ss := range streams {
			ss.sc.Close()
		}
	}()
	target := wal.RecordKey{Table: t.table, Group: group, Key: start}
	for _, num := range nums {
		meta := s.log.SegmentMeta(num)
		if meta == nil {
			continue // doomed since planning; its records live elsewhere now
		}
		sc, err := s.log.OpenSegmentScanner(num, meta.SeekOffset(target))
		if err != nil {
			return true, err
		}
		sortedSet[num] = true
		ss := &segStream{sc: sc, table: t.table, group: group, end: end}
		// Register before the first advance so the deferred closer
		// releases the pin even when the advance errors.
		streams = append(streams, ss)
		ss.advance(start)
		if err := sc.Err(); err != nil {
			return true, err
		}
	}

	if s.obs.enabled {
		s.obs.clusteredScans.Inc()
		s.obs.clusteredSegments.Add(int64(len(streams)))
	}
	ctx, sp := obs.StartSpan(ctx, "scan.clustered")
	sp.LabelInt("segments", int64(len(streams)))
	defer sp.Finish()

	batch := opt.Batch
	if batch <= 0 {
		batch = defaultScanBatch
	}
	overlay := &overlayCursor{g: g, set: sortedSet, ts: opt.TS, end: end, page: batch, cursor: start}
	var overlayServed, rejects int64
	defer func() {
		sp.LabelInt("overlay_rows", overlayServed)
		sp.LabelInt("validation_rejects", rejects)
		if s.obs.enabled {
			s.obs.overlayRows.Add(overlayServed)
			s.obs.validationRejects.Add(rejects)
		}
	}()

	// pending is one not-yet-emitted row; rows whose visible version
	// must be fetched from the log carry fetch=true and resolve in one
	// batched coalesced read at flush time.
	type pending struct {
		row   Row
		ptr   wal.Ptr
		fetch bool
	}
	remaining := opt.Limit // 0 = unlimited
	var buf []pending
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var fetchIdx []int
		var fetchPtrs []wal.Ptr
		for i := range buf {
			if buf[i].fetch {
				fetchIdx = append(fetchIdx, i)
				fetchPtrs = append(fetchPtrs, buf[i].ptr)
			}
		}
		vanished := map[int]bool{}
		if len(fetchPtrs) > 0 {
			recs, err := s.log.ReadBatch(fetchPtrs)
			if err != nil {
				// A segment created after the scan's pin snapshot was
				// reclaimed mid-scan; re-resolve row by row through the
				// live index.
				for _, i := range fetchIdx {
					rec, rerr := s.readEntry(g, buf[i].row.Key, buf[i].row.TS, buf[i].ptr)
					if errors.Is(rerr, errRowVanished) {
						vanished[i] = true
						continue
					}
					if rerr != nil {
						return rerr
					}
					buf[i].row.Value = rec.Value
				}
			} else {
				for j, i := range fetchIdx {
					buf[i].row.Value = recs[j].Value
				}
			}
		}
		rows := make([]Row, 0, len(buf))
		var bytesOut int64
		for i := range buf {
			if vanished[i] {
				continue
			}
			r := buf[i].row
			if !opt.ValuePred.Match(r.Value) {
				continue
			}
			rows = append(rows, r)
			bytesOut += int64(len(r.Value))
		}
		if opt.Limit > 0 && len(rows) > remaining {
			rows = rows[:remaining]
		}
		buf = buf[:0]
		if len(rows) == 0 {
			return nil
		}
		s.stats.LogReads.Add(int64(len(rows)))
		t.load.add(int64(len(rows)), bytesOut)
		if opt.Limit > 0 {
			remaining -= len(rows)
		}
		return emit(rows)
	}

	tree := g.tree()
	for {
		if err := ctx.Err(); err != nil {
			return true, err
		}
		// The next key is the minimum across segment streams and overlay.
		var key []byte
		for _, ss := range streams {
			if ss.valid && (key == nil || bytes.Compare(ss.rec.Key, key) < 0) {
				key = ss.rec.Key
			}
		}
		ov, ovOK := overlay.cur()
		if ovOK && (key == nil || bytes.Compare(ov.Key, key) <= 0) {
			key = ov.Key
		}
		if key == nil {
			break // both sources exhausted
		}
		key = append([]byte(nil), key...)

		// Gather every stream version of the key (consecutive in each
		// stream) so the winner can usually be served without any log
		// fetch, then advance all sources past it.
		type cand struct {
			ptr   wal.Ptr
			value []byte
		}
		var cands []cand
		for _, ss := range streams {
			for ss.valid && bytes.Equal(ss.rec.Key, key) {
				cands = append(cands, cand{ptr: ss.ptr, value: ss.rec.Value})
				ss.advance(key)
				if err := ss.sc.Err(); err != nil {
					return true, err
				}
			}
		}
		fromOverlay := false
		if ovOK && bytes.Equal(ov.Key, key) {
			overlay.next()
			fromOverlay = true
		}

		// The index stays authoritative for visibility: deletes, racing
		// writes, and snapshot pinning all resolve here, making the fast
		// path agree with the index path row for row.
		e, ok := tree.LatestAt(key, opt.TS)
		if !ok {
			rejects++
			continue // deleted, or nothing visible at this snapshot
		}
		if fromOverlay {
			overlayServed++
		}
		if opt.MinTS != 0 && e.TS < opt.MinTS {
			continue
		}
		if opt.MaxTS != 0 && e.TS > opt.MaxTS {
			continue
		}
		if !opt.KeyPred.Match(key) {
			continue
		}
		p := pending{row: Row{Key: key, TS: e.TS}}
		served := false
		for _, c := range cands {
			if c.ptr == e.Ptr {
				p.row.Value = c.value
				served = true
				break
			}
		}
		if !served {
			p.ptr, p.fetch = e.Ptr, true
		}
		buf = append(buf, p)
		if len(buf) >= batch {
			if err := flush(); err != nil {
				return true, err
			}
			if opt.Limit > 0 && remaining <= 0 {
				return true, nil
			}
		}
	}
	return true, flush()
}
