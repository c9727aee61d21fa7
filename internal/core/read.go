package core

// Server-side evaluation of the wire-level read options (readopt) for
// the non-range read paths: ReadRow unifies Get / GetAt / Versions
// behind one options-driven entry point, and FullScanOpts applies
// snapshot pinning, limits, and the serializable predicate set to the
// log-order full scan. Both evaluate every option INSIDE the tablet
// server, so a limited or filtered read ships only matching rows.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/readopt"
	"repro/internal/wal"
)

// maxTS is the "latest" snapshot sentinel.
const maxTS = int64(^uint64(0) >> 1)

// ReadRow is the unified point-read: the latest version of key visible
// at ro.Snapshot (0 = latest committed), or — with ro.AllVersions —
// every stored version, oldest first (newest first with ro.Reverse),
// optionally capped by ro.Limit and filtered by ro.Value. The
// single-version path returns ErrNotFound when nothing is visible (or
// the visible version fails the value predicate); the AllVersions path
// returns an empty slice instead.
func (s *Server) ReadRow(tabletID, group string, key []byte, ro readopt.Options) ([]Row, error) {
	defer s.obs.since(s.obs.read, s.obs.start())
	ts := ro.Snapshot
	if ts == 0 {
		ts = maxTS
	}
	if !ro.AllVersions {
		row, err := s.GetAt(tabletID, group, key, ts)
		if err != nil {
			return nil, err
		}
		if (ro.MinTS != 0 && row.TS < ro.MinTS) || (ro.MaxTS != 0 && row.TS > ro.MaxTS) {
			return nil, fmt.Errorf("%w: %s/%s %q (time range)", ErrNotFound, tabletID, group, key)
		}
		if !ro.Value.Match(row.Value) {
			return nil, fmt.Errorf("%w: %s/%s %q (value predicate)", ErrNotFound, tabletID, group, key)
		}
		return []Row{row}, nil
	}

	t, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return nil, err
	}
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)
	entries := g.tree().Versions(key, nil) // ascending timestamp
	if ro.Reverse {
		slices.Reverse(entries)
	}
	rows := make([]Row, 0, len(entries))
	var loadBytes int64
	for _, e := range entries {
		if e.TS > ts {
			continue
		}
		if ro.MinTS != 0 && e.TS < ro.MinTS {
			continue
		}
		if ro.MaxTS != 0 && e.TS > ro.MaxTS {
			continue
		}
		rec, err := s.readEntry(g, key, e.TS, e.Ptr)
		if errors.Is(err, errRowVanished) {
			continue
		}
		if err != nil {
			return nil, err
		}
		s.stats.LogReads.Add(1)
		if !ro.Value.Match(rec.Value) {
			continue
		}
		loadBytes += int64(len(rec.Value))
		rows = append(rows, Row{Key: key, TS: e.TS, Value: rec.Value})
		if ro.Limit > 0 && len(rows) >= ro.Limit {
			break // limit hit: stop issuing log reads
		}
	}
	s.stats.Reads.Add(1)
	t.load.add(int64(len(rows)), loadBytes)
	return rows, nil
}

// FullScanOpts streams live records of the column group in log order
// with the push-down options applied server-side: Prefix and Key
// restrict which records qualify, Snapshot pins visibility (a record
// counts when it is the version visible at the snapshot, so a
// historical full scan sees the table as of that timestamp), Value
// filters on the fetched payload, and Limit stops the log sweep as soon
// as enough surviving rows have streamed. Reverse is ignored: a full
// scan's contract is log order, not key order. Cancelling ctx aborts
// within scanCheckEvery records.
func (s *Server) FullScanOpts(ctx context.Context, tabletID, group string, ro readopt.Options, fn func(Row) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer s.obs.since(s.obs.fullscan, s.obs.start())
	ctx, sp := obs.StartSpan(ctx, "tablet.fullscan")
	sp.Label("server", s.id)
	sp.Label("tablet", tabletID)
	defer sp.Finish()
	t, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return err
	}
	ts := ro.Snapshot
	if ts == 0 {
		ts = maxTS
	}
	start, end := ro.ClampRange(nil, nil)

	// Clustered fast path: on a compacted log the full scan streams the
	// sorted segments (merged with the index overlay for the tail) in
	// key order — sequential reads, no per-record index probe per log
	// byte. The contract stays "storage order, every visible row"; only
	// uncompacted logs take the log-order sweep below.
	opt := ReadScanOptions(start, end, ts, ro)
	opt.Reverse = false // a full scan's order is unspecified; never decline on it
	stop := errors.New("limit")
	handled, cerr := s.clusteredScan(ctx, t, g, group, opt, opt.Start, opt.End, func(rows []Row) error {
		for _, r := range rows {
			if !fn(r) {
				return stop
			}
		}
		return nil
	})
	if handled {
		if errors.Is(cerr, stop) {
			return nil
		}
		return cerr
	}

	inRange := func(key []byte) bool {
		if len(start) > 0 && bytes.Compare(key, start) < 0 {
			return false
		}
		return end == nil || bytes.Compare(key, end) < 0
	}
	var loadRows, loadBytes int64
	defer func() { t.load.add(loadRows, loadBytes) }()
	emitted := 0
	sc := s.log.NewScanner(wal.Position{})
	defer sc.Close()
	for n := 0; sc.Next(); n++ {
		if n%scanCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec := sc.Record()
		// By table and range, not by tablet id: records written before a
		// split carry the parent's.
		if rec.Kind != wal.KindWrite || rec.Table != t.table || rec.Group != group || !t.rng.Contains(rec.Key) {
			continue
		}
		if !inRange(rec.Key) || !ro.Key.Match(rec.Key) {
			continue
		}
		// Only the version visible at the snapshot counts, and only the
		// copy of it this tablet's index points at.
		var cur index.Entry
		var ok bool
		if ts == maxTS {
			cur, ok = g.tree().Latest(rec.Key)
		} else {
			cur, ok = g.tree().LatestAt(rec.Key, ts)
		}
		if !ok || cur.Ptr != sc.Ptr() {
			continue
		}
		if ro.MinTS != 0 && rec.TS < ro.MinTS {
			continue
		}
		if ro.MaxTS != 0 && rec.TS > ro.MaxTS {
			continue
		}
		if !ro.Value.Match(rec.Value) {
			continue
		}
		loadRows++
		loadBytes += int64(len(rec.Value))
		if !fn(Row{Key: rec.Key, TS: rec.TS, Value: rec.Value}) {
			return nil
		}
		if emitted++; ro.Limit > 0 && emitted >= ro.Limit {
			return nil // limit hit: stop sweeping the log
		}
	}
	return sc.Err()
}
