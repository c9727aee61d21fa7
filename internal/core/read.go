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

// scanCheckEvery is how many records the log-order full scan processes
// between context checks: cancellation is honoured within one such
// batch.
const scanCheckEvery = 128

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
	opt := ScanOptions{MinTS: ro.MinTS, MaxTS: ro.MaxTS, ValuePred: ro.Value, Limit: ro.Limit}
	kept := entries[:0]
	for _, e := range entries {
		if e.TS <= ts && opt.admits(e.Key, e.TS) {
			kept = append(kept, e)
		}
	}
	s.stats.Reads.Add(1)
	out := []Row{}
	collect := func(r []Row) error { out = append(out, r...); return nil }
	// With a Limit, each page fetches only as many versions as rows are
	// still owed, so the log reads stay bounded by Limit until the value
	// predicate has matched that many.
	for remaining := ro.Limit; len(kept) > 0; {
		page := kept
		if ro.Limit > 0 && remaining < len(page) {
			page = page[:remaining]
		}
		kept = kept[len(page):]
		rows, err := s.fetchRows(context.TODO(), t, g, group, page, false, ro.Value, nil)
		if err != nil {
			return nil, err
		}
		n, err := emitPage(t, &opt, remaining, rows, collect)
		if err != nil {
			return nil, err
		}
		if ro.Limit > 0 {
			if remaining -= n; remaining <= 0 {
				break
			}
		}
	}
	return out, nil
}

// FullScanOpts streams live records of the column group in storage
// order — key order when sorted segments cover the range, log order
// otherwise — with the push-down options applied server-side: Prefix
// and Key restrict which records qualify, Snapshot pins visibility (a
// record counts when it is the version visible at the snapshot, so a
// historical full scan sees the table as of that timestamp), Value
// filters on the fetched payload, and Limit stops the scan as soon as
// enough surviving rows have streamed. Reverse is ignored: a full
// scan's contract is storage order. Cancelling ctx aborts within one
// page, or within scanCheckEvery records of the log-order sweep.
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

	// On a compacted log the full scan runs the forward scan loop in key
	// order, reading the sorted segments front to back — sequential
	// reads, no per-record index probe per log byte. The contract stays
	// "storage order, every visible row"; only logs without a sorted
	// segment covering the range take the log-order sweep below.
	opt := ReadScanOptions(start, end, ts, ro)
	opt.Reverse = false // a full scan's order is unspecified; never decline on it
	if s.sortedWindows(t, group, opt.Start, opt.End, false) != nil {
		pinned := s.log.PinAll()
		defer s.log.Unpin(pinned...)
		stop := errors.New("limit")
		err := s.scanShard(ctx, t, g, group, opt, opt.Start, opt.End, func(rows []Row) error {
			for _, r := range rows {
				if !fn(r) {
					return stop
				}
			}
			return nil
		})
		if errors.Is(err, stop) {
			return nil
		}
		return err
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
		// Filter on the frame in place: only a returned row is copied.
		// By table and range, not by tablet id: records written before a
		// split carry the parent's.
		v := sc.View()
		key := v.Key()
		if v.Kind() != wal.KindWrite || string(v.Table()) != t.table || string(v.Group()) != group || !t.rng.Contains(key) {
			continue
		}
		if !inRange(key) || !ro.Key.Match(key) {
			continue
		}
		// Only the version visible at the snapshot counts, and only the
		// copy of it this tablet's index points at.
		var cur index.Entry
		var ok bool
		if ts == maxTS {
			cur, ok = g.tree().Latest(key)
		} else {
			cur, ok = g.tree().LatestAt(key, ts)
		}
		if !ok || cur.Ptr != sc.Ptr() {
			continue
		}
		if ro.MinTS != 0 && v.TS() < ro.MinTS {
			continue
		}
		if ro.MaxTS != 0 && v.TS() > ro.MaxTS {
			continue
		}
		if !ro.Value.Match(v.Value()) {
			continue
		}
		loadRows++
		loadBytes += int64(len(v.Value()))
		if !fn(Row{Key: bytes.Clone(key), TS: v.TS(), Value: bytes.Clone(v.Value())}) {
			return nil
		}
		if emitted++; ro.Limit > 0 && emitted >= ro.Limit {
			return nil // limit hit: stop sweeping the log
		}
	}
	return sc.Err()
}
