package core

// The clustered read (paper §3.6.4–3.6.5, Figure 10): compaction
// rewrites the log into sorted segments clustered by (table, column
// group, key, timestamp), so the rows of a forward scan whose visible
// version lies in a sorted segment sit in that segment in key order.
// scanShard's index walk still decides every row — snapshots, deletes,
// racing writes and the push-down predicates resolve exactly as on the
// index path — and this file only changes how its entries are read.
// Each sorted segment covering the scan gets one forward reader
// (wal.Scanner.ValueAt) that checks just the frame an entry
// points at and hands fetchRows a view of its value, which fetchRows
// filters and copies exactly as it does a batch-read one. Everything
// else goes through fetchRows' other paths: the unsorted tail, a
// segment written since the scan started, a pointer behind its reader.
//
// Cost shape on the modelled disk: each reader moves through its
// segment in contiguous read-ahead refills (64 KB, doubling with what
// it has travelled up to 2 MB; a gap shorter than one read-ahead is
// read through, a longer one is a jump), so a clustered scan pays about
// one seek per refill. The index path pays a head movement every time
// consecutive keys resolve to different segments — the steady state
// after incremental compaction, where sorted segments overlap.
// internal/bench's scan-clustered experiment holds the gap at >= 2x. A
// LIMIT scan reads about one 64 KB refill from each segment it touches.

import (
	"bytes"
	"slices"

	"repro/internal/wal"
)

// segWindows is one scan shard's forward readers, one per sorted
// segment that covered the shard's range when it started. A nil
// *segWindows reads nothing: every entry goes to the batched fetch.
type segWindows struct {
	log  *wal.Log
	segs []segWindow
	// For the clustered-scan counters: readers opened, and rows the scan
	// resolved outside every reader.
	opened, overlay int64
}

type segWindow struct {
	num uint32
	sc  *wal.Scanner // opened at the first entry that lands here
}

// sortedWindows plans the clustered read of a serial scan of [start,
// end) on t. It returns nil when the read does not apply: a reverse
// scan (the index's descending walk has no forward reader), a server
// with NoClusteredScan, or no sorted segment covering the range.
func (s *Server) sortedWindows(t *Tablet, group string, start, end []byte, reverse bool) *segWindows {
	if s.cfg.NoClusteredScan || reverse {
		return nil
	}
	// Intersect the request with the tablet's range: sorted segments
	// hold the whole server's data, but this tablet only scans its own
	// slice.
	if len(t.rng.Start) > 0 && (start == nil || bytes.Compare(start, t.rng.Start) < 0) {
		start = t.rng.Start
	}
	if t.rng.End != nil && (end == nil || bytes.Compare(t.rng.End, end) < 0) {
		end = t.rng.End
	}
	var w *segWindows
	for _, si := range s.log.Segments() {
		if !si.Sorted {
			continue
		}
		if meta := s.log.SegmentMeta(si.Num); meta != nil && meta.Covers(t.table, group, start, end) {
			if w == nil {
				w = &segWindows{log: s.log}
			}
			w.segs = append(w.segs, segWindow{num: si.Num})
		}
	}
	return w
}

// at returns the value of the record at p, read through its segment's
// reader: a view valid until the next call (wal.Scanner.ValueAt).
// ok=false (with a nil error) sends the entry to the batched fetch.
func (w *segWindows) at(p wal.Ptr) ([]byte, bool, error) {
	if w == nil {
		return nil, false, nil
	}
	for i := range w.segs {
		sw := &w.segs[i]
		if sw.num != p.Seg {
			continue
		}
		if sw.sc == nil {
			sc, err := w.log.OpenSegmentScanner(p.Seg, p.Off)
			if err != nil {
				// Reclaimed before the scan first reached it (listed after the
				// scan pinned its segments): fetchRows salvages its rows.
				w.segs = slices.Delete(w.segs, i, i+1)
				break
			}
			sw.sc = sc
			w.opened++
		}
		v, ok, err := sw.sc.ValueAt(p)
		if ok || err != nil {
			return v, ok, err
		}
		break
	}
	w.overlay++
	return nil, false, nil
}

// close releases the readers and counts the scan as clustered when it
// read a sorted segment.
func (w *segWindows) close(s *Server) {
	if w == nil {
		return
	}
	for _, sw := range w.segs {
		if sw.sc != nil {
			sw.sc.Close()
		}
	}
	if s.obs.enabled && w.opened > 0 {
		s.obs.clusteredScans.Inc()
		s.obs.clusteredSegments.Add(w.opened)
		s.obs.overlayRows.Add(w.overlay)
	}
}
