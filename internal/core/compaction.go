package core

// Log compaction / vacuuming (paper §3.6.5): one engine, rewrite, behind
// two entry points. CompactSegments hands it a chosen subset of sealed
// segments (the auto compactor's unit, autocompact.go); Compact seals
// the active segment, hands it every segment, and refreshes the
// checkpoint.
//
// Liveness is decided by the MVCC index, not by a log replay: a write
// record survives iff the index still points at exactly that location
// (committed, not deleted, not superseded) and it sits within the
// retention bound — compaction asks the structure reads use, so it
// cannot change what a read returns. Tombstones and commit records are
// carried forward (non-input segments may still hold records they
// invalidate or commit, and recovery's LSN-ordered replay rules make the
// carried copies harmless wherever they land) unless the input is the
// whole log behind a clean cut, when nothing is left for them to act on
// and they are vacuumed.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/wal"
)

// CompactionStats summarises one compaction run.
type CompactionStats struct {
	// RecordsIn counts the write, tombstone and commit records read from
	// the input segments; RecordsKept the records written to the output
	// (survivors, carried markers, carried 2PC preparations); Dropped is
	// the difference: obsolete, invalidated and uncommitted records, and
	// the markers of a whole-log run.
	RecordsIn      int
	RecordsKept    int
	Dropped        int
	SegmentsIn     int
	SegmentsOut    int
	BytesReclaimed int64
}

// repointChunk is how many rewritten records one exclusive hold of the
// install latch redirects: the writer-exclusion window of a compaction
// is this many index updates, whatever the size of the run.
const repointChunk = 1024

// Compact compacts the whole log: it seals the active segment, rewrites
// every segment (the rewrite observes that its input is the whole log
// and vacuums tombstones and commit records with it), and refreshes the
// checkpoint, which would otherwise reference segments that no longer
// exist. Reads and writes proceed throughout; writes arriving
// mid-compaction land in new tail segments outside the input.
func (s *Server) Compact() (CompactionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	// Freeze the input under one exclusive hold of the install latch:
	// every mutation appends and installs under one shared hold, so no
	// record straddles the cut, and appends from here on open a fresh
	// segment outside the list.
	s.installMu.Lock()
	s.log.Rotate()
	var nums []uint32
	for _, si := range s.log.Segments() {
		nums = append(nums, si.Num)
	}
	s.installMu.Unlock()
	st, err := s.rewrite(nums)
	if err != nil || st.SegmentsIn == 0 {
		return st, err
	}
	return st, s.checkpoint()
}

// CompactSegments rewrites only the given sealed segments; the active
// append segment is refused (rotate first).
func (s *Server) CompactSegments(nums []uint32) (CompactionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.rewrite(nums)
}

// live reports whether the index still points at exactly this copy of a
// write record, read in place: committed, not deleted, not superseded by
// a rewrite of the same (key, timestamp), not relocated.
func (s *Server) live(v *wal.View, ptr wal.Ptr) bool {
	_, g, ok := s.resolveGroup(string(v.Table()), string(v.Tablet()), string(v.Group()), v.Key())
	if !ok {
		return false // stray: no tablet served here covers it
	}
	e, ok := g.tree().Get(v.Key(), v.TS())
	return ok && e.Ptr == ptr
}

// recordMove is one record a compaction rewrote (or, with a zero new
// location, vacuumed under the retention bound): its identity, old and
// new locations, and enough context (value, tablet) to derive dependent
// index entries.
type recordMove struct {
	table, tablet, group string
	key, value           []byte
	ts                   int64
	lsn                  uint64
	old, new             wal.Ptr
	prepared             bool // registered 2PC prepare: TxnID kept, not yet indexed
}

// rewrite is the compaction engine: records of the given segments still
// live per the in-memory indexes are re-sorted by (table, group, key,
// timestamp) and written into fresh sorted segments with footers;
// everything else — superseded versions, deleted rows, records of
// uncommitted transactions — is dropped. The index entries of moved
// records are repointed in place (primary and secondary), and the input
// segments are removed (deletion deferred while scans hold pins). Reads
// and writes proceed throughout; only the repoint step excludes writers,
// one chunk of records at a time. Callers hold compactMu.
func (s *Server) rewrite(nums []uint32) (CompactionStats, error) {
	var st CompactionStats
	if !s.indexReady.Load() {
		return st, errors.New("core: compact segments: indexes not recovered yet (run Recover first)")
	}
	defer s.obs.since(s.obs.compact, s.obs.start())

	// Snapshot the input: all sealed, so the set is immutable under us
	// (only compaction removes segments, and compactMu is held).
	active := s.log.ActiveSegment()
	segs := s.log.Segments()
	var input []uint32
	var inputBytes int64
	for _, si := range segs {
		if !slices.Contains(nums, si.Num) {
			continue
		}
		if si.Num == active {
			return st, fmt.Errorf("core: compact segments: %d is the active append segment", si.Num)
		}
		input = append(input, si.Num)
		inputBytes += si.Size
	}
	if len(input) == 0 {
		return st, nil
	}
	slices.Sort(input)
	st.SegmentsIn = len(input)

	// The input is the whole log behind a clean cut when every other
	// live segment is an append segment numbered above all of it: such a
	// segment was opened after every input segment existed, and the
	// records compaction relocated into a sorted input segment were sealed
	// before that segment was created, so nothing outside the input has a
	// lower LSN than anything inside. No tombstone or commit record of the
	// input can then act on a record outside it. (Only appends add
	// segments while compactMu is held, and those number higher still.)
	whole := true
	for _, si := range segs {
		if !slices.Contains(input, si.Num) && (si.Sorted || si.Num < input[len(input)-1]) {
			whole = false
		}
	}

	// Barrier: every mutation holds installMu shared from its log append
	// through its index install. Taking it exclusively drains that window,
	// so afterwards every record in the sealed input segments is either
	// reflected in the indexes or genuinely dead — the index probe below
	// can be trusted. New writes land in the active segment, outside the
	// input. The 2PC preparations registered at that instant are durable
	// but deliberately not in the indexes until CommitTxn: they are
	// carried (TxnID intact) and their cached locations repointed.
	// lsnBound caps any LSN a record in the input could reference.
	s.installMu.Lock()
	lsnBound := s.log.NextLSN()
	s.prepMu.Lock()
	regTxns := make(map[uint64]bool, len(s.prepared))
	for id := range s.prepared {
		regTxns[id] = true
	}
	s.prepMu.Unlock()
	s.installMu.Unlock()

	// Collect survivors. Everything this run drops (or rewrites in a
	// cursor-changing way) raises the changefeed prune horizon, so a feed
	// resuming at or below it is refused instead of silently missing
	// records.
	var maxDropped uint64
	toTip := whole // a vacuumed tombstone or commit could be missed anywhere in the input
	type survivor struct {
		rec      wal.Record
		old      wal.Ptr
		prepared bool
	}
	var keep []survivor
	if whole { // the survivors are the live writes, each once in an index
		keep = make([]survivor, 0, s.indexEntries())
	}
	for _, num := range input {
		sc, err := s.log.OpenSegmentScanner(num, 0)
		if err != nil {
			return st, err
		}
		// Only survivors are copied out of the scanner's window.
		for sc.Next() {
			v, ptr := sc.View(), sc.Ptr()
			switch v.Kind() {
			case wal.KindWrite:
				st.RecordsIn++
				switch {
				case s.live(v, ptr):
					// The rewrite clears the TxnID, silently moving the
					// record's cursor from its commit's LSN to its own; a feed
					// resuming in between would skip it. The commit's LSN is
					// unknown here (it may sit in a non-input segment).
					toTip = toTip || v.TxnID() != 0
					keep = append(keep, survivor{rec: v.Record(), old: ptr})
				case v.TxnID() != 0 && regTxns[v.TxnID()]:
					keep = append(keep, survivor{rec: v.Record(), old: ptr, prepared: true})
				default: // deleted, superseded, or never committed
					maxDropped = max(maxDropped, v.LSN())
				}
			case wal.KindDelete, wal.KindCommit:
				st.RecordsIn++
				if !whole {
					keep = append(keep, survivor{rec: v.Record(), old: ptr})
				}
			}
		}
		err = sc.Err()
		sc.Close()
		if err != nil {
			return st, err
		}
	}

	// Cluster by (table, group, key, ts); ties (same composite key) by
	// LSN so replay order stays deterministic. Commit records sort by
	// their (empty) keys first — position is irrelevant for them, only
	// presence. The sort permutes indexes, not survivors, and the index
	// breaks what ties remain, which keeps it stable.
	order := make([]int32, len(keep))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &keep[i].rec, &keep[j].rec
		ka := wal.RecordKey{Table: a.Table, Group: a.Group, Key: a.Key}
		kb := wal.RecordKey{Table: b.Table, Group: b.Group, Key: b.Key}
		if c := ka.Compare(kb); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.LSN, b.LSN), cmp.Compare(i, j))
	})

	// Retention, once per key: a live version is vacuumed when the index
	// holds at least keep newer versions of its key, or when it is older
	// than the age cutoff and not the key's newest (the current state
	// survives any retention setting). Its index entry must go too (a
	// dangling entry would fail every Versions/GetAt touching it once the
	// segment file is reclaimed).
	bounds := s.retentionBounds()
	var moves []recordMove
	var versions []index.Entry // the index's versions of key of, ascending timestamp
	var of wal.RecordKey
	kept := order[:0]
	for _, i := range order {
		v := &keep[i]
		rec := &v.rec
		if rec.Kind != wal.KindWrite || v.prepared {
			kept = append(kept, i)
			continue
		}
		b := bounds(rec.Table)
		if b.keep <= 0 && b.cutoff <= 0 {
			kept = append(kept, i)
			continue
		}
		if k := (wal.RecordKey{Table: rec.Table, Group: rec.Group, Key: rec.Key}); versions == nil || k.Compare(of) != 0 {
			of, versions = k, versions[:0]
			if _, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key); ok {
				versions = g.tree().Versions(rec.Key, versions)
			}
		}
		newer := len(versions) - sort.Search(len(versions), func(n int) bool { return versions[n].TS > rec.TS })
		if (b.keep > 0 && newer >= b.keep) || (b.cutoff > 0 && newer > 0 && rec.TS < b.cutoff) {
			moves = append(moves, recordMove{
				table: rec.Table, tablet: rec.Tablet, group: rec.Group,
				key: rec.Key, ts: rec.TS, lsn: rec.LSN, old: v.old,
			})
			maxDropped = max(maxDropped, rec.LSN)
			continue
		}
		kept = append(kept, i)
	}
	order = kept
	st.RecordsKept = len(order)
	st.Dropped = st.RecordsIn - st.RecordsKept

	// Raise the feed prune horizon BEFORE the inputs can disappear
	// (conservatively early: an error below leaves the horizon high,
	// which refuses some resumable cursors but never serves a gap).
	if toTip && lsnBound > 0 {
		maxDropped = max(maxDropped, lsnBound-1)
	}
	s.raisePruneHorizon(maxDropped)

	// Write the sorted output. Committed transactional writes become
	// plain writes: their visibility no longer depends on a commit
	// record that may be vacuumed later.
	sw := s.log.NewSegmentWriter()
	remap := map[wal.Ptr]wal.Ptr{} // registered preparations only
	moves = slices.Grow(moves, len(order))
	for _, i := range order {
		v := &keep[i]
		rec := &v.rec
		if rec.Kind == wal.KindWrite && !v.prepared {
			rec.TxnID = 0
		}
		ptr, err := sw.Append(rec)
		if err != nil {
			return st, err
		}
		if rec.Kind != wal.KindWrite {
			continue
		}
		if v.prepared {
			remap[v.old] = ptr
		}
		moves = append(moves, recordMove{
			table: rec.Table, tablet: rec.Tablet, group: rec.Group, key: rec.Key,
			value: rec.Value, ts: rec.TS, lsn: rec.LSN,
			old: v.old, new: ptr, prepared: v.prepared,
		})
	}
	if err := sw.Close(); err != nil {
		return st, err
	}
	outputs := sw.Segments()
	st.SegmentsOut = len(outputs)

	// Crash point: the sorted output segments are durable alongside the
	// still-live inputs; the in-memory install has not begun. Recovery
	// over the doubled log must be idempotent.
	if err := s.cfg.Faults.FireErr("crash.compact.pre-install"); err != nil {
		return st, err
	}

	// Install: redirect every moved record's index entry to the new
	// location and drop the entries of retention-vacuumed versions, a
	// chunk per exclusive hold of the install latch. Each update is
	// guarded by (key, ts, lsn, old location): an entry deleted or
	// superseded since collection — between two chunks included — fails
	// the match and simply leaves its new copy as garbage in the output.
	// The first hold also tells still-registered preparations their
	// records' new homes, so a CommitTxn from then on installs the right
	// pointers and one that landed earlier is fixed up like any survivor.
	var staleBytes int64
	for lo := 0; lo < len(moves); lo += repointChunk {
		s.installMu.Lock()
		if lo == 0 {
			s.repointPrepared(remap)
		}
		for _, m := range moves[lo:min(lo+repointChunk, len(moves))] {
			_, g, ok := s.resolveGroup(m.table, m.tablet, m.group, m.key)
			switch {
			case !ok:
				staleBytes += int64(m.new.Len)
			case m.new == (wal.Ptr{}):
				if e, found := g.tree().Get(m.key, m.ts); found && e.Ptr == m.old {
					g.tree().DeleteVersion(m.key, m.ts)
				}
			case !g.tree().Repoint(m.key, m.ts, m.lsn, m.old, m.new) && !m.prepared:
				staleBytes += int64(m.new.Len)
			}
		}
		s.installMu.Unlock()
	}
	if s.obs.enabled {
		s.obs.compactRepoints.Add(int64(len(moves)))
	}
	// Secondary indexes repoint outside the writer-exclusion window: the
	// entries carry the original LSNs, so a concurrent write that already
	// installed a newer entry wins the LSN guard.
	s.repointSecondary(moves)
	if staleBytes > 0 && len(outputs) > 0 {
		// Records that died mid-rewrite are garbage in the fresh output.
		s.log.AddGarbage(outputs[0], staleBytes)
	}

	// Crash point: the index points into the output but the superseded
	// input segments still exist — a restart must not resurrect vacuumed
	// versions nor double-apply relocated records.
	if err := s.cfg.Faults.FireErr("crash.compact.pre-remove"); err != nil {
		return st, err
	}
	// All or nothing when the tombstones went: with one input removed and
	// another left, a restart would replay rows whose tombstone is gone.
	if err := s.log.RemoveSegments(whole, input...); err != nil {
		return st, err
	}
	// The bytes reclaimed are what the removed inputs held beyond the
	// rewritten outputs, floored at zero: a rewrite that drops nothing
	// still gains a sorted segment's footer, and "reclaiming" minus one
	// footer would step the cumulative counter backwards.
	for _, si := range s.log.Segments() {
		if slices.Contains(outputs, si.Num) {
			inputBytes -= si.Size
		}
	}
	st.BytesReclaimed = max(0, inputBytes)
	s.stats.Compactions.Add(1)
	s.stats.CompactDropped.Add(int64(st.Dropped))
	s.stats.CompactReclaimed.Add(st.BytesReclaimed)
	return st, nil
}

// repointPrepared updates the cached record locations of registered
// 2PC preparations after a compaction move, so CommitTxn installs the
// new homes. Callers hold installMu exclusively; CommitTxn snapshots
// ptrs under prepMu while holding installMu shared, so the two never
// interleave.
func (s *Server) repointPrepared(remap map[wal.Ptr]wal.Ptr) {
	if len(remap) == 0 {
		return
	}
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	for _, p := range s.prepared {
		for i, ptr := range p.ptrs {
			if np, ok := remap[ptr]; ok {
				p.ptrs[i] = np
			}
		}
	}
}

// repointSecondary redirects secondary-index entries for exactly
// the records a compaction moved: the secondary key is re-derived from
// each moved record's value (as the write path does), and the entry is
// repointed in place iff it still matches the old location and LSN —
// O(moved records x indexes), not a walk of every secondary tree.
func (s *Server) repointSecondary(moved []recordMove) {
	s.secMu.RLock()
	defer s.secMu.RUnlock()
	for _, si := range s.secondary {
		for _, m := range moved {
			if m.prepared || m.new == (wal.Ptr{}) || si.group != m.group {
				continue
			}
			t, ok := s.resolve(m.table, m.tablet, m.key, nil)
			if !ok || si.tablet != t.id {
				continue
			}
			secKey := si.extract(m.value)
			if secKey == nil {
				continue
			}
			si.tree.Repoint(secComposite(secKey, m.key), m.ts, m.lsn, m.old, m.new)
		}
	}
}

// CompactionInfo is the observability snapshot operators read through
// the STATS command: cumulative compaction work plus the current
// storage layout.
type CompactionInfo struct {
	Runs           int64
	RecordsDropped int64
	BytesReclaimed int64
	SortedFraction float64
	GarbageRatio   float64 // total garbage bytes / live log bytes
	LogBytes       int64
	Segments       []wal.SegmentInfo
}

// CompactionInfo reports cumulative compaction counters and the
// current segment layout.
func (s *Server) CompactionInfo() CompactionInfo {
	segs := s.log.Segments()
	info := CompactionInfo{
		Runs:           s.stats.Compactions.Load(),
		RecordsDropped: s.stats.CompactDropped.Load(),
		BytesReclaimed: s.stats.CompactReclaimed.Load(),
		Segments:       segs,
	}
	var sorted, garbage int64
	for _, si := range segs {
		info.LogBytes += si.Size
		garbage += si.Garbage
		if si.Sorted {
			sorted += si.Size
		}
	}
	if info.LogBytes > 0 {
		info.SortedFraction = float64(sorted) / float64(info.LogBytes)
		info.GarbageRatio = float64(garbage) / float64(info.LogBytes)
	}
	return info
}

// SortedFraction reports the fraction of live log bytes in sorted
// segments — 1.0 right after compaction; benches use it to verify the
// pre/post-compaction contrast of Figure 10.
func (s *Server) SortedFraction() float64 {
	return s.CompactionInfo().SortedFraction
}
