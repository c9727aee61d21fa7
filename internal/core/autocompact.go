package core

// Incremental, garbage-triggered background compaction (paper §3.6.5
// generalised): instead of the whole-log stop-and-rewrite DB.Compact,
// CompactSegments rewrites only a chosen subset of segments — the ones
// whose accumulated garbage (superseded versions, deleted rows) or
// unsorted layout makes them worth reclustering — while reads and
// writes keep flowing. A paced background loop (Config.AutoCompact)
// runs it on every tablet server so the log STAYS clustered under
// sustained write+scan load, which is what keeps the clustered scan
// fast path engaged continuously rather than only after a manual
// vacuum.
//
// Liveness is decided by the MVCC index, not by a log replay: a write
// record survives iff the index still points at exactly that location
// (committed, not deleted, not superseded) and it sits within the
// version-retention bound. Tombstones and commit records are carried
// forward — non-input segments may still hold records they invalidate
// or commit, and recovery's LSN-ordered replay rules make the carried
// copies harmless wherever they land.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/wal"
)

// AutoCompactConfig tunes the background incremental compactor.
type AutoCompactConfig struct {
	// GarbageRatio is the garbage/size fraction above which a sorted
	// segment becomes a rewrite candidate (unsorted sealed segments are
	// always candidates — they are what drags SortedFraction down).
	// Zero means 0.30.
	GarbageRatio float64
	// Interval paces the background loop; <= 0 disables the loop
	// (explicit AutoCompactTick still works).
	Interval time.Duration
	// MaxSegmentsPerRun bounds how many segments one run rewrites, so a
	// run's memory and I/O stay proportional to a few segments, not the
	// log. Zero means 4.
	MaxSegmentsPerRun int
}

func (c AutoCompactConfig) withDefaults() AutoCompactConfig {
	if c.GarbageRatio <= 0 {
		c.GarbageRatio = 0.30
	}
	if c.MaxSegmentsPerRun <= 0 {
		c.MaxSegmentsPerRun = 4
	}
	return c
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

// autoRotateFraction: the auto compactor seals the active segment once
// it exceeds this fraction of the rotation size, so a slowly-filling
// tail cannot keep the log's sorted fraction low between rotations.
const autoRotateFraction = 8

// compactionCandidates picks up to max segments worth rewriting,
// highest payoff first: unsorted sealed segments (recluster + drop
// garbage), then sorted segments whose garbage ratio crossed the
// threshold. The active append segment is never a candidate.
func (s *Server) compactionCandidates(max int, garbageRatio float64) []uint32 {
	active := s.log.ActiveSegment()
	type cand struct {
		num   uint32
		score float64
	}
	var cands []cand
	for _, si := range s.log.Segments() {
		if si.Num == active || si.Empty() {
			continue
		}
		ratio := float64(si.Garbage) / float64(si.Size)
		switch {
		case !si.Sorted:
			// Unsorted segments always qualify: reclustering them is what
			// holds SortedFraction up. Garbage breaks ties.
			cands = append(cands, cand{si.Num, 1 + ratio})
		case ratio >= garbageRatio:
			cands = append(cands, cand{si.Num, ratio})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].num < cands[j].num
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	nums := make([]uint32, len(cands))
	for i, c := range cands {
		nums[i] = c.num
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// AutoCompactTick runs one compaction pass with the configured (or
// default) pacing knobs: seal an oversized active tail, pick the
// highest-garbage candidates, rewrite them. It reports whether a
// rewrite ran. The background loop calls this every Interval; tests
// and benches call it directly for deterministic pacing.
func (s *Server) AutoCompactTick() (CompactionStats, bool, error) {
	if !s.indexReady.Load() {
		// Reopened server whose Recover has not run yet: the empty
		// indexes would make every record look dead. Wait. This is the
		// compaction pacing stall the obs counter tracks.
		if s.obs.enabled {
			s.obs.compactStalls.Inc()
		}
		return CompactionStats{}, false, nil
	}
	if !s.garbageAudited.Swap(true) {
		// First tick after a recovery: per-segment garbage counters died
		// with the previous process — recount them from the index so the
		// ratio-triggered candidates work across restarts.
		s.auditGarbage()
	}
	// One wall-time→timestamp sample per tick: what age-based retention
	// policies resolve their KeepFor cutoffs against.
	s.SampleRetention()
	cfg := s.cfg.AutoCompact.withDefaults()
	// Seal a grown tail so its bytes become compactable.
	segSize := s.cfg.SegmentSize
	if segSize <= 0 {
		segSize = 64 << 20
	}
	if active := s.log.ActiveSegment(); active != 0 {
		for _, si := range s.log.Segments() {
			if si.Num == active && si.Size >= segSize/autoRotateFraction {
				s.log.Rotate()
				break
			}
		}
	}
	nums := s.compactionCandidates(cfg.MaxSegmentsPerRun, cfg.GarbageRatio)
	if len(nums) == 0 {
		return CompactionStats{}, false, nil
	}
	st, err := s.CompactSegments(nums)
	return st, err == nil, err
}

// auditGarbage recounts every sealed segment's garbage bytes from the
// index (the liveness probe CompactSegments uses): one sequential
// sweep per segment, run once after a recovery.
func (s *Server) auditGarbage() {
	active := s.log.ActiveSegment()
	for _, si := range s.log.Segments() {
		if si.Num == active || si.Empty() {
			continue
		}
		sc, err := s.log.OpenSegmentScanner(si.Num, 0)
		if err != nil {
			continue
		}
		var dead int64
		for sc.Next() {
			rec := sc.Record()
			if rec.Kind != wal.KindWrite {
				continue
			}
			live := false
			if _, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key); ok {
				e, ok := g.tree().Get(rec.Key, rec.TS)
				live = ok && e.Ptr == sc.Ptr()
			}
			if !live {
				dead += int64(sc.Ptr().Len)
			}
		}
		sc.Close()
		if sc.Err() == nil {
			s.log.SetGarbage(si.Num, dead)
		}
	}
}

// autoCompactLoop is the paced background compactor started by
// NewServer when Config.AutoCompact.Interval > 0.
func (s *Server) autoCompactLoop(interval time.Duration, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			// Best-effort: an error (e.g. shutdown racing the tick) waits
			// for the next interval rather than killing the loop.
			s.AutoCompactTick() //nolint:errcheck
		}
	}
}

// CompactSegments rewrites only the given segments: records still live
// per the in-memory indexes are re-sorted by (table, group, key,
// timestamp) and written into fresh sorted segments with footers;
// everything else — superseded versions, deleted rows, records of
// uncommitted transactions — is dropped. The index entries of moved
// records are repointed in place (primary and secondary), and the
// input segments are removed (deletion deferred while scans hold
// pins). Reads and writes proceed throughout; only the brief repoint
// step excludes writers.
func (s *Server) CompactSegments(nums []uint32) (CompactionStats, error) {
	var st CompactionStats
	if !s.indexReady.Load() {
		return st, errors.New("core: compact segments: indexes not recovered yet (run Recover first)")
	}
	defer s.obs.since(s.obs.compact, s.obs.start())
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot and pin the input: all sealed (the active segment is
	// refused — rotate first), so the set is immutable under us.
	active := s.log.ActiveSegment()
	live := make(map[uint32]wal.SegmentInfo)
	for _, si := range s.log.Segments() {
		live[si.Num] = si
	}
	inputSet := make(map[uint32]bool, len(nums))
	var input []uint32
	var inputBytes int64
	for _, n := range nums {
		si, ok := live[n]
		if !ok || inputSet[n] {
			continue
		}
		if n == active {
			return st, fmt.Errorf("core: compact segments: %d is the active append segment", n)
		}
		inputSet[n] = true
		input = append(input, n)
		inputBytes += si.Size
	}
	if len(input) == 0 {
		return st, nil
	}
	sort.Slice(input, func(i, j int) bool { return input[i] < input[j] })
	s.log.Pin(input...)
	defer s.log.Unpin(input...)
	st.SegmentsIn = len(input)

	// Barrier: every mutation holds installMu shared from its log append
	// through its index install. Taking it exclusively (and releasing
	// immediately) drains that window, so after the barrier every record
	// in the sealed input segments is either reflected in the indexes or
	// genuinely dead — the index probe below can be trusted. New writes
	// land in the active segment, outside the input.
	s.installMu.Lock()
	s.installMu.Unlock() //nolint:staticcheck // empty critical section IS the barrier

	// Changefeed truncation bookkeeping: everything this run drops (or
	// rewrites in a cursor-changing way) raises the prune horizon, so a
	// feed resuming at or below it is refused instead of silently
	// missing records. lsnBound caps any commit LSN a record in the
	// input could reference.
	var maxDropped uint64
	droppedWrite := func(lsn uint64) {
		if lsn > maxDropped {
			maxDropped = lsn
		}
	}
	txnCleared := false
	lsnBound := s.log.NextLSN()

	// Registered 2PC preparations: their records are durable but
	// deliberately not in the indexes until CommitTxn; they must be
	// carried (TxnID intact) and their cached locations repointed.
	regTxns := map[uint64]bool{}
	s.prepMu.Lock()
	for id := range s.prepared {
		regTxns[id] = true
	}
	s.prepMu.Unlock()

	// Collect survivors: a write record is live iff the index still
	// points at exactly this location and it is within the retention
	// bound. Tombstones and commit records are carried forward (tiny;
	// non-input segments may depend on them).
	type survivor struct {
		rec      wal.Record
		oldPtr   wal.Ptr
		prepared bool // registered 2PC prepare: keep TxnID, not yet indexed
	}
	bounds := s.retentionBounds()
	var keep []survivor
	var pruned []recordMove // retention-dropped versions whose entries must go
	for _, num := range input {
		sc, err := s.log.OpenSegmentScanner(num, 0)
		if err != nil {
			return st, err
		}
		for sc.Next() {
			rec := sc.Record()
			switch rec.Kind {
			case wal.KindWrite:
				st.RecordsIn++
				_, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key)
				if !ok {
					droppedWrite(rec.LSN)
					continue
				}
				e, ok := g.tree().Get(rec.Key, rec.TS)
				if !ok || e.Ptr != sc.Ptr() {
					if rec.TxnID != 0 && regTxns[rec.TxnID] {
						// Prepared, awaiting its commit: carry verbatim.
						keep = append(keep, survivor{rec: rec, oldPtr: sc.Ptr(), prepared: true})
					} else {
						droppedWrite(rec.LSN)
					}
					continue // deleted, superseded, or never committed
				}
				if b := bounds(rec.Table); b.keep > 0 || b.cutoff > 0 {
					newer := 0
					for _, v := range g.tree().Versions(rec.Key, nil) {
						if v.TS > rec.TS {
							newer++
						}
					}
					beyondKeep := b.keep > 0 && newer >= b.keep
					// Age bound applies only below a key's newest version:
					// the current state survives any retention setting.
					beyondAge := b.cutoff > 0 && newer > 0 && rec.TS < b.cutoff
					if beyondKeep || beyondAge {
						// Beyond the retention bound: the record is vacuumed,
						// so its index entry must go too (a dangling entry
						// would fail every Versions/GetAt touching it once
						// the segment file is reclaimed).
						pruned = append(pruned, recordMove{
							table: rec.Table, tablet: rec.Tablet, group: rec.Group,
							key: rec.Key, ts: rec.TS, lsn: rec.LSN, old: sc.Ptr(),
						})
						droppedWrite(rec.LSN)
						continue
					}
				}
				if rec.TxnID != 0 {
					// The rewrite below clears the TxnID, silently moving
					// the record's cursor from its commit's LSN to its own;
					// a feed resuming in between would skip it. The commit's
					// LSN is unknown here (it may sit in a non-input
					// segment), so the horizon jumps to the log tip.
					txnCleared = true
				}
				keep = append(keep, survivor{rec: rec, oldPtr: sc.Ptr()})
			case wal.KindDelete, wal.KindCommit:
				st.RecordsIn++
				keep = append(keep, survivor{rec: rec, oldPtr: sc.Ptr()})
			}
		}
		err = sc.Err()
		sc.Close()
		if err != nil {
			return st, err
		}
	}
	st.RecordsKept = len(keep)
	st.Dropped = st.RecordsIn - st.RecordsKept

	// Raise the feed prune horizon BEFORE the inputs can disappear
	// (conservatively early: an error below leaves the horizon high,
	// which refuses some resumable cursors but never serves a gap).
	if txnCleared {
		if lsnBound > 0 && lsnBound-1 > maxDropped {
			maxDropped = lsnBound - 1
		}
	}
	s.raisePruneHorizon(maxDropped)

	// Cluster by (table, group, key, ts); ties (same composite key) by
	// LSN so replay order stays deterministic. Commit records sort by
	// their (empty) keys first — position is irrelevant for them, only
	// presence.
	sort.SliceStable(keep, func(i, j int) bool {
		a, b := keep[i].rec, keep[j].rec
		ka := wal.RecordKey{Table: a.Table, Group: a.Group, Key: a.Key}
		kb := wal.RecordKey{Table: b.Table, Group: b.Group, Key: b.Key}
		if c := ka.Compare(kb); c != 0 {
			return c < 0
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.LSN < b.LSN
	})

	// Write the sorted output. Committed transactional writes become
	// plain writes: their visibility no longer depends on a commit
	// record that may be vacuumed later.
	sw := s.log.NewSegmentWriter(true)
	remap := make(map[wal.Ptr]wal.Ptr, len(keep))
	var repoints []recordMove
	for i := range keep {
		rec := keep[i].rec
		if rec.Kind == wal.KindWrite && !keep[i].prepared {
			rec.TxnID = 0
		}
		ptr, err := sw.Append(&rec)
		if err != nil {
			return st, err
		}
		if rec.Kind == wal.KindWrite {
			remap[keep[i].oldPtr] = ptr
			repoints = append(repoints, recordMove{
				table: rec.Table, tablet: rec.Tablet, group: rec.Group, key: rec.Key,
				value: rec.Value, ts: rec.TS, lsn: rec.LSN,
				old: keep[i].oldPtr, new: ptr, prepared: keep[i].prepared,
			})
		}
	}
	if err := sw.Close(); err != nil {
		return st, err
	}
	st.SegmentsOut = len(sw.Segments())

	// Install: redirect every moved record's index entries to the new
	// location. Entries deleted or superseded since collection fail the
	// Repoint match and simply leave their new copy as garbage in the
	// output (accounted below). Writers are excluded for the duration so
	// an index update cannot interleave with the bulk repoint.
	s.installMu.Lock()
	var staleBytes int64
	for _, rp := range repoints {
		_, g, ok := s.resolveGroup(rp.table, rp.tablet, rp.group, rp.key)
		if !ok {
			staleBytes += int64(rp.new.Len)
			continue
		}
		// Prepared records usually have no index entry yet (Repoint
		// no-ops); when their CommitTxn landed between collection and
		// here, the entry exists with the old location and is fixed up
		// like any committed survivor.
		if !g.tree().Repoint(rp.key, rp.ts, rp.lsn, rp.old, rp.new) && !rp.prepared {
			staleBytes += int64(rp.new.Len)
		}
	}
	// Retention-dropped versions: remove their index entries (guarded —
	// only while the entry still points at the vacuumed record, so a
	// racing same-(key,ts) rewrite is never deleted).
	for _, pr := range pruned {
		_, g, ok := s.resolveGroup(pr.table, pr.tablet, pr.group, pr.key)
		if !ok {
			continue
		}
		if e, ok := g.tree().Get(pr.key, pr.ts); ok && e.Ptr == pr.old {
			g.tree().DeleteVersion(pr.key, pr.ts)
		}
	}
	// Still-registered preparations learn their records' new homes so a
	// later CommitTxn installs the right pointers.
	s.repointPrepared(remap)
	s.installMu.Unlock()
	if s.obs.enabled {
		s.obs.compactRepoints.Add(int64(len(repoints)))
	}
	// Secondary indexes repoint outside the writer-exclusion window and
	// touch only the moved records (not a full tree walk): the replayed
	// entries carry the original LSNs, so a concurrent write that
	// already installed a newer entry wins the LSN guard.
	s.repointSecondariesMoved(repoints)
	if outs := sw.Segments(); staleBytes > 0 && len(outs) > 0 {
		// Records that died mid-rewrite are garbage in the fresh output.
		s.log.AddGarbage(outs[0], staleBytes)
	}

	if err := s.log.RemoveSegments(input...); err != nil {
		return st, err
	}
	s.noteCompaction(&st, inputBytes, sw.Segments())
	return st, nil
}

// recordMove describes one record a compaction rewrote: its identity,
// old and new locations, and enough context (value, tablet) to derive
// dependent index entries.
type recordMove struct {
	table, tablet, group string
	key, value           []byte
	ts                   int64
	lsn                  uint64
	old, new             wal.Ptr
	prepared             bool
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

// repointSecondariesMoved redirects secondary-index entries for exactly
// the records a compaction moved: the secondary key is re-derived from
// each moved record's value (as the write path does), and the entry is
// repointed in place iff it still matches the old location and LSN —
// O(moved records x indexes), not a walk of every secondary tree.
func (s *Server) repointSecondariesMoved(moved []recordMove) {
	if len(moved) == 0 {
		return
	}
	s.secMu.RLock()
	defer s.secMu.RUnlock()
	if len(s.secondary) == 0 {
		return
	}
	for _, si := range s.secondary {
		for _, m := range moved {
			if m.prepared || si.group != m.group {
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

// repointSecondaries redirects secondary-index entries whose pointers
// were moved by a compaction rewrite, by walking each tree against the
// move map — the whole-log Compact path, where most entries moved
// anyway. Put with the unchanged LSN replaces each entry in place (the
// tree latch forbids mutating inside Ascend, hence collect-then-put).
func (s *Server) repointSecondaries(remap map[wal.Ptr]wal.Ptr) {
	if len(remap) == 0 {
		return
	}
	s.secMu.RLock()
	defer s.secMu.RUnlock()
	for _, si := range s.secondary {
		si.mu.Lock()
		var moved []index.Entry
		si.tree.Ascend(func(e index.Entry) bool {
			if np, ok := remap[e.Ptr]; ok {
				e.Ptr = np
				moved = append(moved, e)
			}
			return true
		})
		for _, e := range moved {
			si.tree.Put(e)
		}
		si.mu.Unlock()
	}
}
