package core

import (
	"bytes"
	"maps"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/wal"
)

// CompactionStats summarises one compaction run.
type CompactionStats struct {
	RecordsIn      int
	RecordsKept    int
	Dropped        int // obsolete versions + invalidated + uncommitted
	SegmentsIn     int
	SegmentsOut    int
	BytesReclaimed int64
}

// Compact runs the log compaction / vacuuming process (paper §3.6.5):
// it scans the current segments, discards out-of-date versions,
// invalidated (deleted) records and uncommitted transactional writes,
// sorts the survivors by (table, column group, record key, timestamp),
// writes them into fresh sorted segments, rebuilds the in-memory
// indexes over the new locations, atomically installs them, and removes
// the superseded segments. Reads and writes proceed during all but the
// brief install step; writes arriving mid-compaction land in new tail
// segments that are reconciled at install time. Both the input and the
// tail are read through the shared replay (apply.go).
func (s *Server) Compact() (CompactionStats, error) {
	var st CompactionStats
	// One compaction at a time: the whole-log rewrite and the
	// incremental background runs (CompactSegments) must not interleave.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Freeze the input: rotating the log closes the active segment, so
	// every segment in the snapshot is immutable and appends from here
	// on go to fresh segments outside the set. (Without the rotation, a
	// write racing into the still-open tail segment would be deleted
	// along with the compaction input.) The 2PC preparations registered
	// at that instant are noted under the same exclusive hold of the
	// install latch: PrepareTxn appends and registers, and CommitTxn
	// appends and retires, under one shared hold each, so a commit-less
	// transaction in the frozen input is either in this list or dead.
	s.installMu.Lock()
	s.log.Rotate()
	s.prepMu.Lock()
	registered := slices.Sorted(maps.Keys(s.prepared))
	s.prepMu.Unlock()
	s.installMu.Unlock()
	// The whole-log rewrite vacuums tombstones and commit records and
	// strips TxnIDs — a feed resuming anywhere inside the input could
	// miss deletes or mis-attribute transactional cursors. The prune
	// horizon therefore jumps past every LSN assigned so far; only
	// from-zero re-bootstraps replay across a whole-log compaction.
	if next := s.log.NextLSN(); next > 0 {
		s.raisePruneHorizon(next - 1)
	}
	inputInfos := s.log.Segments()
	var inputNums []uint32
	var inputBytes int64
	maxInput := uint32(0)
	for _, si := range inputInfos {
		inputNums = append(inputNums, si.Num)
		inputBytes += si.Size
		if si.Num > maxInput {
			maxInput = si.Num
		}
	}
	st.SegmentsIn = len(inputInfos)
	if len(inputInfos) == 0 {
		return st, nil
	}

	// Collect: one replay round over the frozen input yields the
	// committed writes no tombstone covers, each resolved to the column
	// group that owns its key NOW (pre-split records carry the parent's
	// id) and kept with its location for the secondary-index redirect.
	type recAt struct {
		rec wal.Record
		ptr wal.Ptr
		g   *columnGroup
	}
	versions := map[string][]recAt{}
	rs := newReplaySession(s, s.log, wal.Position{}, nil)
	err := rs.round(wal.Position{Seg: maxInput + 1}, nil, func(rec *wal.Record, ptr wal.Ptr) (bool, error) {
		// Stray records (no tablet served here covers them) go with the
		// garbage; tombstones did their work when the round resolved them.
		_, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key)
		if !ok || rec.Kind != wal.KindWrite {
			return false, nil
		}
		k := replayKey(rec)
		versions[k] = append(versions[k], recAt{rec: *rec, ptr: ptr, g: g})
		return true, nil
	})
	if err != nil {
		return st, err
	}
	st.RecordsIn = rs.scanned
	// Uncommitted transactional writes are vacuumed (paper §3.7.2),
	// except the preparations registered when the input froze: their
	// commit may still land, or has landed in the tail while the round
	// ran. The round parked them; they are carried verbatim.
	for id := range rs.pending {
		if _, ok := slices.BinarySearch(registered, id); !ok {
			delete(rs.pending, id)
		}
	}
	prepTxns := slices.Sorted(maps.Keys(rs.pending))

	// Select survivors, bounded by the table's retention policy (or the
	// global CompactKeepVersions default).
	bounds := s.retentionBounds()
	var keep []recAt
	for _, live := range versions {
		sort.Slice(live, func(i, j int) bool { return live[i].rec.TS < live[j].rec.TS })
		// Keep only the latest version per (key, ts): same-ts rewrites
		// are superseded by the highest LSN.
		dedup := live[:0]
		for _, v := range live {
			if n := len(dedup); n > 0 && dedup[n-1].rec.TS == v.rec.TS {
				if v.rec.LSN > dedup[n-1].rec.LSN {
					dedup[n-1] = v
				}
				continue
			}
			dedup = append(dedup, v)
		}
		b := bounds(live[0].rec.Table)
		if b.keep > 0 && len(dedup) > b.keep {
			dedup = dedup[len(dedup)-b.keep:]
		}
		// Age bound: versions older than the cutoff go, except a key's
		// newest (the current state must survive any retention setting).
		for b.cutoff > 0 && len(dedup) > 1 && dedup[0].rec.TS < b.cutoff {
			dedup = dedup[1:]
		}
		keep = append(keep, dedup...)
	}
	st.RecordsKept = len(keep)
	st.Dropped = st.RecordsIn - st.RecordsKept

	// Sort survivors by (table, column group, record key, timestamp) —
	// the paper's clustering order.
	sort.Slice(keep, func(i, j int) bool {
		a, b := keep[i].rec, keep[j].rec
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c < 0
		}
		return a.TS < b.TS
	})

	// Write sorted segments; committed transactional writes are
	// rewritten as plain writes (their commit records are vacuumed, so
	// the TxnID must not survive or recovery would discard them).
	sw := s.log.NewSegmentWriter(true)
	entriesByCG := map[*columnGroup][]index.Entry{}
	remap := make(map[wal.Ptr]wal.Ptr, len(keep))
	for i := range keep {
		rec := keep[i].rec
		rec.TxnID = 0
		ptr, err := sw.Append(&rec)
		if err != nil {
			return st, err
		}
		remap[keep[i].ptr] = ptr
		g := keep[i].g
		entriesByCG[g] = append(entriesByCG[g], index.Entry{Key: rec.Key, TS: rec.TS, Ptr: ptr, LSN: rec.LSN})
	}
	if err := sw.Close(); err != nil {
		return st, err
	}
	// Preserved 2PC preparations ride along with TxnID intact — into a
	// separate UNSORTED segment: they are not in clustering order, and a
	// sorted segment's footer invariant (every record in key order) is
	// what the clustered scan planner trusts. Once committed, their
	// index entries point into the unsorted segment and scans reach them
	// through the index overlay.
	ownOutput := map[uint32]bool{}
	if len(prepTxns) > 0 {
		swPrep := s.log.NewSegmentWriter(false)
		for _, id := range prepTxns {
			for i := range rs.pending[id] {
				ptr, err := swPrep.Append(&rs.pending[id][i].rec)
				if err != nil {
					return st, err
				}
				remap[rs.pending[id][i].ptr] = ptr
			}
		}
		if err := swPrep.Close(); err != nil {
			return st, err
		}
		for _, n := range swPrep.Segments() {
			ownOutput[n] = true
		}
	}
	for _, n := range sw.Segments() {
		ownOutput[n] = true
	}
	st.SegmentsOut = len(ownOutput)

	// Build fresh trees over the sorted segments (keep is in clustering
	// order, so each column group's entries already are too).
	newTrees := map[*columnGroup]*index.Tree{}
	for g, entries := range entriesByCG {
		newTrees[g] = index.Bulk(entries)
	}

	// Crash point: the sorted output segments are durable alongside the
	// still-live inputs; the in-memory install has not begun. Recovery
	// over the doubled log must be idempotent.
	if err := s.cfg.Faults.FireErr("crash.compact.pre-install"); err != nil {
		return st, err
	}

	// Install: block mutations, replay the tail (every segment newer
	// than the frozen input, minus our own output) into the new trees,
	// swap, release. A preparation whose commit landed in the tail was
	// installed by CommitTxn into the trees about to be replaced, so the
	// round applies its parked records here, at their relocated homes.
	s.installMu.Lock()
	err = rs.round(logEnd, ownOutput, func(rec *wal.Record, ptr wal.Ptr) (bool, error) {
		_, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key)
		if !ok {
			return false, nil
		}
		tree := newTrees[g]
		if tree == nil {
			tree = index.New()
			newTrees[g] = tree
		}
		if moved, ok := remap[ptr]; ok {
			ptr = moved
		}
		applyToTree(tree, rec.Kind == wal.KindDelete, index.Entry{Key: rec.Key, TS: rec.TS, Ptr: ptr, LSN: rec.LSN}, nil)
		return true, nil
	})
	if err != nil {
		s.installMu.Unlock()
		return st, err
	}
	// Preparations still awaiting their commit learn the relocated
	// record positions.
	s.repointPrepared(remap)

	// Swap trees in. Column groups with no surviving data get an empty
	// tree (all versions deleted).
	s.mu.RLock()
	for _, t := range s.tablets {
		t.mu.RLock()
		for _, g := range t.groups {
			if nt, ok := newTrees[g]; ok {
				g.idx.Store(nt)
			} else {
				g.idx.Store(index.New())
			}
		}
		t.mu.RUnlock()
	}
	s.mu.RUnlock()
	s.installMu.Unlock()
	// Secondary indexes point into the rewritten segments too; redirect
	// them through the same old->new location map. This runs outside
	// the writer-exclusion window: the replayed entries keep their
	// original LSNs, so the LSN guard rejects them wherever a concurrent
	// write already installed something newer.
	s.repointSecondaries(remap)

	// Crash point: new trees are installed but the superseded input
	// segments still exist — a restart must not resurrect vacuumed
	// versions nor double-apply relocated records.
	if err := s.cfg.Faults.FireErr("crash.compact.pre-remove"); err != nil {
		return st, err
	}
	if err := s.log.RemoveSegments(inputNums...); err != nil {
		return st, err
	}
	s.noteCompaction(&st, inputBytes, sw.Segments())

	// A checkpoint taken before compaction references segments that no
	// longer exist; refresh it so recovery has a consistent start.
	if err := s.Checkpoint(); err != nil {
		return st, err
	}
	return st, nil
}

// noteCompaction closes one compaction run's accounting (whole-log and
// incremental alike). The bytes reclaimed are what the removed inputs
// held beyond the rewritten outputs, floored at zero: a rewrite that
// drops nothing still gains a sorted segment's footer, and "reclaiming"
// minus one footer would step the cumulative counter backwards.
func (s *Server) noteCompaction(st *CompactionStats, inputBytes int64, outputs []uint32) {
	st.BytesReclaimed = max(0, inputBytes-s.segmentsBytes(outputs))
	s.stats.Compactions.Add(1)
	s.stats.CompactDropped.Add(int64(st.Dropped))
	s.stats.CompactReclaimed.Add(st.BytesReclaimed)
}

func (s *Server) segmentsBytes(nums []uint32) int64 {
	var n int64
	for _, si := range s.log.Segments() {
		if slices.Contains(nums, si.Num) {
			n += si.Size
		}
	}
	return n
}

// SortedFraction reports the fraction of live log bytes in sorted
// segments — 1.0 right after compaction; benches use it to verify the
// pre/post-compaction contrast of Figure 10.
func (s *Server) SortedFraction() float64 {
	var sorted, total int64
	for _, si := range s.log.Segments() {
		total += si.Size
		if si.Sorted {
			sorted += si.Size
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sorted) / float64(total)
}
