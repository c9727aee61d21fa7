package core

// Garbage-triggered background compaction pacing (paper §3.6.5
// generalised): instead of waiting for a whole-log Compact, a paced
// background loop (Config.AutoCompact) picks the segments whose
// accumulated garbage (superseded versions, deleted rows) or unsorted
// layout makes them worth reclustering and hands them to the compaction
// engine (compaction.go) on every tablet server, so the log STAYS
// clustered under sustained write+scan load — which is what keeps the
// clustered scan fast path engaged continuously rather than only after a
// manual vacuum. This file is the pacing: candidates, tick, loop, and
// the post-recovery garbage audit.

import (
	"sort"
	"sync"
	"time"

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
// index (the liveness probe compaction uses): one sequential
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
			if rec := sc.Record(); rec.Kind == wal.KindWrite && !s.live(&rec, sc.Ptr()) {
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
