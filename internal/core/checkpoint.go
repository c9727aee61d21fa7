package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/dfs"
	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Checkpoint persists the server's recovery baseline (paper §3.8): one
// DFS file, installed by one atomic write, that holds every in-memory
// index and the log position from which redo is complete, so recovery
// can reload the indexes and redo only the log tail. The file is a
// sequence of wal frames: a KindCheckpoint header whose LSN is the last
// LSN covered and whose value is that position, then one record per
// (tablet, column group) whose value is that index's entries.
//
// A running compaction finishes first: its output is numbered below any
// append segment opened after it, so a checkpoint positioned in such a
// segment before the compaction repointed its indexes would have redo
// skip the output, while the entries it saved, still pointing at the
// inputs, are pruned once the inputs go.
func (s *Server) Checkpoint() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.checkpoint()
}

// checkpoint writes the checkpoint. Callers hold compactMu.
func (s *Server) checkpoint() error {
	// Block mutations so (indexes, position) are mutually consistent.
	s.installMu.Lock()
	defer s.installMu.Unlock()
	end := s.log.End()
	pos := binary.LittleEndian.AppendUint32(nil, end.Seg)
	pos = binary.LittleEndian.AppendUint64(pos, uint64(end.Off))
	file := wal.AppendFrame(nil, &wal.Record{Kind: wal.KindCheckpoint, LSN: s.log.NextLSN() - 1, Value: pos})

	s.mu.RLock()
	tablets := make([]*Tablet, 0, len(s.tablets))
	for _, t := range s.tablets {
		tablets = append(tablets, t)
	}
	s.mu.RUnlock()
	var entries []byte
	for _, t := range tablets {
		t.mu.RLock()
		for gname, g := range t.groups {
			entries, _ = g.tree().Encode(entries[:0])
			file = wal.AppendFrame(file, &wal.Record{Kind: wal.KindCheckpoint, Tablet: t.id, Group: gname, Value: entries})
		}
		t.mu.RUnlock()
	}

	// Record a checkpoint marker in the log (useful for forensic scans).
	if _, err := s.log.Append(&wal.Record{Kind: wal.KindCheckpoint}); err != nil {
		return err
	}
	// Crash point: the new checkpoint is built but not installed —
	// recovery must use the previous one (or a full log scan) and still
	// see everything.
	if err := s.cfg.Faults.FireErr("crash.checkpoint.pre-install"); err != nil {
		return err
	}
	return s.fs.WriteFile(s.checkpointPath(), file)
}

func (s *Server) checkpointPath() string { return "chk/" + s.id }

// RecoveryStats reports what recovery did.
type RecoveryStats struct {
	UsedCheckpoint  bool
	IndexesLoaded   int
	RecordsScanned  int
	EntriesRestored int
	// MaxTS is the highest committed timestamp restored (checkpointed
	// entries plus redone tail records). A reopened instance must
	// advance its timestamp oracle to at least this before serving
	// "latest" snapshot reads.
	MaxTS   int64
	Elapsed time.Duration
}

// loadCheckpoint installs the indexes a checkpoint file holds and seeds
// the redo with where it starts and the LSN and timestamp high marks it
// continues from.
//
// The file's frames are parsed in place: each index payload goes
// straight from b to index.Decode, which copies only the keys it keeps.
func (s *Server) loadCheckpoint(b []byte, rs *ReplaySession, st *RecoveryStats) error {
	var v wal.View
	n, err := v.Parse(b)
	if err == nil && (v.Kind() != wal.KindCheckpoint || len(v.Value()) != 12) {
		err = wal.ErrCorrupt
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	st.UsedCheckpoint = true
	pos := v.Value()
	rs.pos = wal.Position{Seg: binary.LittleEndian.Uint32(pos), Off: int64(binary.LittleEndian.Uint64(pos[4:]))}
	rs.maxLSN = v.LSN()
	// Incremental compaction may have reclaimed segments AFTER the
	// checkpoint was written: checkpointed entries pointing into
	// removed segments are pruned. Relocated records re-add their
	// entries during the redo (compaction output segments sit past the
	// checkpoint position); vacuumed versions (beyond the retention
	// bound) are gone on purpose and must not resurface.
	liveSegs := map[uint32]bool{}
	for _, si := range s.log.Segments() {
		liveSegs[si.Num] = true
	}
	for b = b[n:]; len(b) > 0; b = b[n:] {
		if n, err = v.Parse(b); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
		tablet, group := string(v.Tablet()), string(v.Group())
		_, g, gerr := s.tabletGroup(tablet, group)
		if gerr != nil {
			continue // tablet reassigned elsewhere
		}
		tree, err := index.Decode(v.Value())
		if err != nil {
			return fmt.Errorf("core: checkpoint index %s/%s: %w", tablet, group, err)
		}
		var stale []index.Entry
		tree.Ascend(func(e index.Entry) bool {
			if !liveSegs[e.Ptr.Seg] {
				stale = append(stale, e)
			} else if e.TS > rs.maxTS {
				rs.maxTS = e.TS
			}
			return true
		})
		for _, e := range stale {
			tree.DeleteVersion(e.Key, e.TS)
		}
		g.idx.Store(tree)
		st.IndexesLoaded++
		st.EntriesRestored += tree.Len()
	}
	return nil
}

// Recover rebuilds the server's in-memory indexes after a restart
// (paper §3.8). With a checkpoint it reloads the checkpointed indexes
// and redoes the log tail from the checkpoint position; without one it
// scans the entire log. Tablets must have been declared (AddTablet)
// before calling Recover. Recovery is idempotent: a crash during
// recovery just redoes the process.
func (s *Server) Recover() (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats

	s.installMu.Lock()
	defer s.installMu.Unlock()

	// The checkpoint (if any) seeds the redo; without one the redo
	// covers the whole log.
	rs := newReplaySession(s, s.log, wal.Position{}, nil)
	if b, err := s.fs.ReadFile(s.checkpointPath()); err == nil {
		if err := s.loadCheckpoint(b, rs, &st); err != nil {
			return st, err
		}
	} else if !errors.Is(err, dfs.ErrNotFound) {
		return st, err
	}

	// Redo the tail in place: one replay round over this server's own
	// log.
	if err := rs.round(s.redo); err != nil {
		return st, err
	}
	st.RecordsScanned, st.MaxTS = rs.scanned, rs.maxTS
	st.EntriesRestored += rs.applied
	s.log.SetNextLSN(rs.maxLSN + 1)
	// Indexes now reflect the log: index-probe-driven compaction is safe.
	s.indexReady.Store(true)
	st.Elapsed = time.Since(start)
	return st, nil
}

// RecoverTablets adopts tablets from a failed server by scanning that
// server's log in the shared DFS (from srcStart, typically the failed
// server's last checkpoint position) and re-appending the live,
// committed records for the adopted tablets into this server's own log
// — the "log is scanned ... and split into separate files for each
// tablet" failover path of paper §3.8. The tablets must already be
// declared here via AddTablet.
func (s *Server) RecoverTablets(srcServerID string, srcStart wal.Position, tabletIDs []string) (int, error) {
	specs := make([]partition.Tablet, len(tabletIDs))
	for i, id := range tabletIDs {
		specs[i].ID = id
	}
	srcLog, err := s.OpenPeerLog(srcServerID)
	if err != nil {
		return 0, err
	}
	rs, err := s.NewReplaySession(srcLog, srcStart, specs)
	if err != nil {
		return 0, err
	}
	return rs.CatchUp()
}
