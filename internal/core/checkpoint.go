package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Checkpoint persists the server's recovery baseline (paper §3.8): it
// flushes every in-memory index to an index file in the DFS and then
// writes a manifest recording the log position and last LSN covered, so
// recovery can reload the indexes and redo only the log tail.
func (s *Server) Checkpoint() error {
	// Block mutations so (indexes, position) are mutually consistent.
	s.installMu.Lock()
	defer s.installMu.Unlock()
	return s.checkpointLocked()
}

func (s *Server) checkpointLocked() error {
	pos := s.log.End()
	lastLSN := s.log.NextLSN() - 1

	var manifest bytes.Buffer
	fmt.Fprintf(&manifest, "logbase-checkpoint v1\n")
	fmt.Fprintf(&manifest, "pos %d %d\n", pos.Seg, pos.Off)
	fmt.Fprintf(&manifest, "lsn %d\n", lastLSN)

	s.mu.RLock()
	tablets := make([]*Tablet, 0, len(s.tablets))
	for _, t := range s.tablets {
		tablets = append(tablets, t)
	}
	s.mu.RUnlock()
	for _, t := range tablets {
		t.mu.RLock()
		for gname, g := range t.groups {
			path := s.indexFilePath(t.id, gname)
			if _, err := g.tree().Flush(s.fs, path); err != nil {
				t.mu.RUnlock()
				return fmt.Errorf("core: checkpoint flush %s/%s: %w", t.id, gname, err)
			}
			fmt.Fprintf(&manifest, "idx %s\x1f%s\x1f%s\n", t.id, gname, path)
		}
		t.mu.RUnlock()
	}

	// Record a checkpoint marker in the log (useful for forensic scans)
	// and install the manifest atomically via tmp+rename.
	if _, err := s.log.Append(&wal.Record{Kind: wal.KindCheckpoint}); err != nil {
		return err
	}
	manifestPath := s.manifestPath()
	tmp := manifestPath + ".tmp"
	if s.fs.Exists(tmp) {
		if err := s.fs.Delete(tmp); err != nil {
			return err
		}
	}
	w, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := w.Write(manifest.Bytes()); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Crash point: index files and the tmp manifest are written but the
	// rename has not happened — recovery must fall back to the previous
	// manifest (or a full log scan) and still see everything.
	if err := s.cfg.Faults.FireErr("crash.checkpoint.pre-install"); err != nil {
		return err
	}
	if s.fs.Exists(manifestPath) {
		if err := s.fs.Delete(manifestPath); err != nil {
			return err
		}
	}
	return s.fs.Rename(tmp, manifestPath)
}

func (s *Server) manifestPath() string { return fmt.Sprintf("chk/%s/manifest", s.id) }

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

type manifestData struct {
	pos     wal.Position
	lastLSN uint64
	indexes []manifestIndex
}

type manifestIndex struct {
	tablet, group, path string
}

func (s *Server) loadManifest() (*manifestData, error) {
	path := s.manifestPath()
	if !s.fs.Exists(path) {
		return nil, nil
	}
	r, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size, err := r.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	if !sc.Scan() || sc.Text() != "logbase-checkpoint v1" {
		return nil, fmt.Errorf("core: bad manifest header in %s", path)
	}
	md := &manifestData{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pos "):
			if _, err := fmt.Sscanf(line, "pos %d %d", &md.pos.Seg, &md.pos.Off); err != nil {
				return nil, fmt.Errorf("core: bad manifest pos: %w", err)
			}
		case strings.HasPrefix(line, "lsn "):
			if _, err := fmt.Sscanf(line, "lsn %d", &md.lastLSN); err != nil {
				return nil, fmt.Errorf("core: bad manifest lsn: %w", err)
			}
		case strings.HasPrefix(line, "idx "):
			parts := strings.Split(line[4:], "\x1f")
			if len(parts) != 3 {
				return nil, fmt.Errorf("core: bad manifest idx line %q", line)
			}
			md.indexes = append(md.indexes, manifestIndex{parts[0], parts[1], parts[2]})
		}
	}
	return md, sc.Err()
}

// Recover rebuilds the server's in-memory indexes after a restart
// (paper §3.8). With a checkpoint it reloads the persisted index files
// and redoes the log tail from the checkpoint position; without one it
// scans the entire log. Tablets must have been declared (AddTablet)
// before calling Recover. Recovery is idempotent: a crash during
// recovery just redoes the process.
func (s *Server) Recover() (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats

	s.installMu.Lock()
	defer s.installMu.Unlock()

	md, err := s.loadManifest()
	if err != nil {
		return st, err
	}
	// The checkpoint (if any) seeds the redo: where it starts, and the
	// LSN and timestamp high marks it continues from.
	rs := newReplaySession(s, s.log, wal.Position{}, nil)
	if md != nil {
		st.UsedCheckpoint = true
		rs.pos, rs.maxLSN = md.pos, md.lastLSN
		// Incremental compaction may have reclaimed segments AFTER the
		// checkpoint was written: checkpointed entries pointing into
		// removed segments are pruned. Relocated records re-add their
		// entries during the redo below (compaction output segments sit
		// past the checkpoint position); vacuumed versions (beyond the
		// retention bound) are gone on purpose and must not resurface.
		liveSegs := map[uint32]bool{}
		for _, si := range s.log.Segments() {
			liveSegs[si.Num] = true
		}
		for _, mi := range md.indexes {
			t, terr := s.tablet(mi.tablet)
			if terr != nil {
				continue // tablet reassigned elsewhere
			}
			g, gerr := t.group(mi.group)
			if gerr != nil {
				continue
			}
			tree, lerr := index.Load(s.fs, mi.path)
			if lerr != nil {
				return st, fmt.Errorf("core: recover index %s: %w", mi.path, lerr)
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
	}

	// Redo the tail in place: one replay round over this server's own
	// log.
	if err := rs.round(logEnd, s.redo); err != nil {
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
