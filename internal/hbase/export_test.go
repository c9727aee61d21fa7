package hbase

import (
	"repro/internal/sstable"
	"repro/internal/wal"
)

// Delete writes a tombstone. No experiment deletes from the HBase arm;
// the tests use it to check that reads, scans and flushes honour
// tombstones.
func (s *Store) Delete(key []byte, ts int64) error {
	if _, err := s.wal.Append(&wal.Record{Kind: wal.KindDelete, Key: key, TS: ts}); err != nil {
		return err
	}
	s.mu.Lock()
	s.mem.Put(sstable.Entry{Key: key, TS: ts, Tombstone: true})
	full := s.mem.ApproxBytes() >= s.cfg.MemtableBytes
	s.mu.Unlock()
	if full {
		return s.Flush()
	}
	return nil
}
