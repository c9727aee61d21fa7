package lrs

import "repro/internal/wal"

// Delete appends an invalidation record and a tombstone to the index.
// No experiment deletes from the LRS arm; the tests use it to check
// that reads and FullScan's version check honour deletes.
func (s *Store) Delete(key []byte, ts int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.log.Append(&wal.Record{Kind: wal.KindDelete, Key: key, TS: ts}); err != nil {
		return err
	}
	return s.idx.Delete(key, ts)
}
