package core

// Secondary indexes are the paper's named future work ("our future
// works include the design and implementation of efficient secondary
// indexes", §5). This extension follows the primary index's design: a
// secondary index is another in-memory B-link tree whose composite key
// is (extracted attribute value ++ primary key, timestamp) and whose
// entries point straight at log records, so a secondary lookup costs an
// index descent plus one log seek per matching row — the same long-tail
// property as primary reads.
//
// Because the log is the only data repository, secondary indexes need
// no extra persistence: they are rebuilt from the log on recovery
// exactly like primary indexes (and are covered by checkpoints via the
// same flush mechanism if registered before Checkpoint runs).

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/wal"
)

// Extractor derives the secondary key from a record's value; returning
// nil means "do not index this row".
type Extractor func(value []byte) []byte

// secondaryIndex is one registered secondary index on a column group.
type secondaryIndex struct {
	name    string
	tablet  string
	group   string
	extract Extractor
	tree    *index.Tree
	mu      sync.RWMutex
	// byPK remembers each primary key's current secondary key so
	// updates and deletes can unindex the old value.
	byPK map[string][]byte
}

// sep joins the secondary value and primary key; 0x00 cannot appear in
// the middle of a composite because the value is length-framed instead.
func secComposite(secKey, primary []byte) []byte {
	out := make([]byte, 0, 2+len(secKey)+len(primary))
	out = append(out, byte(len(secKey)>>8), byte(len(secKey)))
	out = append(out, secKey...)
	return append(out, primary...)
}

func splitComposite(comp []byte) (secKey, primary []byte) {
	if len(comp) < 2 {
		return nil, nil
	}
	n := int(comp[0])<<8 | int(comp[1])
	if 2+n > len(comp) {
		return nil, nil
	}
	return comp[2 : 2+n], comp[2+n:]
}

// RegisterSecondaryIndex creates (or replaces) a secondary index over a
// column group and backfills it by scanning the existing index + log.
func (s *Server) RegisterSecondaryIndex(name, tabletID, group string, extract Extractor) error {
	_, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return err
	}
	si := &secondaryIndex{
		name: name, tablet: tabletID, group: group,
		extract: extract, tree: index.New(), byPK: make(map[string][]byte),
	}
	// Backfill from the current primary index: latest version per key.
	var entries []index.Entry
	g.tree().Ascend(func(e index.Entry) bool {
		entries = append(entries, e)
		return true
	})
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && bytes.Equal(entries[j].Key, entries[i].Key) {
			j++
		}
		latest := entries[j-1]
		rec, err := s.log.Read(latest.Ptr)
		if err != nil {
			return fmt.Errorf("core: backfill %s: %w", name, err)
		}
		si.indexRecord(rec.Key, latest.TS, latest.Ptr, latest.LSN, rec.Value)
		i = j
	}
	s.secMu.Lock()
	if s.secondary == nil {
		s.secondary = make(map[string]*secondaryIndex)
	}
	s.secondary[name] = si
	s.secMu.Unlock()
	return nil
}

func (si *secondaryIndex) indexRecord(primary []byte, ts int64, ptr wal.Ptr, lsn uint64, value []byte) {
	secKey := si.extract(value)
	si.mu.Lock()
	defer si.mu.Unlock()
	if old, ok := si.byPK[string(primary)]; ok {
		if bytes.Equal(old, secKey) && secKey != nil {
			// Same secondary value: update in place (new version).
			si.tree.Put(index.Entry{Key: secComposite(secKey, primary), TS: ts, Ptr: ptr, LSN: lsn})
			return
		}
		si.tree.DeleteKey(secComposite(old, primary))
		delete(si.byPK, string(primary))
	}
	if secKey == nil {
		return
	}
	si.tree.Put(index.Entry{Key: secComposite(secKey, primary), TS: ts, Ptr: ptr, LSN: lsn})
	si.byPK[string(primary)] = append([]byte(nil), secKey...)
}

func (si *secondaryIndex) unindex(primary []byte) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if old, ok := si.byPK[string(primary)]; ok {
		si.tree.DeleteKey(secComposite(old, primary))
		delete(si.byPK, string(primary))
	}
}

// maintainSecondary routes one reflected write/delete to the matching
// secondary indexes (reflect calls it once the primary index changed).
func (s *Server) maintainSecondary(tabletID, group string, key []byte, ts int64, ptr wal.Ptr, lsn uint64, value []byte, deleted bool) {
	s.secMu.RLock()
	defer s.secMu.RUnlock()
	for _, si := range s.secondary {
		if si.tablet != tabletID || si.group != group {
			continue
		}
		if deleted {
			si.unindex(key)
		} else {
			si.indexRecord(key, ts, ptr, lsn, value)
		}
	}
}

// LookupSecondary returns the rows whose extracted secondary key equals
// secKey, in primary-key order.
func (s *Server) LookupSecondary(name string, secKey []byte) ([]Row, error) {
	s.secMu.RLock()
	si, ok := s.secondary[name]
	s.secMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no secondary index %q", name)
	}
	prefix := secComposite(secKey, nil)
	end := append(append([]byte(nil), prefix...), 0xFF)
	var out []Row
	var readErr error
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)
	si.mu.RLock()
	var entries []index.Entry
	si.tree.AscendRange(prefix, end, func(e index.Entry) bool {
		entries = append(entries, e)
		return true
	})
	si.mu.RUnlock()
	for _, e := range entries {
		got, primary := splitComposite(e.Key)
		if !bytes.Equal(got, secKey) {
			continue
		}
		rec, err := s.log.Read(e.Ptr)
		if err != nil {
			readErr = err
			break
		}
		out = append(out, Row{Key: append([]byte(nil), primary...), TS: e.TS, Value: rec.Value})
	}
	if readErr != nil {
		return nil, readErr
	}
	return out, nil
}

// ScanSecondaryRange streams rows whose secondary key falls in
// [start, end), ordered by (secondary key, primary key).
func (s *Server) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	s.secMu.RLock()
	si, ok := s.secondary[name]
	s.secMu.RUnlock()
	if !ok {
		return fmt.Errorf("core: no secondary index %q", name)
	}
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)
	si.mu.RLock()
	var entries []index.Entry
	si.tree.Ascend(func(e index.Entry) bool {
		entries = append(entries, e)
		return true
	})
	si.mu.RUnlock()
	for _, e := range entries {
		secKey, primary := splitComposite(e.Key)
		if start != nil && bytes.Compare(secKey, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(secKey, end) >= 0 {
			break
		}
		rec, err := s.log.Read(e.Ptr)
		if err != nil {
			return err
		}
		if !fn(secKey, Row{Key: append([]byte(nil), primary...), TS: e.TS, Value: rec.Value}) {
			return nil
		}
	}
	return nil
}

// SecondaryLen returns the number of indexed rows (for tests).
func (s *Server) SecondaryLen(name string) int {
	s.secMu.RLock()
	si, ok := s.secondary[name]
	s.secMu.RUnlock()
	if !ok {
		return 0
	}
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.tree.Len()
}
