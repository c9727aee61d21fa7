package core

// Secondary indexes are the paper's named future work ("our future
// works include the design and implementation of efficient secondary
// indexes", §5). This extension follows the primary index's design: a
// secondary index is another in-memory B-link tree whose composite key
// is (extracted attribute value ++ primary key, timestamp) and whose
// entries point straight at log records, so a secondary read costs an
// index descent plus batched log reads of the matching rows — the same
// page-and-fetch path as a primary range scan (fetchRows), including
// its re-resolution of records a racing compaction moved.
//
// Because the log is the only data repository, secondary indexes need
// no extra persistence: they are rebuilt from the log on recovery
// exactly like primary indexes (and are covered by checkpoints via the
// same flush mechanism if registered before Checkpoint runs).

import (
	"bytes"
	"context"
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

// secComposite joins a secondary value and a primary key so that
// composites sort by (secondary value, primary key): the value's 0x00
// bytes are escaped as 0x00 0xFF and it ends in 0x00 0x01, which sorts
// below any longer value sharing its prefix. A value range [start, end)
// is therefore the composite range [secComposite(start, nil),
// secComposite(end, nil)).
func secComposite(secKey, primary []byte) []byte {
	out := make([]byte, 0, len(secKey)+2+len(primary))
	for _, b := range secKey {
		out = append(out, b)
		if b == 0 {
			out = append(out, 0xFF)
		}
	}
	out = append(out, 0, 1)
	return append(out, primary...)
}

func splitComposite(comp []byte) (secKey, primary []byte) {
	escaped := false
	for i := 0; i+1 < len(comp); i++ {
		if comp[i] != 0 {
			continue
		}
		if comp[i+1] == 1 {
			secKey = comp[:i]
			if escaped {
				secKey = bytes.ReplaceAll(secKey, []byte{0, 0xFF}, []byte{0})
			}
			return secKey, comp[i+2:]
		}
		escaped = true
		i++ // skip the escape byte
	}
	return nil, nil
}

// RegisterSecondaryIndex creates (or replaces) a secondary index over a
// column group and backfills it from the group's latest versions.
func (s *Server) RegisterSecondaryIndex(name, tabletID, group string, extract Extractor) error {
	t, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return err
	}
	si := &secondaryIndex{
		name: name, tablet: tabletID, group: group,
		extract: extract, tree: index.New(), byPK: make(map[string][]byte),
	}
	walk := func(from []byte, fn func(index.Entry) bool) { g.tree().RangeLatest(from, nil, maxTS, fn) }
	err = s.pageRows(t, g, nil, walk, nil, func(e index.Entry, r Row) bool {
		si.indexRecord(r.Key, r.TS, e.Ptr, e.LSN, r.Value)
		return true
	})
	if err != nil {
		return fmt.Errorf("core: backfill %s: %w", name, err)
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
	var out []Row
	// secKey ++ 0x00 is secKey's immediate successor.
	err := s.ScanSecondaryRange(name, secKey, append(append([]byte(nil), secKey...), 0), func(_ []byte, r Row) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanSecondaryRange streams rows whose secondary key falls in
// [start, end) (nil = open), ordered by (secondary key, primary key),
// to fn until it returns false. The index is walked a page at a time,
// so a row whose secondary key changes mid-scan is returned at most
// once: under its old key if the scan got there first, and not at all
// if the move took it from ahead of the scan to behind it.
func (s *Server) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	s.secMu.RLock()
	si, ok := s.secondary[name]
	s.secMu.RUnlock()
	if !ok {
		return fmt.Errorf("core: no secondary index %q", name)
	}
	t, g, err := s.tabletGroup(si.tablet, si.group)
	if err != nil {
		return err
	}
	var from, to []byte
	if start != nil {
		from = secComposite(start, nil)
	}
	if end != nil {
		to = secComposite(end, nil)
	}
	walk := func(from []byte, fn func(index.Entry) bool) {
		// Under si.mu a page never sees a key between indexRecord's
		// delete of its old entry and the put of its new one.
		si.mu.RLock()
		defer si.mu.RUnlock()
		si.tree.RangeLatest(from, to, maxTS, fn)
	}
	toPrimary := func(comp []byte) []byte {
		_, primary := splitComposite(comp)
		return primary
	}
	// A row that moved ahead of the scan after it was returned comes
	// round again under its new composite.
	seen := make(map[string]struct{})
	return s.pageRows(t, g, from, walk, toPrimary, func(e index.Entry, r Row) bool {
		if _, dup := seen[string(r.Key)]; dup {
			return true
		}
		seen[string(r.Key)] = struct{}{}
		secKey, _ := splitComposite(e.Key)
		return fn(secKey, r)
	})
}

// pageRows is the paged walk behind every secondary-index read and
// backfill: walk(from, collect) enumerates an index's newest entry per
// key from a seek key, pages of defaultScanBatch entries are rewritten
// to primary keys (toPrimary; nil = already primary) and resolved to
// rows of g through fetchRows, all under a pin of the live segments.
// fn receives each row with the entry it came from, in walk order,
// until it returns false; rows deleted mid-walk are dropped.
func (s *Server) pageRows(t *Tablet, g *columnGroup, from []byte, walk func(from []byte, collect func(index.Entry) bool), toPrimary func([]byte) []byte, fn func(e index.Entry, r Row) bool) error {
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)
	var page, prim []index.Entry
	for {
		page = page[:0]
		walk(from, func(e index.Entry) bool {
			page = append(page, e)
			return len(page) < defaultScanBatch
		})
		prim = append(prim[:0], page...)
		if toPrimary != nil {
			for i := range prim {
				prim[i].Key = toPrimary(prim[i].Key)
			}
		}
		rows, err := s.fetchRows(context.TODO(), t, g, g.name, prim, false, nil, nil)
		if err != nil {
			return err
		}
		// rows is prim in order, minus dropped rows; a page holds each
		// primary key at most once.
		j := 0
		for _, r := range rows {
			for !bytes.Equal(prim[j].Key, r.Key) {
				j++
			}
			if !fn(page[j], r) {
				return nil
			}
			j++
		}
		if len(page) < defaultScanBatch {
			return nil
		}
		last := page[len(page)-1].Key
		from = append(append(make([]byte, 0, len(last)+1), last...), 0)
	}
}
