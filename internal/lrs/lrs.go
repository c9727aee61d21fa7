// Package lrs implements the paper's second baseline (§4.6): a
// log-structured record-oriented system modelled after RAMCloud but
// disk-resident, with the record index kept in a log-structured merge
// tree (the paper uses LevelDB; here the stdlib-only internal/lsm) to
// explore scaling the index beyond memory.
//
// Data placement is identical to LogBase — every write is one append to
// a segmented log in the DFS — but lookups must consult the LSM index
// (memtable, then leveled runs with bloom filters and block reads)
// instead of a dense in-memory B-link tree, which is the read-path
// contrast Figures 19–22 measure.
package lrs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dfs"
	"repro/internal/lsm"
	"repro/internal/wal"
)

// Config tunes a store.
type Config struct {
	// SegmentSize is the data-log segment size.
	SegmentSize int64
	// Index configures the LSM-tree holding the record index; LevelDB
	// defaults (4 MB write buffer) when zero.
	Index lsm.Options
}

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("lrs: not found")

// Row is one record version.
type Row struct {
	Key   []byte
	TS    int64
	Value []byte
}

// Store is one LRS node: a data log plus an LSM-resident index mapping
// (key, ts) to log locations.
type Store struct {
	fs  *dfs.DFS
	log *wal.Log
	idx *lsm.Tree
	// mu serialises mutations: LSM flush/compaction is not safe under
	// concurrent writers.
	mu sync.Mutex
}

// Open creates a store under dir.
func Open(fs *dfs.DFS, dir string, cfg Config) (*Store, error) {
	log, err := wal.Open(fs, dir+"/log", wal.Options{SegmentSize: cfg.SegmentSize})
	if err != nil {
		return nil, err
	}
	idx, err := lsm.Open(fs, dir+"/index", cfg.Index)
	if err != nil {
		return nil, err
	}
	return &Store{fs: fs, log: log, idx: idx}, nil
}

func encodePtr(p wal.Ptr) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint32(out, p.Seg)
	binary.LittleEndian.PutUint64(out[4:], uint64(p.Off))
	binary.LittleEndian.PutUint32(out[12:], p.Len)
	return out
}

func decodePtr(b []byte) (wal.Ptr, error) {
	if len(b) != 16 {
		return wal.Ptr{}, fmt.Errorf("lrs: bad ptr encoding (%d bytes)", len(b))
	}
	return wal.Ptr{
		Seg: binary.LittleEndian.Uint32(b),
		Off: int64(binary.LittleEndian.Uint64(b[4:])),
		Len: binary.LittleEndian.Uint32(b[12:]),
	}, nil
}

// Put appends the record to the data log and indexes its location.
func (s *Store) Put(key []byte, ts int64, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ptrs, err := s.log.Append(&wal.Record{Kind: wal.KindWrite, Key: key, TS: ts, Value: value})
	if err != nil {
		return err
	}
	return s.idx.Put(key, ts, encodePtr(ptrs[0]))
}

// Get returns the newest version of key visible at ts: one LSM lookup
// (possibly touching disk runs) plus one log seek.
func (s *Store) Get(key []byte, ts int64) (Row, error) {
	v, ok, err := s.idx.Get(key, ts)
	if err != nil {
		return Row{}, err
	}
	if !ok {
		return Row{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	ptr, err := decodePtr(v)
	if err != nil {
		return Row{}, err
	}
	rec, err := s.log.Read(ptr)
	if err != nil {
		return Row{}, err
	}
	return Row{Key: rec.Key, TS: rec.TS, Value: rec.Value}, nil
}

// GetLatest returns the newest version of key.
func (s *Store) GetLatest(key []byte) (Row, error) { return s.Get(key, math.MaxInt64) }

// FullScan streams every live record in log order, checking each
// scanned version against the index — the version check whose cost
// (an LSM lookup per record instead of a memory probe) explains LRS's
// scan gap in Figure 21.
func (s *Store) FullScan(fn func(Row) bool) error {
	sc := s.log.NewScanner(wal.Position{})
	defer sc.Close()
	for sc.Next() {
		v := sc.View()
		if v.Kind() != wal.KindWrite {
			continue
		}
		cur, ok, err := s.idx.Get(v.Key(), math.MaxInt64)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted
		}
		ptr, err := decodePtr(cur)
		if err != nil {
			return err
		}
		if ptr != sc.Ptr() {
			continue // stale version
		}
		if !fn(Row{Key: bytes.Clone(v.Key()), TS: v.TS(), Value: bytes.Clone(v.Value())}) {
			return nil
		}
	}
	return sc.Err()
}
