// Package hbase implements the WAL+Data baseline the paper compares
// against (HBase 0.90.3, §4): every write goes to a write-ahead log AND
// a memtable; full memtables are flushed into immutable store files
// (SSTables) with sparse block indexes; reads consult the memtable and
// every store file (whole blocks are fetched, optionally via a block
// cache); minor compaction merges store files.
//
// The contrasts the paper measures all live here: the double write
// (log + flush) halves write throughput versus log-only; the sparse
// index forces block fetches on cache misses where LogBase's dense
// in-memory index costs one seek; writes stall while a full memtable
// flushes; and sorted store files make range scans cheap without any
// log compaction.
package hbase

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/lsm"
	"repro/internal/sstable"
	"repro/internal/wal"
)

// Config tunes the store.
type Config struct {
	// MemtableBytes is the flush threshold (HBase default 64 MB; scale
	// down in simulations).
	MemtableBytes int64
	// BlockSize is the store-file block size (HBase default 64 KB).
	BlockSize int
	// BlockCacheBytes bounds the block cache; zero disables it.
	BlockCacheBytes int64
	// MaxStoreFiles triggers a minor compaction when exceeded.
	MaxStoreFiles int
	// BloomBitsPerKey enables store-file bloom filters (0 = off,
	// matching HBase 0.90 defaults).
	BloomBitsPerKey int
	// SegmentSize is the WAL segment size.
	SegmentSize int64
}

func (c Config) withDefaults() Config {
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 10
	}
	if c.MaxStoreFiles <= 0 {
		c.MaxStoreFiles = 8
	}
	return c
}

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("hbase: not found")

// Row is one record version.
type Row struct {
	Key   []byte
	TS    int64
	Value []byte
}

// Store is one region store (the paper's unit of comparison): a WAL, a
// memtable and a set of store files in the DFS. Safe for concurrent
// use.
type Store struct {
	fs  *dfs.DFS
	dir string
	cfg Config
	wal *wal.Log
	bc  *cache.Cache

	mu       sync.RWMutex
	flushMu  sync.Mutex // serialises Flush and minor compaction
	mem      *lsm.Memtable
	files    []*sstable.Reader // newest first
	nextFile int
}

// Open creates a store under dir.
func Open(fs *dfs.DFS, dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	w, err := wal.Open(fs, dir+"/wal", wal.Options{SegmentSize: cfg.SegmentSize})
	if err != nil {
		return nil, err
	}
	var bc *cache.Cache
	if cfg.BlockCacheBytes > 0 {
		bc = cache.New(cfg.BlockCacheBytes, nil)
	}
	return &Store{fs: fs, dir: dir, cfg: cfg, wal: w, bc: bc, mem: lsm.NewMemtable(), nextFile: 1}, nil
}

// Put writes a row version: first the WAL (durability), then the
// memtable; a full memtable is flushed synchronously — the write stall
// the paper observes ("the write has to wait until the memtable is
// persisted successfully into HDFS", §4.3).
func (s *Store) Put(key []byte, ts int64, value []byte) error {
	if _, err := s.wal.Append(&wal.Record{Kind: wal.KindWrite, Key: key, TS: ts, Value: value}); err != nil {
		return err
	}
	s.mu.Lock()
	s.mem.Put(sstable.Entry{Key: key, TS: ts, Value: value})
	full := s.mem.ApproxBytes() >= s.cfg.MemtableBytes
	s.mu.Unlock()
	if full {
		return s.Flush()
	}
	return nil
}

// Flush persists the memtable as a new store file.
func (s *Store) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	mem := s.mem
	if mem.Len() == 0 {
		s.mu.Unlock()
		return nil
	}
	s.mem = lsm.NewMemtable()
	num := s.nextFile
	s.nextFile++
	s.mu.Unlock()

	path := fmt.Sprintf("%s/hfile-%06d", s.dir, num)
	w, err := sstable.NewWriter(s.fs, path, sstable.WriterOptions{BlockSize: s.cfg.BlockSize, BloomBitsPerKey: s.cfg.BloomBitsPerKey})
	if err != nil {
		return err
	}
	it := mem.Iterator(nil)
	for it.Next() {
		if err := w.Add(it.Entry()); err != nil {
			return err
		}
	}
	if err := w.Finish(); err != nil {
		return err
	}
	r, err := sstable.OpenReader(s.fs, path, s.bc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.files = append([]*sstable.Reader{r}, s.files...)
	tooMany := len(s.files) > s.cfg.MaxStoreFiles
	s.mu.Unlock()
	if tooMany {
		return s.compactFilesLocked()
	}
	return nil
}

// compactFilesLocked is the minor compaction: merge all store files
// into one. It requires flushMu held.
func (s *Store) compactFilesLocked() error {
	s.mu.Lock()
	inputs := append([]*sstable.Reader(nil), s.files...)
	num := s.nextFile
	s.nextFile++
	s.mu.Unlock()
	if len(inputs) <= 1 {
		return nil
	}
	sources := make([]sstable.Source, len(inputs))
	for i, r := range inputs {
		sources[i] = r.NewIterator(nil)
	}
	merged := sstable.NewMergeIterator(sources...)
	path := fmt.Sprintf("%s/hfile-%06d", s.dir, num)
	w, err := sstable.NewWriter(s.fs, path, sstable.WriterOptions{BlockSize: s.cfg.BlockSize, BloomBitsPerKey: s.cfg.BloomBitsPerKey})
	if err != nil {
		return err
	}
	for merged.Next() {
		if err := w.Add(merged.Entry()); err != nil {
			return err
		}
	}
	if err := merged.Err(); err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	r, err := sstable.OpenReader(s.fs, path, s.bc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.files = []*sstable.Reader{r}
	s.mu.Unlock()
	for _, o := range inputs {
		s.fs.Delete(o.Path()) //nolint:errcheck // best-effort GC
	}
	return nil
}

// Get returns the newest version of key visible at ts. Every store file
// may need checking ("the tablet server in HBase has to check its
// multiple data files", §4.2.2); version timestamps are caller-supplied
// so all sources are consulted and the max-TS candidate wins.
func (s *Store) Get(key []byte, ts int64) (Row, error) {
	var best sstable.Entry
	found := false
	consider := func(e sstable.Entry) {
		if !found || e.TS > best.TS {
			best, found = e, true
		}
	}
	s.mu.RLock()
	if e, ok := s.mem.Get(key, ts); ok {
		consider(e)
	}
	files := append([]*sstable.Reader(nil), s.files...)
	s.mu.RUnlock()
	for _, f := range files {
		e, ok, err := f.Get(key, ts)
		if err != nil {
			return Row{}, err
		}
		if ok {
			consider(e)
		}
	}
	if !found || best.Tombstone {
		return Row{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return Row{Key: best.Key, TS: best.TS, Value: best.Value}, nil
}

// GetLatest returns the newest version of key.
func (s *Store) GetLatest(key []byte) (Row, error) { return s.Get(key, math.MaxInt64) }

// Scan streams the newest visible version (at ts) of each key in
// [start, end) in key order — cheap in HBase because memtable and store
// files are already sorted (§4.2.3).
func (s *Store) Scan(start, end []byte, ts int64, fn func(Row) bool) error {
	s.mu.RLock()
	sources := []sstable.Source{s.mem.Iterator(start)}
	for _, f := range s.files {
		sources = append(sources, f.NewIterator(start))
	}
	s.mu.RUnlock()
	merged := sstable.NewMergeIterator(sources...)
	var curKey []byte
	var bestE sstable.Entry
	haveBest := false
	emit := func() bool {
		if !haveBest || bestE.Tombstone {
			return true
		}
		return fn(Row{Key: bestE.Key, TS: bestE.TS, Value: bestE.Value})
	}
	for merged.Next() {
		e := merged.Entry()
		if end != nil && string(e.Key) >= string(end) {
			break
		}
		if curKey == nil || string(e.Key) != string(curKey) {
			if !emit() {
				return nil
			}
			curKey = append(curKey[:0], e.Key...)
			haveBest = false
		}
		if e.TS <= ts && (!haveBest || e.TS > bestE.TS) {
			bestE = e
			haveBest = true
		}
	}
	if err := merged.Err(); err != nil {
		return err
	}
	emit()
	return nil
}

// FullScan streams every key's newest version.
func (s *Store) FullScan(fn func(Row) bool) error {
	return s.Scan(nil, nil, math.MaxInt64, fn)
}

// NumStoreFiles reports the current store-file count.
func (s *Store) NumStoreFiles() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}
