package lsm

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/sstable"
)

// Options configures a Tree.
type Options struct {
	// MemtableBytes is the flush threshold. Zero means 4 MB (LevelDB's
	// default write buffer, which the paper's LRS experiment keeps).
	MemtableBytes int64
	// BlockSize is the SSTable block size; zero means 8 KB.
	BlockSize int
	// BloomBitsPerKey sizes per-table bloom filters; zero means 10.
	BloomBitsPerKey int
	// L0CompactionTrigger is the number of L0 runs that triggers a
	// compaction into L1. Zero means 4 (LevelDB default).
	L0CompactionTrigger int
	// LevelSizeMultiplier is the size ratio between adjacent levels.
	// Zero means 10.
	LevelSizeMultiplier int
	// BaseLevelBytes is the target size of L1. Zero means 10 MB.
	BaseLevelBytes int64
	// BlockCache, when non-nil, caches data blocks across tables.
	BlockCache *cache.Cache
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 8 << 10
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.LevelSizeMultiplier <= 0 {
		o.LevelSizeMultiplier = 10
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 10 << 20
	}
	return o
}

const numLevels = 7

// Tree is the LSM-tree: an in-memory memtable over leveled, immutable
// SSTable runs in the DFS. Safe for concurrent use; compactions run
// inline on the writing goroutine (deterministic for benches).
type Tree struct {
	fs   *dfs.DFS
	dir  string
	opts Options

	mu  sync.RWMutex
	mem *Memtable
	// imm is the immutable memtable being flushed (LevelDB's "imm"):
	// readers consult it so data stays visible in the window between
	// the memtable swap and the L0 run install.
	imm     *Memtable
	levels  [numLevels][]*sstable.Reader // L0: newest first, overlapping; L1+: sorted, disjoint
	nextNum int
	sizes   [numLevels]int64
}

// Open creates an empty tree rooted at dir. (Recovery of an existing
// tree is not needed by the reproduction: LRS recovers by replaying the
// data log, as LogBase does.)
func Open(fs *dfs.DFS, dir string, opts Options) (*Tree, error) {
	return &Tree{fs: fs, dir: dir, opts: opts.withDefaults(), mem: NewMemtable(), nextNum: 1}, nil
}

// Put inserts a key version.
func (t *Tree) Put(key []byte, ts int64, value []byte) error {
	return t.insert(sstable.Entry{Key: key, TS: ts, Value: value})
}

// Delete writes a tombstone for key at ts.
func (t *Tree) Delete(key []byte, ts int64) error {
	return t.insert(sstable.Entry{Key: key, TS: ts, Tombstone: true})
}

func (t *Tree) insert(e sstable.Entry) error {
	t.mem.Put(e)
	if t.mem.ApproxBytes() >= t.opts.MemtableBytes {
		return t.Flush()
	}
	return nil
}

// Get returns the newest value of key at or before ts. A tombstone or
// absence yields ok == false.
//
// Version timestamps are caller-supplied (they are commit timestamps,
// not arrival sequence numbers), so a younger run can legitimately hold
// an older version than a deeper run. Get therefore consults every
// source and keeps the greatest timestamp; for equal timestamps the
// younger source wins.
func (t *Tree) Get(key []byte, ts int64) ([]byte, bool, error) {
	var best sstable.Entry
	found := false
	consider := func(e sstable.Entry) {
		if !found || e.TS > best.TS {
			best, found = e, true
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.mem.Get(key, ts); ok {
		consider(e)
	}
	if t.imm != nil {
		if e, ok := t.imm.Get(key, ts); ok {
			consider(e)
		}
	}
	for l := 0; l < numLevels; l++ {
		for _, r := range t.levels[l] {
			e, ok, err := r.Get(key, ts)
			if err != nil {
				return nil, false, err
			}
			if ok {
				consider(e)
			}
		}
	}
	if !found || best.Tombstone {
		return nil, false, nil
	}
	return best.Value, true, nil
}

// Flush persists the memtable as a new L0 run and triggers compactions
// as level budgets are exceeded.
func (t *Tree) Flush() error {
	t.mu.Lock()
	mem := t.mem
	if mem.Len() == 0 {
		t.mu.Unlock()
		return nil
	}
	t.mem = NewMemtable()
	t.imm = mem // stays readable until the L0 run is installed
	num := t.nextNum
	t.nextNum++
	t.mu.Unlock()

	path := fmt.Sprintf("%s/L0-%06d.sst", t.dir, num)
	w, err := sstable.NewWriter(t.fs, path, sstable.WriterOptions{BlockSize: t.opts.BlockSize, BloomBitsPerKey: t.opts.BloomBitsPerKey})
	if err != nil {
		return err
	}
	it := mem.Iterator(nil)
	var size int64
	for it.Next() {
		e := it.Entry()
		if err := w.Add(e); err != nil {
			return err
		}
		size += int64(len(e.Key) + len(e.Value) + 16)
	}
	if err := w.Finish(); err != nil {
		return err
	}
	r, err := sstable.OpenReader(t.fs, path, t.opts.BlockCache)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.levels[0] = append([]*sstable.Reader{r}, t.levels[0]...)
	t.sizes[0] += size
	if t.imm == mem {
		t.imm = nil // the run now serves these entries
	}
	needL0 := len(t.levels[0]) >= t.opts.L0CompactionTrigger
	t.mu.Unlock()
	if needL0 {
		if err := t.compact(0); err != nil {
			return err
		}
	}
	return t.maybeCompactDeeper()
}

func (t *Tree) maybeCompactDeeper() error {
	for l := 1; l < numLevels-1; l++ {
		budget := t.opts.BaseLevelBytes
		for i := 1; i < l; i++ {
			budget *= int64(t.opts.LevelSizeMultiplier)
		}
		t.mu.RLock()
		over := t.sizes[l] > budget
		t.mu.RUnlock()
		if over {
			if err := t.compact(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// compact merges all of level l with all of level l+1 into fresh,
// disjoint runs at l+1. (Full-level compaction is simpler than
// LevelDB's per-range picking and preserves the same I/O shape at
// simulation scale.)
func (t *Tree) compact(l int) error {
	t.mu.Lock()
	inputs := append(append([]*sstable.Reader(nil), t.levels[l]...), t.levels[l+1]...)
	if len(inputs) == 0 {
		t.mu.Unlock()
		return nil
	}
	num := t.nextNum
	t.nextNum++
	t.mu.Unlock()

	sources := make([]sstable.Source, len(inputs))
	for i, r := range inputs {
		sources[i] = r.NewIterator(nil)
	}
	merged := sstable.NewMergeIterator(sources...)

	path := fmt.Sprintf("%s/L%d-%06d.sst", t.dir, l+1, num)
	w, err := sstable.NewWriter(t.fs, path, sstable.WriterOptions{BlockSize: t.opts.BlockSize, BloomBitsPerKey: t.opts.BloomBitsPerKey})
	var outSize int64
	if err != nil {
		return err
	}
	bottom := l+1 == numLevels-1
	var lastKey []byte
	for merged.Next() {
		e := merged.Entry()
		// At the bottom level, drop tombstones and the versions they
		// shadow; we keep all non-shadowed versions (multiversion store).
		if bottom && e.Tombstone {
			lastKey = append(lastKey[:0], e.Key...)
			continue
		}
		if bottom && lastKey != nil && bytes.Equal(e.Key, lastKey) {
			// Version shadowed by a newer tombstone at this level.
			continue
		}
		if !e.Tombstone {
			lastKey = nil
		}
		if err := w.Add(e); err != nil {
			return err
		}
		outSize += int64(len(e.Key) + len(e.Value) + 16)
	}
	if err := merged.Err(); err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	r, err := sstable.OpenReader(t.fs, path, t.opts.BlockCache)
	if err != nil {
		return err
	}

	t.mu.Lock()
	old := inputs
	t.levels[l] = nil
	t.levels[l+1] = []*sstable.Reader{r}
	t.sizes[l+1] = outSize
	t.sizes[l] = 0
	t.mu.Unlock()
	for _, o := range old {
		t.fs.Delete(o.Path()) //nolint:errcheck // best-effort GC of dead runs
	}
	return nil
}
