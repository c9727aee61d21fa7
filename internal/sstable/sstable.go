// Package sstable implements immutable sorted string tables: the
// on-disk data files of the WAL+Data baseline (HBase's HFiles) and the
// runs of the LSM-tree used by the LRS baseline.
//
// Layout (all little-endian):
//
//	data blocks | sparse index | bloom filter | footer
//
// Data blocks hold entries sorted by (key ascending, timestamp
// descending) so the first version met for a key is the newest. The
// sparse index stores only the first key of each block — reads must
// fetch and scan an entire block, which is exactly the extra I/O the
// paper charges HBase against LogBase's dense in-memory index (§4.2.2).
// A bloom filter (as in bLSM) short-circuits misses.
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/dfs"
)

// Entry is one key version in a table.
type Entry struct {
	Key       []byte
	TS        int64
	Value     []byte
	Tombstone bool
}

// Compare orders entries by key ascending, then timestamp descending
// (newest version first).
func Compare(aKey []byte, aTS int64, bKey []byte, bTS int64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aTS > bTS:
		return -1
	case aTS < bTS:
		return 1
	default:
		return 0
	}
}

var tableMagic = []byte{'L', 'B', 'S', 'S', 'T', 1}

const (
	footerSize    = 6 + 8*4 + 8 + 4 // magic + idx off/len + bloom off/len + count + crc
	tombstoneMark = math.MaxUint32
)

// ErrBadTable reports a malformed table file.
var ErrBadTable = errors.New("sstable: bad table")

// WriterOptions configures table building.
type WriterOptions struct {
	// BlockSize is the target uncompressed data-block size. Zero means
	// 8 KB (scaled down from HBase's 64 KB to match simulation sizes).
	BlockSize int
	// BloomBitsPerKey sizes the bloom filter; zero disables it.
	BloomBitsPerKey int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 8 << 10
	}
	return o
}

// Writer builds one table. Entries must be added in Compare order.
type Writer struct {
	w    *dfs.Writer
	opts WriterOptions

	block    bytes.Buffer
	firstKey []byte
	firstTS  int64
	index    []indexEntry
	keys     [][]byte // for bloom
	count    uint64
	off      int64
	lastKey  []byte
	lastTS   int64
	started  bool
}

type indexEntry struct {
	key []byte
	ts  int64
	off int64
	len int64
}

// NewWriter creates path in fs and returns a Writer.
func NewWriter(fs *dfs.DFS, path string, opts WriterOptions) (*Writer, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{w: w, opts: opts.withDefaults()}, nil
}

// Add appends one entry; entries must arrive sorted and unique.
func (t *Writer) Add(e Entry) error {
	if t.started && Compare(e.Key, e.TS, t.lastKey, t.lastTS) <= 0 {
		return fmt.Errorf("sstable: out-of-order add: (%q,%d) after (%q,%d)", e.Key, e.TS, t.lastKey, t.lastTS)
	}
	t.started = true
	t.lastKey = append(t.lastKey[:0], e.Key...)
	t.lastTS = e.TS
	if t.block.Len() == 0 {
		t.firstKey = append([]byte(nil), e.Key...)
		t.firstTS = e.TS
	}
	var rec []byte
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(e.Key)))
	rec = append(rec, e.Key...)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(e.TS))
	if e.Tombstone {
		rec = binary.LittleEndian.AppendUint32(rec, tombstoneMark)
	} else {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(e.Value)))
		rec = append(rec, e.Value...)
	}
	t.block.Write(rec)
	t.count++
	if t.opts.BloomBitsPerKey > 0 {
		t.keys = append(t.keys, append([]byte(nil), e.Key...))
	}
	if t.block.Len() >= t.opts.BlockSize {
		return t.flushBlock()
	}
	return nil
}

func (t *Writer) flushBlock() error {
	if t.block.Len() == 0 {
		return nil
	}
	n := t.block.Len()
	if _, err := t.w.Write(t.block.Bytes()); err != nil {
		return err
	}
	t.index = append(t.index, indexEntry{key: t.firstKey, ts: t.firstTS, off: t.off, len: int64(n)})
	t.off += int64(n)
	t.block.Reset()
	return nil
}

// Finish writes the index, bloom filter and footer and closes the file.
func (t *Writer) Finish() error {
	if err := t.flushBlock(); err != nil {
		return err
	}
	// Sparse index.
	var idx bytes.Buffer
	binary.Write(&idx, binary.LittleEndian, uint32(len(t.index))) //nolint:errcheck
	for _, ie := range t.index {
		binary.Write(&idx, binary.LittleEndian, uint16(len(ie.key))) //nolint:errcheck
		idx.Write(ie.key)
		binary.Write(&idx, binary.LittleEndian, uint64(ie.ts))  //nolint:errcheck
		binary.Write(&idx, binary.LittleEndian, uint64(ie.off)) //nolint:errcheck
		binary.Write(&idx, binary.LittleEndian, uint64(ie.len)) //nolint:errcheck
	}
	idxOff := t.off
	if _, err := t.w.Write(idx.Bytes()); err != nil {
		return err
	}
	t.off += int64(idx.Len())

	// Bloom filter.
	var bloomBytes []byte
	if t.opts.BloomBitsPerKey > 0 && len(t.keys) > 0 {
		b := newBloom(len(t.keys), t.opts.BloomBitsPerKey)
		for _, k := range t.keys {
			b.add(k)
		}
		bloomBytes = b.marshal()
	}
	bloomOff := t.off
	if len(bloomBytes) > 0 {
		if _, err := t.w.Write(bloomBytes); err != nil {
			return err
		}
		t.off += int64(len(bloomBytes))
	}

	var footer []byte
	footer = append(footer, tableMagic...)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(idxOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(idx.Len()))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(bloomOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(bloomBytes)))
	footer = binary.LittleEndian.AppendUint64(footer, t.count)
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer))
	if _, err := t.w.Write(footer); err != nil {
		return err
	}
	return t.w.Close()
}

// Reader serves point and range reads from one table.
type Reader struct {
	fs    *dfs.DFS
	path  string
	r     *dfs.Reader
	index []indexEntry
	bloom *bloom
	// blocks caches decoded blocks; shared across readers (HBase's
	// block cache).
	blocks *cache.Cache
	// idxOff/idxLen locate the sparse index in the file. Without a
	// block cache nothing is memory-resident, so every lookup re-reads
	// the index region from disk — the paper's "both application data
	// and index blocks need to be fetched from disk-resident files"
	// (§3.5). With a cache the index is assumed pinned.
	idxOff, idxLen int64
}

// OpenReader opens a finished table. blockCache may be nil (no caching),
// reproducing the paper's "without cache" micro-benchmarks.
func OpenReader(fs *dfs.DFS, path string, blockCache *cache.Cache) (*Reader, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := r.Size()
	if err != nil {
		return nil, err
	}
	if size < footerSize {
		return nil, fmt.Errorf("%w: %s: too small", ErrBadTable, path)
	}
	f := make([]byte, footerSize)
	if _, err := r.ReadAt(f, size-footerSize); err != nil && err != io.EOF {
		return nil, err
	}
	if !bytes.Equal(f[:6], tableMagic) {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrBadTable, path)
	}
	if crc32.ChecksumIEEE(f[:footerSize-4]) != binary.LittleEndian.Uint32(f[footerSize-4:]) {
		return nil, fmt.Errorf("%w: %s: footer crc", ErrBadTable, path)
	}
	idxOff := int64(binary.LittleEndian.Uint64(f[6:]))
	idxLen := int64(binary.LittleEndian.Uint64(f[14:]))
	bloomOff := int64(binary.LittleEndian.Uint64(f[22:]))
	bloomLen := int64(binary.LittleEndian.Uint64(f[30:]))

	t := &Reader{fs: fs, path: path, r: r, blocks: blockCache, idxOff: idxOff, idxLen: idxLen}
	idxBuf := make([]byte, idxLen)
	if _, err := r.ReadAt(idxBuf, idxOff); err != nil && err != io.EOF {
		return nil, err
	}
	if len(idxBuf) < 4 {
		return nil, fmt.Errorf("%w: %s: index truncated", ErrBadTable, path)
	}
	n := binary.LittleEndian.Uint32(idxBuf)
	off := 4
	for i := uint32(0); i < n; i++ {
		if off+2 > len(idxBuf) {
			return nil, fmt.Errorf("%w: %s: index truncated", ErrBadTable, path)
		}
		kl := int(binary.LittleEndian.Uint16(idxBuf[off:]))
		off += 2
		if off+kl+24 > len(idxBuf) {
			return nil, fmt.Errorf("%w: %s: index truncated", ErrBadTable, path)
		}
		key := append([]byte(nil), idxBuf[off:off+kl]...)
		off += kl
		ts := int64(binary.LittleEndian.Uint64(idxBuf[off:]))
		boff := int64(binary.LittleEndian.Uint64(idxBuf[off+8:]))
		blen := int64(binary.LittleEndian.Uint64(idxBuf[off+16:]))
		off += 24
		t.index = append(t.index, indexEntry{key: key, ts: ts, off: boff, len: blen})
	}
	if bloomLen > 0 {
		bb := make([]byte, bloomLen)
		if _, err := r.ReadAt(bb, bloomOff); err != nil && err != io.EOF {
			return nil, err
		}
		b, err := unmarshalBloom(bb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		t.bloom = b
	}
	return t, nil
}

// Path returns the table's DFS path.
func (t *Reader) Path() string { return t.path }

// MayContain reports whether key can be present (bloom filter check);
// always true without a filter.
func (t *Reader) MayContain(key []byte) bool {
	if t.bloom == nil {
		return true
	}
	return t.bloom.mayContain(key)
}

// blockFor returns the decoded entries of block i, via the block cache
// when present.
func (t *Reader) blockFor(i int) ([]Entry, error) {
	ie := t.index[i]
	cacheKey := fmt.Sprintf("%s#%d", t.path, ie.off)
	var raw []byte
	if t.blocks != nil {
		if b, ok := t.blocks.Get(cacheKey); ok {
			raw = b
		}
	}
	if raw == nil {
		raw = make([]byte, ie.len)
		if _, err := t.r.ReadAt(raw, ie.off); err != nil && err != io.EOF {
			return nil, err
		}
		if t.blocks != nil {
			t.blocks.Put(cacheKey, raw)
		}
	}
	return decodeBlock(raw)
}

func decodeBlock(raw []byte) ([]Entry, error) {
	var out []Entry
	off := 0
	for off < len(raw) {
		if off+2 > len(raw) {
			return nil, fmt.Errorf("%w: block truncated", ErrBadTable)
		}
		kl := int(binary.LittleEndian.Uint16(raw[off:]))
		off += 2
		if off+kl+12 > len(raw) {
			return nil, fmt.Errorf("%w: block truncated", ErrBadTable)
		}
		key := append([]byte(nil), raw[off:off+kl]...)
		off += kl
		ts := int64(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
		vl := binary.LittleEndian.Uint32(raw[off:])
		off += 4
		e := Entry{Key: key, TS: ts}
		if vl == tombstoneMark {
			e.Tombstone = true
		} else {
			if off+int(vl) > len(raw) {
				return nil, fmt.Errorf("%w: block truncated", ErrBadTable)
			}
			e.Value = append([]byte(nil), raw[off:off+int(vl)]...)
			off += int(vl)
		}
		out = append(out, e)
	}
	return out, nil
}

// seekBlock returns the index of the block that may contain (key, ts).
func (t *Reader) seekBlock(key []byte, ts int64) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(t.index[mid].key, t.index[mid].ts, key, ts) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// chargeIndexRead models fetching the sparse-index blocks from disk
// when no cache keeps them resident.
func (t *Reader) chargeIndexRead() {
	if t.blocks != nil || t.idxLen == 0 {
		return
	}
	buf := make([]byte, t.idxLen)
	t.r.ReadAt(buf, t.idxOff) //nolint:errcheck // cost model only; content already parsed
}

// Get returns the newest version of key with TS <= ts. Found reports
// presence; a found tombstone is returned with Tombstone set.
func (t *Reader) Get(key []byte, ts int64) (Entry, bool, error) {
	if len(t.index) == 0 || !t.MayContain(key) {
		return Entry{}, false, nil
	}
	t.chargeIndexRead()
	// Entries are (key asc, ts desc): the newest version <= ts sorts at
	// or after (key, ts) position.
	bi := t.seekBlock(key, ts)
	for ; bi < len(t.index); bi++ {
		if bytes.Compare(t.index[bi].key, key) > 0 {
			break
		}
		entries, err := t.blockFor(bi)
		if err != nil {
			return Entry{}, false, err
		}
		for _, e := range entries {
			c := bytes.Compare(e.Key, key)
			if c > 0 {
				return Entry{}, false, nil
			}
			if c == 0 && e.TS <= ts {
				return e, true, nil
			}
		}
	}
	return Entry{}, false, nil
}

// Iterator walks a table in Compare order.
type Iterator struct {
	t       *Reader
	bi      int
	entries []Entry
	ei      int
	cur     Entry
	err     error
}

// NewIterator returns an iterator positioned at the first entry with
// key >= start (nil start = beginning).
func (t *Reader) NewIterator(start []byte) *Iterator {
	it := &Iterator{t: t}
	if len(t.index) == 0 {
		it.bi = 0
		return it
	}
	if start != nil {
		it.bi = t.seekBlock(start, math.MaxInt64)
		entries, err := t.blockFor(it.bi)
		if err != nil {
			it.err = err
			return it
		}
		it.entries = entries
		for it.ei < len(entries) && bytes.Compare(entries[it.ei].Key, start) < 0 {
			it.ei++
		}
		if it.ei == len(entries) {
			it.entries = nil
			it.ei = 0
			it.bi++
		}
		return it
	}
	return it
}

// Next advances and reports whether an entry is available.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	for it.entries == nil || it.ei >= len(it.entries) {
		if it.entries != nil {
			it.bi++
			it.ei = 0
			it.entries = nil
		}
		if it.bi >= len(it.t.index) {
			return false
		}
		entries, err := it.t.blockFor(it.bi)
		if err != nil {
			it.err = err
			return false
		}
		it.entries = entries
	}
	it.cur = it.entries[it.ei]
	it.ei++
	return true
}

// Entry returns the current entry.
func (it *Iterator) Entry() Entry { return it.cur }

// Err returns the first error.
func (it *Iterator) Err() error { return it.err }
