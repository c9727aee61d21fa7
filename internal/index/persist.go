package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/dfs"
)

// A tree's persisted form — the recovery baseline a checkpoint carries
// (paper §3.8) — is
//
//	format u8 | uvarint count | count entries, each
//	uvarint shared | uvarint suffixLen | suffix | varint ts (zigzag) |
//	uvarint seg | uvarint off | uvarint len | uvarint lsn
//
// in composite-key order, where an entry's key is the first shared
// bytes of the key before it followed by suffix. It has no checksum of
// its own (the checkpoint frames it), and it is canonical: Decode
// refuses a non-minimal varint, a shared prefix shorter than the keys
// have in common, and entries out of order, so Encode gives back the
// bytes Decode accepted.
const encodeFormat = 2

// minEntryBytes is the least an encoded entry takes: one byte a field.
const minEntryBytes = 7

var errCorrupt = errors.New("index: corrupt checkpoint entries")

// Encode appends a point-in-time snapshot of the tree's entries to buf
// and returns the extended buffer and the number of entries written.
func (t *Tree) Encode(buf []byte) ([]byte, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf = append(buf, encodeFormat)
	buf = binary.AppendUvarint(buf, uint64(t.n))
	var prev []byte
	for n := t.first(); n != nil; n = n.right {
		for i, s := range n.slots {
			k := n.key(i)
			shared := commonPrefix(k, prev)
			buf = binary.AppendUvarint(buf, uint64(shared))
			buf = binary.AppendUvarint(buf, uint64(len(k)-shared))
			buf = append(buf, k[shared:]...)
			buf = binary.AppendVarint(buf, s.ts)
			buf = binary.AppendUvarint(buf, uint64(s.seg))
			buf = binary.AppendUvarint(buf, uint64(s.poff))
			buf = binary.AppendUvarint(buf, uint64(s.plen))
			buf = binary.AppendUvarint(buf, s.lsn)
			prev = k
		}
	}
	return buf, t.n
}

// commonPrefix is the length of the longest common prefix of a and b,
// compared a word at a time.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for i+8 <= n && binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]) {
		i += 8
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// entryReader walks encoded entries; the first defect sticks in err.
type entryReader struct {
	b   []byte
	err error
}

// uvarint reads a minimally encoded uvarint of at most limit: one that
// is truncated, runs past 64 bits, ends in a zero byte (a longer
// encoding than its value needs) or exceeds limit is corrupt.
func (r *entryReader) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) || v > limit {
		r.err = errCorrupt
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Decode bulk-builds a tree from entries Encode wrote. Each key is
// rebuilt from its prefix and suffix in a scratch buffer that build
// copies into the leaf's arena, so the tree shares nothing with b.
func Decode(b []byte) (*Tree, error) {
	if len(b) == 0 || b[0] != encodeFormat {
		return nil, fmt.Errorf("%w: not format %d", errCorrupt, encodeFormat)
	}
	r := entryReader{b: b[1:]}
	count := int(r.uvarint(uint64(len(b) / minEntryBytes)))
	if r.err != nil {
		return nil, r.err
	}
	var prev Entry
	var keys []byte // the current leaf's keys: build copies them before the next leaf
	i := 0
	t, err := build(count, func() (Entry, error) {
		if i%fanout == 0 {
			keys = keys[:0] // prev.Key may sit here: append copies with overlap
		}
		i++
		shared := int(r.uvarint(uint64(len(prev.Key))))
		suffix := int(r.uvarint(math.MaxInt))
		if r.err == nil && suffix > len(r.b) {
			r.err = errCorrupt
		}
		if r.err != nil {
			return Entry{}, r.err
		}
		// The key is above prev's where they first differ (so shared is
		// their whole common prefix), or it extends prev's, or it is the
		// same key: then the timestamp must rise.
		grows := suffix > 0 && (shared == len(prev.Key) || r.b[0] > prev.Key[shared])
		same := suffix == 0 && shared == len(prev.Key)
		start := len(keys)
		keys = append(append(keys, prev.Key[:shared]...), r.b[:suffix]...)
		e := Entry{Key: keys[start:len(keys):len(keys)]}
		r.b = r.b[suffix:]
		zz := r.uvarint(math.MaxUint64)
		e.TS = int64(zz>>1) ^ -int64(zz&1)
		e.Ptr.Seg = uint32(r.uvarint(math.MaxUint32))
		e.Ptr.Off = int64(r.uvarint(math.MaxUint64))
		e.Ptr.Len = uint32(r.uvarint(math.MaxUint32))
		e.LSN = r.uvarint(math.MaxUint64)
		if r.err == nil && i > 1 && !grows && !(same && e.TS > prev.TS) {
			r.err = fmt.Errorf("%w: entry %d out of order", errCorrupt, i-1)
		}
		prev = e
		return e, r.err
	})
	if err == nil && len(r.b) > 0 {
		err = fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(r.b))
	}
	return t, err
}

// Flush writes a snapshot of the tree to its own DFS file (replacing
// any existing one) and returns the number of entries written.
func (t *Tree) Flush(fs *dfs.DFS, path string) (int, error) {
	buf, n := t.Encode(nil)
	return n, fs.WriteFile(path, buf)
}

// Load reads a file Flush wrote and bulk-builds a tree from it.
func Load(fs *dfs.DFS, path string) (*Tree, error) {
	b, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Bulk builds a tree from entries already sorted by composite key.
func Bulk(entries []Entry) *Tree {
	i := 0
	t, _ := build(len(entries), func() (Entry, error) {
		i++
		return entries[i-1], nil
	})
	return t
}

// build bulk-loads a tree from count entries in composite-key order,
// handed out one at a time by next, a leaf's worth before each fill:
// full leaves, each one slot slice and one arena (the leaf nodes
// themselves share one allocation), under full internal nodes. The
// first error next returns is build's.
func build(count int, next func() (Entry, error)) (*Tree, error) {
	if count == 0 {
		return New(), nil
	}
	t := &Tree{}
	leaves := make([]node, (count+fanout-1)/fanout)
	level := make([]*node, len(leaves))
	highs := make([]Entry, len(leaves)) // each node's inclusive high key
	var chunk [fanout]Entry
	for l := range leaves {
		es := chunk[:min(fanout, count-l*fanout)]
		for j := range es {
			var err error
			if es[j], err = next(); err != nil {
				return nil, err
			}
		}
		n := &leaves[l]
		n.fill(es)
		if l > 0 {
			leaves[l-1].right = n
		}
		level[l], highs[l] = n, n.entry(len(es)-1)
		t.mem += n.bytes()
	}
	for len(level) > 1 {
		var up []*node
		var upHighs []Entry
		for i := 0; i < len(level); i += fanout {
			j := min(i+fanout, len(level))
			p := &node{children: append([]*node(nil), level[i:j]...)}
			p.fill(highs[i : j-1])
			if len(up) > 0 {
				up[len(up)-1].right = p
			}
			up, upHighs = append(up, p), append(upHighs, highs[j-1])
			t.mem += p.bytes()
		}
		level, highs = up, upHighs
	}
	t.root, t.n = level[0], count
	return t, nil
}

// fill sets n's slots to es, with an arena of exactly their keys (equal
// neighbours sharing theirs).
func (n *node) fill(es []Entry) {
	size := 0
	for j, e := range es {
		if j == 0 || !bytes.Equal(e.Key, es[j-1].Key) {
			size += len(e.Key)
		}
	}
	n.slots, n.arena = make([]slot, len(es)), make([]byte, 0, size)
	for j, e := range es {
		off := len(n.arena)
		if j > 0 && bytes.Equal(e.Key, es[j-1].Key) {
			off = int(n.slots[j-1].off)
		} else {
			n.arena = append(n.arena, e.Key...)
		}
		n.slots[j] = slot{off: uint32(off), klen: uint32(len(e.Key)), ts: e.TS}
		n.slots[j].set(e.Ptr, e.LSN)
	}
}
