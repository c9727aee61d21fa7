package index

import (
	"bytes"
	"encoding/binary"
	"errors"

	"repro/internal/dfs"
	"repro/internal/wal"
)

// A tree's persisted form — the recovery baseline a checkpoint carries
// (paper §3.8) — is its entries in order, each
//
//	u16 keyLen | key | i64 ts | u32 seg | i64 off | u32 len | u64 lsn
//
// with no header or checksum of its own: the checkpoint frames it.
const entryFixed = 2 + 8 + 4 + 8 + 4 + 8

var errTruncated = errors.New("index: truncated entry")

// Encode appends a point-in-time snapshot of the tree's entries to buf
// and returns the extended buffer and the number of entries written.
func (t *Tree) Encode(buf []byte) ([]byte, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	size := len(buf)
	for n := t.first(); n != nil; n = n.right {
		for _, s := range n.slots {
			size += entryFixed + int(s.klen)
		}
	}
	if size > cap(buf) {
		buf = append(make([]byte, 0, size), buf...)
	}
	for n := t.first(); n != nil; n = n.right {
		for i, s := range n.slots {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(s.klen))
			buf = append(buf, n.key(i)...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ts))
			buf = binary.LittleEndian.AppendUint32(buf, s.seg)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.poff))
			buf = binary.LittleEndian.AppendUint32(buf, s.plen)
			buf = binary.LittleEndian.AppendUint64(buf, s.lsn)
		}
	}
	return buf, t.n
}

// Decode bulk-builds a tree from entries Encode wrote, copying each
// leaf's keys straight from b into the leaf's arena.
func Decode(b []byte) (*Tree, error) {
	count := 0
	for rest := b; len(rest) > 0; count++ {
		if len(rest) < 2 {
			return nil, errTruncated
		}
		kl := int(binary.LittleEndian.Uint16(rest))
		if len(rest) < entryFixed+kl {
			return nil, errTruncated
		}
		rest = rest[entryFixed+kl:]
	}
	return build(count, func() Entry {
		kl := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		e := Entry{
			Key: b[:kl:kl],
			TS:  int64(binary.LittleEndian.Uint64(b[kl:])),
			Ptr: wal.Ptr{
				Seg: binary.LittleEndian.Uint32(b[kl+8:]),
				Off: int64(binary.LittleEndian.Uint64(b[kl+12:])),
				Len: binary.LittleEndian.Uint32(b[kl+20:]),
			},
			LSN: binary.LittleEndian.Uint64(b[kl+24:]),
		}
		b = b[kl+entryFixed-2:]
		return e
	}), nil
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
	return build(len(entries), func() Entry {
		i++
		return entries[i-1]
	})
}

// build bulk-loads a tree from count entries in composite-key order,
// handed out one at a time by next: full leaves, each one slot slice and
// one arena (the leaf nodes themselves share one allocation), under full
// internal nodes.
func build(count int, next func() Entry) *Tree {
	if count == 0 {
		return New()
	}
	t := &Tree{}
	leaves := make([]node, (count+fanout-1)/fanout)
	level := make([]*node, len(leaves))
	highs := make([]Entry, len(leaves)) // each node's inclusive high key
	var chunk [fanout]Entry
	for l := range leaves {
		es := chunk[:min(fanout, count-l*fanout)]
		for j := range es {
			es[j] = next()
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
	return t
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
