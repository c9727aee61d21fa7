package index

import (
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
	count := 0
	t.Ascend(func(e Entry) bool {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
		buf = binary.LittleEndian.AppendUint32(buf, e.Ptr.Seg)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Ptr.Off))
		buf = binary.LittleEndian.AppendUint32(buf, e.Ptr.Len)
		buf = binary.LittleEndian.AppendUint64(buf, e.LSN)
		count++
		return true
	})
	return buf, count
}

// Decode bulk-builds a tree from entries Encode wrote.
func Decode(b []byte) (*Tree, error) {
	entries := make([]Entry, 0, len(b)/entryFixed)
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errTruncated
		}
		kl := int(binary.LittleEndian.Uint16(b))
		if len(b) < entryFixed+kl {
			return nil, errTruncated
		}
		key := make([]byte, kl)
		copy(key, b[2:])
		b = b[2+kl:]
		entries = append(entries, Entry{
			Key: key,
			TS:  int64(binary.LittleEndian.Uint64(b)),
			Ptr: wal.Ptr{
				Seg: binary.LittleEndian.Uint32(b[8:]),
				Off: int64(binary.LittleEndian.Uint64(b[12:])),
				Len: binary.LittleEndian.Uint32(b[20:]),
			},
			LSN: binary.LittleEndian.Uint64(b[24:]),
		})
		b = b[entryFixed-2:]
	}
	return Bulk(entries), nil
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

// Bulk builds a tree from entries already sorted by composite key
// (Encode writes them in order, so Decode can rebuild bottom-up).
func Bulk(entries []Entry) *Tree {
	t := New()
	if len(entries) == 0 {
		return t
	}
	// Build leaves at ~2/3 fill.
	per := fanout * 2 / 3
	var leaves []*node
	var mem int64
	for i := 0; i < len(entries); i += per {
		j := i + per
		if j > len(entries) {
			j = len(entries)
		}
		chunk := make([]Entry, j-i)
		copy(chunk, entries[i:j])
		leaves = append(leaves, &node{leaf: true, entries: chunk})
		for _, e := range chunk {
			mem += entryMem(e)
		}
	}
	level := linkLevel(leaves)
	for len(level) > 1 {
		var parents []*node
		for i := 0; i < len(level); i += per {
			j := i + per
			if j > len(level) {
				j = len(level)
			}
			p := &node{}
			for _, c := range level[i:j] {
				var hk Entry
				if c.high != nil {
					hk = *c.high
				}
				p.keys = append(p.keys, hk)
				p.children = append(p.children, c)
			}
			parents = append(parents, p)
		}
		level = linkLevel(parents)
	}
	t.root = level[0]
	t.n = len(entries)
	t.mem = mem
	return t
}

// linkLevel sets right links and high keys across one level.
func linkLevel(nodes []*node) []*node {
	for i, n := range nodes {
		if i+1 < len(nodes) {
			n.right = nodes[i+1]
			var hk Entry
			if n.leaf {
				last := n.entries[len(n.entries)-1]
				hk = Entry{Key: last.Key, TS: last.TS}
			} else {
				hk = n.keys[len(n.keys)-1]
			}
			n.high = &hk
		}
	}
	return nodes
}
