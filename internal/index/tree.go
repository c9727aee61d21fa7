// Package index implements LogBase's in-memory multiversion index
// (paper §3.5): a B-tree keyed by the composite (primary key, timestamp)
// whose entries point at record locations in the log.
//
// Historical versions of a key are adjacent (ordered by ascending
// timestamp), so "current version" and "latest version at time t"
// lookups are a prefix descent plus a bounded walk, and the multiversion
// concurrency control layer can read record versions straight from the
// index during validation.
//
// # Layout
//
// Nodes follow the prefix B-tree layout (Bayer & Unterauer, TODS 1977)
// with the leaves chained rightward for range scans. Every node holds a
// slice of fixed-width, pointer-free slots and one key arena: a slot
// carries its key's offset and length in the arena, the timestamp and,
// in a leaf, the LSN and the packed log pointer. The garbage collector
// therefore never scans entries, and a key costs its bytes plus one
// 40-byte slot. In an internal node, slot i is the inclusive high key of
// children[i] (the last child has none), and a descent binary-searches
// the slots. Versions of one key in one leaf share their key bytes.
//
// Leaves split 50/50, except that an insert past the last entry of the
// rightmost leaf starts a new leaf and leaves the full one as it is, so
// append-order loads (every bulk load and every replay) fill leaves
// completely. Splits propagate up the descent path.
//
// # Entry.Key aliasing
//
// A returned Entry.Key is a capacity-capped view into a leaf arena, not
// a copy. Arena bytes are written once: later inserts append past every
// key already handed out, and a split or a garbage reclaim builds new
// arenas rather than rewriting the old one. The view therefore stays
// valid and unchanged for as long as the caller holds it, whatever the
// tree does meanwhile; callers must not write to it, and an append to it
// reallocates instead of touching its neighbour. Put copies the key it
// is given, so the caller may reuse its buffer.
//
// Latching is deliberately coarse — one RWMutex for the tree — which
// preserves the properties the paper exercises (ordered range search,
// concurrent readers, version adjacency) while keeping the structure easy
// to verify; writers are serialised upstream by the log append mutex in
// any case. Deletions are lazy (no rebalancing; a leaf keeps its
// capacity), as compaction rebuilds indexes wholesale.
package index

import (
	"bytes"
	"math"
	"sync"
	"unsafe"

	"repro/internal/wal"
)

// Entry is one index entry: composite key (Key, TS) mapping to the
// record's location and the LSN that produced it. The LSN drives the
// recovery redo rule (paper §3.8): an index entry is only overwritten by
// a log record with a greater LSN.
type Entry struct {
	Key []byte
	TS  int64
	Ptr wal.Ptr
	LSN uint64
}

// compare orders composite keys: primary key lexicographic, then
// timestamp ascending.
func compare(aKey []byte, aTS int64, bKey []byte, bTS int64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aTS < bTS:
		return -1
	case aTS > bTS:
		return 1
	default:
		return 0
	}
}

const (
	fanout = 64 // max entries per leaf / children per internal node
	// maxHeight bounds a descent path. Every node but the rightmost of
	// its level holds at least fanout/2 children, so 16 levels are far
	// beyond any tree that fits in memory.
	maxHeight = 16
)

// slot is one leaf entry or one internal separator, without a pointer:
// its key is arena[off:off+klen] of its node.
type slot struct {
	off, klen uint32
	ts        int64
	lsn       uint64
	seg, plen uint32
	poff      int64
}

type node struct {
	slots    []slot
	arena    []byte  // append-only; bytes below len are never rewritten
	children []*node // nil in a leaf
	right    *node   // next node of the same level: the leaf chain
}

const (
	slotBytes = int64(unsafe.Sizeof(slot{}))
	nodeBytes = int64(unsafe.Sizeof(node{}))
)

func (n *node) leaf() bool { return n.children == nil }

// bytes is the capacity n holds.
func (n *node) bytes() int64 {
	return nodeBytes + int64(cap(n.slots))*slotBytes + int64(cap(n.arena)) + int64(cap(n.children))*8
}

func (n *node) key(i int) []byte {
	s := &n.slots[i]
	return n.arena[s.off : s.off+s.klen : s.off+s.klen]
}

func (n *node) entry(i int) Entry {
	s := &n.slots[i]
	return Entry{Key: n.key(i), TS: s.ts, Ptr: wal.Ptr{Seg: s.seg, Off: s.poff, Len: s.plen}, LSN: s.lsn}
}

func (s *slot) set(p wal.Ptr, lsn uint64) { s.seg, s.poff, s.plen, s.lsn = p.Seg, p.Off, p.Len, lsn }

func (n *node) cmp(i int, key []byte, ts int64) int { return compare(n.key(i), n.slots[i].ts, key, ts) }

// search returns the index of the first slot >= (key, ts): in a leaf the
// entry's position, in an internal node the child to descend into.
func (n *node) search(key []byte, ts int64) int {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.cmp(mid, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// room is the slot capacity for k slots: three quarters again, up to a
// full node. A split half of 32 slots gets 56.
func room(k int) int { return min(fanout, max(4, k+3*k/4)) }

// insert opens slot i for (key, ts) and stores the key: shared with an
// equal neighbour, or appended to the arena, which is rebuilt when full.
func (n *node) insert(i int, key []byte, ts int64) *slot {
	if len(n.slots) == cap(n.slots) {
		n.slots = append(make([]slot, 0, room(len(n.slots))), n.slots...)
	}
	var off int
	switch {
	case i > 0 && bytes.Equal(n.key(i-1), key):
		off = int(n.slots[i-1].off)
	case i < len(n.slots) && bytes.Equal(n.key(i), key):
		off = int(n.slots[i].off)
	default:
		if len(n.arena)+len(key) > cap(n.arena) {
			n.rebuild(len(key))
		}
		off = len(n.arena)
		n.arena = append(n.arena, key...)
	}
	n.slots = n.slots[:len(n.slots)+1]
	copy(n.slots[i+1:], n.slots[i:])
	n.slots[i] = slot{off: uint32(off), klen: uint32(len(key)), ts: ts}
	return &n.slots[i]
}

// rebuild copies the live keys to a fresh arena with room for need more
// bytes and for the free slots at the keys' average length, but never
// more than twice the live bytes: one long key must not reserve a whole
// node's worth of its length. The old arena is left as it is: returned
// keys may alias it.
func (n *node) rebuild(need int) {
	live := need
	for i, s := range n.slots {
		if i == 0 || s.off != n.slots[i-1].off || s.klen != n.slots[i-1].klen {
			live += int(s.klen)
		}
	}
	arena := make([]byte, 0, max(live, min(2*live, live*cap(n.slots)/(len(n.slots)+1))))
	var prev slot
	for i := range n.slots {
		s := &n.slots[i]
		if i > 0 && s.off == prev.off && s.klen == prev.klen {
			s.off = n.slots[i-1].off
			continue
		}
		prev = *s
		s.off = uint32(len(arena))
		arena = append(arena, n.arena[prev.off:prev.off+prev.klen]...)
	}
	n.arena = arena
}

// cut splits n: slots [hi:] (children [hi:] in an internal node) move to
// a new right node and n keeps slots [:lo]; both get fresh arenas.
func (n *node) cut(lo, hi int) *node {
	r := &node{slots: append(make([]slot, 0, room(len(n.slots)-hi)), n.slots[hi:]...), arena: n.arena}
	n.slots = append(make([]slot, 0, room(lo)), n.slots[:lo]...)
	if !n.leaf() {
		r.children = append([]*node(nil), n.children[hi:]...)
		n.children = append([]*node(nil), n.children[:hi]...)
	}
	n.rebuild(0)
	r.rebuild(0)
	r.right, n.right = n.right, r
	return r
}

// Tree is a multiversion index for one column group of one tablet.
// Safe for concurrent use.
type Tree struct {
	mu   sync.RWMutex
	root *node
	n    int
	mem  int64
}

// New returns an empty index.
func New() *Tree {
	t := &Tree{root: &node{}}
	t.mem = t.root.bytes()
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// MemBytes returns the memory the index holds: every node with the full
// capacity of its slots, key arena and child list, so garbage that lazy
// deletion leaves behind counts until a split or a reclaim drops it.
func (t *Tree) MemBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem
}

// findLeaf descends to the leaf that should contain (key, ts).
func (t *Tree) findLeaf(key []byte, ts int64) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[n.search(key, ts)]
	}
	return n
}

// first returns the leftmost leaf.
func (t *Tree) first() *node {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n
}

// Put inserts or overwrites the entry for (e.Key, e.TS). An existing
// entry is only replaced when e.LSN is greater or equal (the redo rule).
// It reports whether the tree changed.
func (t *Tree) Put(e Entry) bool {
	changed, _ := t.PutNewest(e)
	return changed
}

// step is one level of a descent: the node and the child taken.
type step struct {
	n *node
	i int
}

// PutNewest is Put that also reports whether e is now the key's newest
// version — the record-apply path's read-buffer and secondary-index
// rule needs that, and versions of a key are adjacent, so the answer
// falls out of the insert position without a second descent.
func (t *Tree) PutNewest(e Entry) (changed, newest bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var path [maxHeight]step
	depth := 0
	n := t.root
	for !n.leaf() {
		i := n.search(e.Key, e.TS)
		path[depth] = step{n, i}
		depth++
		n = n.children[i]
	}
	i := n.search(e.Key, e.TS)
	if i < len(n.slots) && n.cmp(i, e.Key, e.TS) == 0 {
		s := &n.slots[i]
		if e.LSN < s.lsn {
			return false, false
		}
		s.set(e.Ptr, e.LSN)
		return true, !nextHasKey(n, i+1, e.Key)
	}
	if len(n.slots) == fanout {
		n, i = t.splitLeaf(path[:depth], n, i, e.Key)
	}
	before := n.bytes()
	n.insert(i, e.Key, e.TS).set(e.Ptr, e.LSN)
	t.mem += n.bytes() - before
	t.n++
	return true, !nextHasKey(n, i+1, e.Key)
}

// nextHasKey reports whether the entry at position i of the leaf chain
// starting at n (skipping leaves emptied by lazy deletion) carries key.
func nextHasKey(n *node, i int, key []byte) bool {
	for ; n != nil; n, i = n.right, 0 {
		if i < len(n.slots) {
			return bytes.Equal(n.key(i), key)
		}
	}
	return false
}

// splitLeaf makes room in the full leaf n for an insert at position i of
// key, and returns the leaf and position the insert goes to. Past the
// last entry of the rightmost leaf it starts a new leaf, its arena sized
// like n's; elsewhere it splits n 50/50.
func (t *Tree) splitLeaf(path []step, n *node, i int, key []byte) (*node, int) {
	before := n.bytes()
	var r *node
	if i == len(n.slots) && n.right == nil {
		r = &node{slots: make([]slot, 0, fanout), arena: make([]byte, 0, len(n.arena))}
		n.right = r
	} else {
		r = n.cut(fanout/2, fanout/2)
	}
	t.mem += n.bytes() - before + r.bytes()
	last := len(n.slots) - 1
	t.insertChild(path, n.key(last), n.slots[last].ts, r)
	if i >= len(n.slots) {
		return r, i - len(n.slots)
	}
	return n, i
}

// insertChild threads c into the tree right of path's last child, whose
// new inclusive high key is (key, ts), splitting full parents upward.
func (t *Tree) insertChild(path []step, key []byte, ts int64, c *node) {
	for d := len(path) - 1; d >= 0; d-- {
		p, i := path[d].n, path[d].i
		before := p.bytes()
		if len(p.children) < fanout {
			p.addChild(i, key, ts, c)
			t.mem += p.bytes() - before
			return
		}
		var q *node
		var upKey []byte
		var upTS int64
		if i == fanout-1 && p.right == nil {
			// Appending past the rightmost node: start a new one.
			q = &node{slots: make([]slot, 0, fanout-1), arena: make([]byte, 0, len(p.arena)), children: make([]*node, 1, fanout)}
			q.children[0] = c
			p.right = q
			upKey, upTS = key, ts
		} else {
			mid := fanout / 2
			upKey, upTS = p.key(mid-1), p.slots[mid-1].ts
			q = p.cut(mid-1, mid)
			if i >= mid {
				q.addChild(i-mid, key, ts, c)
			} else {
				p.addChild(i, key, ts, c)
			}
		}
		t.mem += p.bytes() - before + q.bytes()
		key, ts, c = upKey, upTS, q
	}
	root := &node{children: []*node{t.root, c}}
	root.insert(0, key, ts)
	t.root = root
	t.mem += root.bytes()
}

// addChild inserts c right of children[i], with (key, ts) as the new
// high key of children[i].
func (n *node) addChild(i int, key []byte, ts int64, c *node) {
	n.insert(i, key, ts)
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = c
}

// Get returns the entry with exactly (key, ts).
func (t *Tree) Get(key []byte, ts int64) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, ts)
	i := leaf.search(key, ts)
	if i < len(leaf.slots) && leaf.cmp(i, key, ts) == 0 {
		return leaf.entry(i), true
	}
	return Entry{}, false
}

// Latest returns the entry with the greatest timestamp for key.
func (t *Tree) Latest(key []byte) (Entry, bool) {
	return t.LatestAt(key, int64(^uint64(0)>>1))
}

// LatestAt returns the entry for key with the greatest timestamp <= ts
// — the read path for snapshot reads and historical queries (Get with
// an attached timestamp, paper §3.6.2).
func (t *Tree) LatestAt(key []byte, ts int64) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, ts)
	i := leaf.search(key, ts)
	// The candidate is the entry just before the first entry > (key,ts).
	if i < len(leaf.slots) && leaf.cmp(i, key, ts) == 0 {
		return leaf.entry(i), true
	}
	if i > 0 && bytes.Equal(leaf.key(i-1), key) {
		return leaf.entry(i - 1), true
	}
	// (key, ts) may sort to the start of a leaf whose left sibling holds
	// the versions; since leaves have no left links, re-descend with
	// ts = -inf and walk the chain.
	first := t.findLeaf(key, -1<<62)
	j := first.search(key, -1<<62)
	var best Entry
	found := false
	for n := first; n != nil; n = n.right {
		for ; j < len(n.slots); j++ {
			k := n.key(j)
			if !bytes.Equal(k, key) {
				if found {
					return best, true
				}
				if bytes.Compare(k, key) > 0 {
					return Entry{}, false
				}
				continue
			}
			if n.slots[j].ts > ts {
				if found {
					return best, true
				}
				return Entry{}, false
			}
			best, found = n.entry(j), true
		}
		j = 0
	}
	return best, found
}

// NthFromNewest returns the entry n positions below key's newest
// version (n=0 is the newest), walking the version chain with a small
// ring instead of materializing the whole history — the write path's
// retention-boundary probe.
func (t *Tree) NthFromNewest(key []byte, n int) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ring := make([]Entry, n+1)
	count := 0
	leaf := t.findLeaf(key, -1<<62)
	i := leaf.search(key, -1<<62)
	for nd := leaf; nd != nil; nd = nd.right {
		for ; i < len(nd.slots); i++ {
			c := bytes.Compare(nd.key(i), key)
			if c > 0 {
				nd = nil
				break
			}
			if c == 0 {
				ring[count%(n+1)] = nd.entry(i)
				count++
			}
		}
		if nd == nil {
			break
		}
		i = 0
	}
	if count <= n {
		return Entry{}, false
	}
	// Versions arrive ascending; the ring's oldest slot is the entry n
	// below the newest.
	return ring[count%(n+1)], true
}

// Versions appends all entries for key (ascending timestamp) to dst.
func (t *Tree) Versions(key []byte, dst []Entry) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, -1<<62)
	i := leaf.search(key, -1<<62)
	for n := leaf; n != nil; n = n.right {
		for ; i < len(n.slots); i++ {
			c := bytes.Compare(n.key(i), key)
			if c > 0 {
				return dst
			}
			if c == 0 {
				dst = append(dst, n.entry(i))
			}
		}
		i = 0
	}
	return dst
}

// DeleteKey removes every version of key, returning how many entries
// were removed (paper §3.6.3 step one of Delete).
func (t *Tree) DeleteKey(key []byte) int {
	return t.DeleteCovered(key, math.MaxInt64, math.MaxUint64, nil)
}

// Covers is the one rule for what a tombstone (dTS, dLSN) removes: the
// versions of its key that reached the same log before it (lower LSN)
// and do not carry a later timestamp. A version written after the
// tombstone stays whatever its timestamp, and so does one that orders
// after it; both hold whichever of the pair is applied first, so an old
// tombstone met late (relocated by compaction) cannot destroy newer
// data.
func Covers(dTS int64, dLSN uint64, vTS int64, vLSN uint64) bool {
	return vLSN < dLSN && vTS <= dTS
}

// DeleteCovered removes the versions of key that the tombstone (ts, lsn)
// Covers, hands each to removed (nil: nobody wants them) and returns
// how many went. removed runs under the tree latch and must not call
// back into the tree.
func (t *Tree) DeleteCovered(key []byte, ts int64, lsn uint64, removed func(Entry)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	count := 0
	n := t.findLeaf(key, -1<<62)
	i := n.search(key, -1<<62)
	for ; n != nil; n, i = n.right, 0 {
		for i < len(n.slots) {
			s := n.slots[i]
			// Versions are adjacent in ascending timestamp order.
			if !bytes.Equal(n.key(i), key) || s.ts > ts {
				return count
			}
			if s.lsn >= lsn {
				i++
				continue
			}
			e := n.entry(i)
			n.slots = append(n.slots[:i], n.slots[i+1:]...)
			t.n--
			count++
			if removed != nil {
				removed(e)
			}
		}
	}
	return count
}

// Repoint atomically redirects the entry for (key, ts) from old to new,
// provided the entry still exists with exactly that LSN and location.
// Incremental compaction uses it to install rewritten record locations:
// an entry deleted or superseded since the rewrite began simply fails
// the match and keeps the tree authoritative.
func (t *Tree) Repoint(key []byte, ts int64, lsn uint64, old, new wal.Ptr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key, ts)
	i := leaf.search(key, ts)
	if i < len(leaf.slots) && leaf.cmp(i, key, ts) == 0 {
		if e := leaf.entry(i); e.LSN == lsn && e.Ptr == old {
			leaf.slots[i].set(new, lsn)
			return true
		}
	}
	return false
}

// DeleteVersion removes the exact (key, ts) entry.
func (t *Tree) DeleteVersion(key []byte, ts int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key, ts)
	i := leaf.search(key, ts)
	if i < len(leaf.slots) && leaf.cmp(i, key, ts) == 0 {
		leaf.slots = append(leaf.slots[:i], leaf.slots[i+1:]...)
		t.n--
		return true
	}
	return false
}

// Ascend calls fn for every entry in composite-key order, stopping if fn
// returns false. It runs under the read latch: fn must not call back
// into the tree.
func (t *Tree) Ascend(fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := t.first(); n != nil; n = n.right {
		for i := range n.slots {
			if !fn(n.entry(i)) {
				return
			}
		}
	}
}

// ascendRange calls fn for entries with start <= Key < end (all
// versions), in order. A nil end means "to the end of the keyspace".
func (t *Tree) ascendRange(start, end []byte, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(start, -1<<62)
	i := leaf.search(start, -1<<62)
	for n := leaf; n != nil; n = n.right {
		for ; i < len(n.slots); i++ {
			if end != nil && bytes.Compare(n.key(i), end) >= 0 {
				return
			}
			if !fn(n.entry(i)) {
				return
			}
		}
		i = 0
	}
}

// descendRange calls fn for entries with start <= Key < end (all
// versions), in REVERSE composite-key order (descending key, and
// descending timestamp within a key). A nil end means "from the end of
// the keyspace"; empty start means "down to the first key". Because
// leaves only link rightward, the walk is a parent-guided descent:
// children are visited in reverse under the read latch, pruning
// subtrees wholly outside the range — the descending-traversal
// primitive behind reverse scans.
func (t *Tree) descendRange(start, end []byte, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	descendNode(t.root, start, end, fn)
}

// descendNode visits n's entries in reverse order, reporting whether
// the caller should keep descending (false = fn stopped the walk or the
// walk went below start).
func descendNode(n *node, start, end []byte, fn func(Entry) bool) bool {
	if n.leaf() {
		for i := len(n.slots) - 1; i >= 0; i-- {
			k := n.key(i)
			if end != nil && bytes.Compare(k, end) >= 0 {
				continue
			}
			if len(start) > 0 && bytes.Compare(k, start) < 0 {
				return false
			}
			if !fn(n.entry(i)) {
				return false
			}
		}
		return true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		// Slot i-1 is child i-1's inclusive high key, so child i holds
		// only keys greater than it: skip the child when that low bound
		// already reaches end, stop entirely once it falls below start
		// (children to the left are smaller still).
		if i > 0 && end != nil && bytes.Compare(n.key(i-1), end) >= 0 {
			continue
		}
		if !descendNode(n.children[i], start, end, fn) {
			return false
		}
		if i > 0 && len(start) > 0 && bytes.Compare(n.key(i-1), start) < 0 {
			return false
		}
	}
	return true
}

// RangeLatestRev iterates the range [start, end) in DESCENDING key
// order and reports, per key, the latest version visible at snapshot
// ts — the reverse-scan read path. Within one key, versions arrive in
// descending timestamp order, so the first version with TS <= ts is the
// visible one.
func (t *Tree) RangeLatestRev(start, end []byte, ts int64, fn func(Entry) bool) {
	var lastKey []byte
	haveKey, emitted := false, false
	t.descendRange(start, end, func(e Entry) bool {
		if !haveKey || !bytes.Equal(e.Key, lastKey) {
			lastKey, haveKey, emitted = e.Key, true, false
		}
		if emitted || e.TS > ts {
			return true
		}
		emitted = true
		return fn(e)
	})
}

// SplitKeys returns up to n-1 keys that partition [start, end) into
// roughly equal-population shards, by sampling the first key of each
// leaf intersecting the range (leaves hold bounded entry counts, so
// leaf boundaries are an even-population sample). The returned keys are
// strictly increasing and strictly inside (start, end); fewer than n-1
// keys (possibly none) come back when the range spans few leaves.
func (t *Tree) SplitKeys(start, end []byte, n int) [][]byte {
	if n <= 1 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var bounds [][]byte
	leaf := t.findLeaf(start, -1<<62)
	// Sample from the second intersecting leaf on: the first leaf's first
	// key may sit at (or before) start, which would make an empty shard.
	for nd := leaf.right; nd != nil; nd = nd.right {
		if len(nd.slots) == 0 {
			continue
		}
		first := nd.key(0)
		if end != nil && bytes.Compare(first, end) >= 0 {
			break
		}
		if bytes.Compare(first, start) <= 0 {
			continue
		}
		// Versions of one key can span a leaf boundary; skip duplicates so
		// every shard is non-empty.
		if len(bounds) > 0 && bytes.Equal(bounds[len(bounds)-1], first) {
			continue
		}
		bounds = append(bounds, append([]byte(nil), first...))
	}
	if len(bounds) <= n-1 {
		return bounds
	}
	out := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		k := bounds[i*len(bounds)/n]
		if len(out) > 0 && bytes.Equal(out[len(out)-1], k) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// RangeLatest iterates the range [start, end) and reports, per key, the
// latest version visible at snapshot ts. This is the range-scan read
// path (paper §3.6.4).
func (t *Tree) RangeLatest(start, end []byte, ts int64, fn func(Entry) bool) {
	var cur Entry
	have := false
	t.ascendRange(start, end, func(e Entry) bool {
		if have && !bytes.Equal(cur.Key, e.Key) {
			if !fn(cur) {
				have = false
				return false
			}
			have = false
		}
		if e.TS <= ts {
			cur = e
			have = true
		}
		return true
	})
	if have {
		fn(cur)
	}
}

// depth returns the tree height (for tests).
func (t *Tree) depth() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}
