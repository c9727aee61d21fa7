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
// The node layout follows the B-link tree the paper cites (right-sibling
// links and high keys on every node, enabling range scans that walk the
// leaf chain). Latching is deliberately coarse — one RWMutex for the
// tree — which preserves the properties the paper exercises (ordered
// range search, concurrent readers, version adjacency) while keeping
// the structure easy to verify; writers are serialised upstream by the
// log append mutex in any case. Deletions are lazy (no rebalancing), as
// compaction rebuilds indexes wholesale.
package index

import (
	"bytes"
	"math"
	"sync"

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

const fanout = 64 // max entries per leaf / children per internal node

type node struct {
	leaf bool

	// Leaf: entries, sorted by composite key.
	entries []Entry

	// Internal: keys[i] is the high key of children[i]; len(children) ==
	// len(keys). A descent picks the first child whose key bounds the
	// target.
	keys     []Entry // only Key+TS used
	children []*node

	// right links nodes at the same level (B-link layout); the leaf
	// chain drives range scans.
	right *node
	// high is the node's high key (inclusive upper bound). Nil for the
	// rightmost node of a level.
	high *Entry
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
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// MemBytes estimates resident memory: the paper budgets ~24 bytes per
// entry (8B key + 8B ts + 8B ptr) plus key material.
func (t *Tree) MemBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem
}

func entryMem(e Entry) int64 { return int64(len(e.Key)) + 8 + 16 + 8 }

// findLeaf descends to the leaf that should contain (key, ts),
// following right links where the high key is exceeded.
func (t *Tree) findLeaf(key []byte, ts int64) *node {
	n := t.root
	for !n.leaf {
		i := 0
		for i < len(n.keys)-1 && compare(key, ts, n.keys[i].Key, n.keys[i].TS) > 0 {
			i++
		}
		n = n.children[i]
		for n.high != nil && compare(key, ts, n.high.Key, n.high.TS) > 0 && n.right != nil {
			n = n.right
		}
	}
	return n
}

// search returns the index of the first entry >= (key, ts) in the leaf.
func searchLeaf(n *node, key []byte, ts int64) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compare(n.entries[mid].Key, n.entries[mid].TS, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Put inserts or overwrites the entry for (e.Key, e.TS). An existing
// entry is only replaced when e.LSN is greater or equal (the redo rule).
// It reports whether the tree changed.
func (t *Tree) Put(e Entry) bool {
	changed, _ := t.PutNewest(e)
	return changed
}

// PutNewest is Put that also reports whether e is now the key's newest
// version — the record-apply path's read-buffer and secondary-index
// rule needs that, and versions of a key are adjacent, so the answer
// falls out of the insert position without a second descent.
func (t *Tree) PutNewest(e Entry) (changed, newest bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(e.Key, e.TS)
	i := searchLeaf(leaf, e.Key, e.TS)
	if i < len(leaf.entries) && compare(leaf.entries[i].Key, leaf.entries[i].TS, e.Key, e.TS) == 0 {
		if e.LSN < leaf.entries[i].LSN {
			return false, false
		}
		t.mem += entryMem(e) - entryMem(leaf.entries[i])
		leaf.entries[i] = e
		return true, !nextHasKey(leaf, i+1, e.Key)
	}
	leaf.entries = append(leaf.entries, Entry{})
	copy(leaf.entries[i+1:], leaf.entries[i:])
	leaf.entries[i] = e
	t.n++
	t.mem += entryMem(e)
	newest = !nextHasKey(leaf, i+1, e.Key)
	if len(leaf.entries) > fanout {
		t.splitLeaf(leaf)
	}
	return true, newest
}

// nextHasKey reports whether the entry at position i of the leaf chain
// starting at n (skipping leaves emptied by lazy deletion) carries key.
func nextHasKey(n *node, i int, key []byte) bool {
	for ; n != nil; n, i = n.right, 0 {
		if i < len(n.entries) {
			return bytes.Equal(n.entries[i].Key, key)
		}
	}
	return false
}

// splitLeaf splits an overfull leaf and propagates upward.
func (t *Tree) splitLeaf(leaf *node) {
	mid := len(leaf.entries) / 2
	rightEntries := make([]Entry, len(leaf.entries)-mid)
	copy(rightEntries, leaf.entries[mid:])
	r := &node{leaf: true, entries: rightEntries, right: leaf.right, high: leaf.high}
	leaf.entries = leaf.entries[:mid]
	hk := leaf.entries[mid-1]
	leaf.high = &Entry{Key: hk.Key, TS: hk.TS}
	leaf.right = r
	t.insertParent(leaf, r)
}

// insertParent threads a freshly split (left,right) pair into the
// parent, splitting internal nodes as needed. With the coarse latch we
// can simply re-descend from the root to find each parent.
func (t *Tree) insertParent(left, right *node) {
	if t.root == left {
		t.root = &node{
			keys:     []Entry{*left.high, {}},
			children: []*node{left, right},
		}
		// The rightmost child is unbounded; keys[last] is a sentinel
		// never compared (descend stops at len(keys)-1).
		return
	}
	parent := t.findParent(t.root, left)
	// Replace left's slot high key and splice right in after it.
	for i, c := range parent.children {
		if c == left {
			parent.keys = append(parent.keys, Entry{})
			parent.children = append(parent.children, nil)
			copy(parent.keys[i+1:], parent.keys[i:])
			copy(parent.children[i+1:], parent.children[i:])
			parent.keys[i] = *left.high
			parent.children[i+1] = right
			// right inherits left's previous upper bound slot (already
			// shifted into position i+1).
			break
		}
	}
	if len(parent.children) > fanout {
		t.splitInternal(parent)
	}
}

func (t *Tree) splitInternal(n *node) {
	mid := len(n.children) / 2
	rKeys := make([]Entry, len(n.keys)-mid)
	copy(rKeys, n.keys[mid:])
	rChildren := make([]*node, len(n.children)-mid)
	copy(rChildren, n.children[mid:])
	r := &node{keys: rKeys, children: rChildren, right: n.right, high: n.high}
	sep := n.keys[mid-1]
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	n.high = &Entry{Key: sep.Key, TS: sep.TS}
	n.right = r
	t.insertParent(n, r)
}

// findParent locates the parent of target by structural descent.
func (t *Tree) findParent(from, target *node) *node {
	if from.leaf {
		return nil
	}
	for _, c := range from.children {
		if c == target {
			return from
		}
	}
	// Descend toward target's high key (or +inf for rightmost chains).
	var n *node
	if target.high != nil {
		i := 0
		for i < len(from.keys)-1 && compare(target.high.Key, target.high.TS, from.keys[i].Key, from.keys[i].TS) > 0 {
			i++
		}
		n = from.children[i]
	} else {
		n = from.children[len(from.children)-1]
	}
	for n != nil {
		if p := t.findParent(n, target); p != nil {
			return p
		}
		n = n.right
	}
	return nil
}

// Get returns the entry with exactly (key, ts).
func (t *Tree) Get(key []byte, ts int64) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, ts)
	i := searchLeaf(leaf, key, ts)
	if i < len(leaf.entries) && compare(leaf.entries[i].Key, leaf.entries[i].TS, key, ts) == 0 {
		return leaf.entries[i], true
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
	i := searchLeaf(leaf, key, ts)
	// The candidate is the entry just before the first entry > (key,ts).
	if i < len(leaf.entries) && compare(leaf.entries[i].Key, leaf.entries[i].TS, key, ts) == 0 {
		return leaf.entries[i], true
	}
	prev := func(n *node, i int) (Entry, bool) {
		if i > 0 {
			e := n.entries[i-1]
			if bytes.Equal(e.Key, key) {
				return e, true
			}
		}
		return Entry{}, false
	}
	if e, ok := prev(leaf, i); ok {
		return e, ok
	}
	// (key, ts) may sort to the start of a leaf whose left sibling holds
	// the versions; since leaves have no left links, re-descend with
	// ts = -inf and walk the chain.
	first := t.findLeaf(key, -1<<62)
	j := searchLeaf(first, key, -1<<62)
	var best Entry
	found := false
	for n := first; n != nil; n = n.right {
		for ; j < len(n.entries); j++ {
			e := n.entries[j]
			if !bytes.Equal(e.Key, key) {
				if found {
					return best, true
				}
				if bytes.Compare(e.Key, key) > 0 {
					return Entry{}, false
				}
				continue
			}
			if e.TS > ts {
				if found {
					return best, true
				}
				return Entry{}, false
			}
			best, found = e, true
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
	i := searchLeaf(leaf, key, -1<<62)
	for nd := leaf; nd != nil; nd = nd.right {
		for ; i < len(nd.entries); i++ {
			e := nd.entries[i]
			c := bytes.Compare(e.Key, key)
			if c > 0 {
				nd = nil
				break
			}
			if c == 0 {
				ring[count%(n+1)] = e
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
	i := searchLeaf(leaf, key, -1<<62)
	for n := leaf; n != nil; n = n.right {
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			c := bytes.Compare(e.Key, key)
			if c > 0 {
				return dst
			}
			if c == 0 {
				dst = append(dst, e)
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
	i := searchLeaf(n, key, -1<<62)
	for ; n != nil; n, i = n.right, 0 {
		for i < len(n.entries) {
			e := n.entries[i]
			// Versions are adjacent in ascending timestamp order.
			if !bytes.Equal(e.Key, key) || e.TS > ts {
				return count
			}
			if e.LSN >= lsn {
				i++
				continue
			}
			t.mem -= entryMem(e)
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
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
	i := searchLeaf(leaf, key, ts)
	if i < len(leaf.entries) && compare(leaf.entries[i].Key, leaf.entries[i].TS, key, ts) == 0 {
		e := &leaf.entries[i]
		if e.LSN == lsn && e.Ptr == old {
			e.Ptr = new
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
	i := searchLeaf(leaf, key, ts)
	if i < len(leaf.entries) && compare(leaf.entries[i].Key, leaf.entries[i].TS, key, ts) == 0 {
		t.mem -= entryMem(leaf.entries[i])
		leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
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
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.right {
		for _, e := range n.entries {
			if !fn(e) {
				return
			}
		}
	}
}

// AscendRange calls fn for entries with start <= Key < end (all
// versions), in order. A nil end means "to the end of the keyspace".
func (t *Tree) AscendRange(start, end []byte, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(start, -1<<62)
	i := searchLeaf(leaf, start, -1<<62)
	for n := leaf; n != nil; n = n.right {
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if end != nil && bytes.Compare(e.Key, end) >= 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		i = 0
	}
}

// DescendRange calls fn for entries with start <= Key < end (all
// versions), in REVERSE composite-key order (descending key, and
// descending timestamp within a key). A nil end means "from the end of
// the keyspace"; empty start means "down to the first key". Because
// leaves only link rightward, the walk is a parent-guided descent:
// children are visited in reverse under the read latch, pruning
// subtrees wholly outside the range — the descending-traversal
// primitive behind reverse scans.
func (t *Tree) DescendRange(start, end []byte, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.descendNode(t.root, start, end, fn)
}

// descendNode visits n's entries in reverse order, reporting whether
// the caller should keep descending (false = fn stopped the walk or the
// walk went below start).
func (t *Tree) descendNode(n *node, start, end []byte, fn func(Entry) bool) bool {
	if n.leaf {
		for i := len(n.entries) - 1; i >= 0; i-- {
			e := n.entries[i]
			if end != nil && bytes.Compare(e.Key, end) >= 0 {
				continue
			}
			if len(start) > 0 && bytes.Compare(e.Key, start) < 0 {
				return false
			}
			if !fn(e) {
				return false
			}
		}
		return true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		// keys[i-1] is child i-1's inclusive high key, so child i holds
		// only keys greater than it: skip the child when that low bound
		// already reaches end, stop entirely once it falls below start
		// (children to the left are smaller still).
		if i > 0 && end != nil && bytes.Compare(n.keys[i-1].Key, end) >= 0 {
			continue
		}
		if !t.descendNode(n.children[i], start, end, fn) {
			return false
		}
		if i > 0 && len(start) > 0 && bytes.Compare(n.keys[i-1].Key, start) < 0 {
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
	t.DescendRange(start, end, func(e Entry) bool {
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
		if len(nd.entries) == 0 {
			continue
		}
		first := nd.entries[0].Key
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
	t.AscendRange(start, end, func(e Entry) bool {
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
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
