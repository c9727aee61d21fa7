package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/wal"
)

// oracle is the model the tree is checked against: every entry, sorted
// by composite key.
type oracle []Entry

// find returns the position of the first entry >= (key, ts) and whether
// it is exactly (key, ts).
func (o oracle) find(key []byte, ts int64) (int, bool) {
	i := sort.Search(len(o), func(i int) bool { return compare(o[i].Key, o[i].TS, key, ts) >= 0 })
	return i, i < len(o) && compare(o[i].Key, o[i].TS, key, ts) == 0
}

func (o oracle) versions(key []byte) []Entry {
	i, _ := o.find(key, math.MinInt64)
	j := i
	for j < len(o) && bytes.Equal(o[j].Key, key) {
		j++
	}
	return o[i:j]
}

func (o oracle) latestAt(key []byte, ts int64) (Entry, bool) {
	vs := o.versions(key)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].TS <= ts {
			return vs[i], true
		}
	}
	return Entry{}, false
}

// rangeLatest is RangeLatest over the model, ascending.
func (o oracle) rangeLatest(start, end []byte, ts int64) []Entry {
	var out []Entry
	i, _ := o.find(start, math.MinInt64)
	for ; i < len(o) && (end == nil || bytes.Compare(o[i].Key, end) < 0); i++ {
		if o[i].TS > ts {
			continue
		}
		if n := len(out); n > 0 && bytes.Equal(out[n-1].Key, o[i].Key) {
			out[n-1] = o[i]
		} else {
			out = append(out, o[i])
		}
	}
	return out
}

func sameEntry(a, b Entry) bool {
	return bytes.Equal(a.Key, b.Key) && a.TS == b.TS && a.Ptr == b.Ptr && a.LSN == b.LSN
}

func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, sameEntry)
}

// recount walks every node and adds up the capacity each holds.
func recount(t *Tree) int64 {
	var mem int64
	for level := []*node{t.root}; len(level) > 0; {
		var next []*node
		for _, n := range level {
			mem += n.bytes()
			next = append(next, n.children...)
		}
		level = next
	}
	return mem
}

// checkShape verifies what the tree's layout promises: every separator
// bounds its children, every level's right links chain its nodes in
// order, leaves hold at most fanout entries, and MemBytes is the
// recount. It returns the number of empty leaves.
func checkShape(t *testing.T, tr *Tree) (emptyLeaves int) {
	t.Helper()
	var walk func(n *node, lo, hi *Entry)
	walk = func(n *node, lo, hi *Entry) {
		if n.leaf() {
			if len(n.slots) > fanout {
				t.Fatalf("leaf holds %d entries", len(n.slots))
			}
			if len(n.slots) == 0 {
				emptyLeaves++
			}
			for i := range n.slots {
				e := n.entry(i)
				if lo != nil && compare(e.Key, e.TS, lo.Key, lo.TS) <= 0 || hi != nil && compare(e.Key, e.TS, hi.Key, hi.TS) > 0 {
					t.Fatalf("entry %q@%d outside its parent's bounds", e.Key, e.TS)
				}
			}
			return
		}
		if len(n.slots) != len(n.children)-1 || len(n.children) > fanout {
			t.Fatalf("internal node: %d separators, %d children", len(n.slots), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				e := n.entry(i - 1)
				clo = &e
			}
			if i < len(n.slots) {
				e := n.entry(i)
				chi = &e
			}
			if i+1 < len(n.children) && c.right != n.children[i+1] {
				t.Fatalf("child %d's right link skips its sibling", i)
			}
			walk(c, clo, chi)
		}
	}
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	walk(tr.root, nil, nil)
	if got := recount(tr); got != tr.mem {
		t.Fatalf("MemBytes %d, recount %d", tr.mem, got)
	}
	return emptyLeaves
}

func modelSeeds(t *testing.T) []int64 {
	if env := os.Getenv("LOGBASE_INDEX_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("LOGBASE_INDEX_SEED=%q: %v", env, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3}
}

// TestQuickTreeMatchesSortedMap runs seeded operation sequences against
// the tree and a sorted-slice oracle: an append-order load, then random
// puts under the redo rule, tombstones, exact deletes, repoints and
// whole-range deletes that empty leaves, with every read checked against
// the oracle as it goes. A failure names its seed; replay it with
// LOGBASE_INDEX_SEED=<seed> go test -run TestQuickTreeMatchesSortedMap.
func TestQuickTreeMatchesSortedMap(t *testing.T) {
	for _, seed := range modelSeeds(t) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ok := false
			defer func() {
				if !ok {
					t.Logf("seed %d (replay: LOGBASE_INDEX_SEED=%d go test -run TestQuickTreeMatchesSortedMap ./internal/index/)", seed, seed)
				}
			}()
			runTreeModel(t, seed)
			ok = true
		})
	}
}

func runTreeModel(t *testing.T, seed int64) {
	const keys, steps = 2000, 30000
	rng := rand.New(rand.NewSource(seed))
	tr := New()
	var o oracle
	lsn := uint64(0)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	randKey := func() []byte { return key(rng.Intn(keys + keys/10)) } // some never written
	ptr := func() wal.Ptr {
		return wal.Ptr{Seg: uint32(rng.Intn(4)), Off: rng.Int63n(1 << 40), Len: uint32(rng.Intn(1 << 20))}
	}
	put := func(e Entry) {
		i, exists := o.find(e.Key, e.TS)
		wantChanged := !exists || e.LSN >= o[i].LSN
		switch {
		case !wantChanged:
		case exists:
			o[i] = e
		default:
			o = slices.Insert(o, i, e)
		}
		vs := o.versions(e.Key)
		wantNewest := wantChanged && vs[len(vs)-1].TS == e.TS
		changed, newest := tr.PutNewest(e)
		if changed != wantChanged || newest != wantNewest {
			t.Fatalf("PutNewest(%q@%d lsn %d) = (%v, %v), want (%v, %v)", e.Key, e.TS, e.LSN, changed, newest, wantChanged, wantNewest)
		}
	}
	// The load: every key at ts 1, in append order.
	for i := 0; i < keys; i++ {
		lsn++
		put(Entry{Key: key(i), TS: 1, Ptr: ptr(), LSN: lsn})
	}
	if d := tr.depth(); d < 2 {
		t.Fatalf("depth %d after the load", d)
	}
	maxDepth, maxEmpty := 0, 0
	for step := 0; step < steps; step++ {
		k := randKey()
		ts := int64(rng.Intn(8))
		switch r := rng.Intn(100); {
		case r < 55:
			lsn++
			l := lsn
			switch i, exists := o.find(k, ts); {
			case rng.Intn(10) == 0:
				l = uint64(rng.Int63n(int64(lsn))) // a replayed record met late
			case exists && rng.Intn(10) == 0:
				l = o[i].LSN // the same record applied again
			}
			put(Entry{Key: k, TS: ts, Ptr: ptr(), LSN: l})
		case r < 62:
			lsn++
			dl := lsn
			if rng.Intn(4) == 0 {
				dl = uint64(rng.Int63n(int64(lsn)))
			}
			var want, got []Entry
			at, _ := o.find(k, math.MinInt64)
			vs := o.versions(k)
			kept := slices.DeleteFunc(slices.Clone(vs), func(e Entry) bool {
				if Covers(ts, dl, e.TS, e.LSN) {
					want = append(want, e)
					return true
				}
				return false
			})
			o = slices.Replace(o, at, at+len(vs), kept...)
			n := tr.DeleteCovered(k, ts, dl, func(e Entry) { got = append(got, e) })
			if n != len(want) || !sameEntries(got, want) {
				t.Fatalf("DeleteCovered(%q, %d, %d) removed %d %v, want %v", k, ts, dl, n, got, want)
			}
		case r < 67:
			i, exists := o.find(k, ts)
			if exists {
				o = slices.Delete(o, i, i+1)
			}
			if got := tr.DeleteVersion(k, ts); got != exists {
				t.Fatalf("DeleteVersion(%q, %d) = %v, want %v", k, ts, got, exists)
			}
		case r < 72:
			i, exists := o.find(k, ts)
			old, l, nu := ptr(), uint64(rng.Int63n(int64(lsn)+1)), ptr()
			if exists && rng.Intn(3) > 0 {
				old, l = o[i].Ptr, o[i].LSN
			}
			want := exists && o[i].Ptr == old && o[i].LSN == l
			if want {
				o[i].Ptr = nu
			}
			if got := tr.Repoint(k, ts, l, old, nu); got != want {
				t.Fatalf("Repoint(%q, %d) = %v, want %v", k, ts, got, want)
			}
		case r < 73:
			// Empty a run of keys, leaves and all.
			from := rng.Intn(keys)
			for i := from; i < from+150; i++ {
				k := key(i)
				at, _ := o.find(k, math.MinInt64)
				vs := len(o.versions(k))
				o = slices.Delete(o, at, at+vs)
				if got := tr.DeleteKey(k); got != vs {
					t.Fatalf("DeleteKey(%q) = %d, want %d", k, got, vs)
				}
			}
		case r < 82:
			at := int64(rng.Intn(9))
			if rng.Intn(4) == 0 {
				at = math.MaxInt64
			}
			want, wok := o.latestAt(k, at)
			got, gok := tr.LatestAt(k, at)
			if gok != wok || wok && !sameEntry(got, want) {
				t.Fatalf("LatestAt(%q, %d) = %v %v, want %v %v", k, at, got, gok, want, wok)
			}
			wantG, wokG := o.find(k, ts)
			gotG, gokG := tr.Get(k, ts)
			if gokG != wokG || wokG && !sameEntry(gotG, o[wantG]) {
				t.Fatalf("Get(%q, %d) = %v %v", k, ts, gotG, gokG)
			}
		case r < 88:
			vs := o.versions(k)
			if got := tr.Versions(k, nil); !sameEntries(got, vs) {
				t.Fatalf("Versions(%q) = %v, want %v", k, got, vs)
			}
			nth := rng.Intn(4)
			got, ok := tr.NthFromNewest(k, nth)
			if ok != (len(vs) > nth) || ok && !sameEntry(got, vs[len(vs)-1-nth]) {
				t.Fatalf("NthFromNewest(%q, %d) = %v %v, versions %v", k, nth, got, ok, vs)
			}
		case r < 96:
			start, end := randKey(), randKey()
			if bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			if rng.Intn(5) == 0 {
				end = nil
			}
			at := int64(rng.Intn(9))
			want := o.rangeLatest(start, end, at)
			var fwd, rev []Entry
			tr.RangeLatest(start, end, at, func(e Entry) bool { fwd = append(fwd, e); return true })
			tr.RangeLatestRev(start, end, at, func(e Entry) bool { rev = append(rev, e); return true })
			slices.Reverse(rev)
			if !sameEntries(fwd, want) || !sameEntries(rev, want) {
				t.Fatalf("RangeLatest[%q, %q)@%d: forward %d, reverse %d, want %d entries", start, end, at, len(fwd), len(rev), len(want))
			}
		default:
			start, end := randKey(), randKey()
			if bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			n := 2 + rng.Intn(7)
			splits := tr.SplitKeys(start, end, n)
			if len(splits) > n-1 {
				t.Fatalf("SplitKeys(%d) returned %d keys", n, len(splits))
			}
			for i, s := range splits {
				if bytes.Compare(s, start) <= 0 || bytes.Compare(s, end) >= 0 || i > 0 && bytes.Compare(splits[i-1], s) >= 0 {
					t.Fatalf("SplitKeys(%q, %q, %d) = %q: not strictly increasing inside the range", start, end, n, splits)
				}
				if len(o.versions(s)) == 0 {
					t.Fatalf("SplitKeys returned %q, which the tree does not hold", s)
				}
			}
		}
		if step%1000 == 999 {
			if tr.Len() != len(o) {
				t.Fatalf("step %d: Len %d, oracle %d", step, tr.Len(), len(o))
			}
			var all []Entry
			tr.Ascend(func(e Entry) bool { all = append(all, e); return true })
			if !sameEntries(all, o) {
				t.Fatalf("step %d: Ascend disagrees with the oracle", step)
			}
			maxEmpty = max(maxEmpty, checkShape(t, tr))
			maxDepth = max(maxDepth, tr.depth())
		}
	}
	if maxDepth < 3 || maxEmpty == 0 {
		t.Fatalf("the run reached depth %d and at most %d empty leaves; want >= 3 levels and an empty leaf", maxDepth, maxEmpty)
	}
	// The checkpoint round trip keeps every entry.
	enc, n := tr.Encode(nil)
	back, err := Decode(enc)
	if err != nil || n != len(o) {
		t.Fatalf("Decode: %v (%d entries encoded, oracle %d)", err, n, len(o))
	}
	var all []Entry
	back.Ascend(func(e Entry) bool { all = append(all, e); return true })
	if !sameEntries(all, o) {
		t.Fatal("decoded tree disagrees with the oracle")
	}
	checkShape(t, back)
}
