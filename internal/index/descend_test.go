package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// buildTree inserts versions versions of n keys in shuffled order so
// the tree has real internal structure (n*versions >> fanout).
func buildTree(t *testing.T, n, versions int, seed int64) *Tree {
	t.Helper()
	tr := New()
	rng := rand.New(rand.NewSource(seed))
	type kv struct {
		key []byte
		ts  int64
	}
	var all []kv
	for i := 0; i < n; i++ {
		for v := 1; v <= versions; v++ {
			all = append(all, kv{key: []byte(fmt.Sprintf("key-%05d", i)), ts: int64(v * 10)})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for lsn, e := range all {
		tr.Put(Entry{Key: e.key, TS: e.ts, Ptr: wal.Ptr{Off: int64(lsn)}, LSN: uint64(lsn + 1)})
	}
	return tr
}

func TestDescendRangeIsReverseOfAscendRange(t *testing.T) {
	tr := buildTree(t, 300, 3, 1)
	bounds := [][2][]byte{
		{nil, nil},
		{[]byte("key-00050"), []byte("key-00100")},
		{[]byte("key-00000"), []byte("key-00001")},
		{[]byte("a"), []byte("z")},
		{[]byte("key-00299"), nil},
		{[]byte("zzz"), nil}, // empty range
	}
	for _, b := range bounds {
		var fwd, rev []Entry
		tr.ascendRange(b[0], b[1], func(e Entry) bool { fwd = append(fwd, e); return true })
		tr.descendRange(b[0], b[1], func(e Entry) bool { rev = append(rev, e); return true })
		if len(fwd) != len(rev) {
			t.Fatalf("range [%q,%q): ascend %d entries, descend %d", b[0], b[1], len(fwd), len(rev))
		}
		for i := range fwd {
			r := rev[len(rev)-1-i]
			if !bytes.Equal(fwd[i].Key, r.Key) || fwd[i].TS != r.TS {
				t.Fatalf("range [%q,%q): mismatch at %d: %q@%d vs %q@%d",
					b[0], b[1], i, fwd[i].Key, fwd[i].TS, r.Key, r.TS)
			}
		}
	}
}

func TestDescendRangeEarlyStop(t *testing.T) {
	tr := buildTree(t, 200, 2, 2)
	var got []Entry
	tr.descendRange(nil, nil, func(e Entry) bool {
		got = append(got, e)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("early stop delivered %d entries, want 5", len(got))
	}
	if want := []byte("key-00199"); !bytes.Equal(got[0].Key, want) {
		t.Fatalf("first reverse entry %q, want %q", got[0].Key, want)
	}
	if got[0].TS != 20 || got[1].TS != 10 {
		t.Fatalf("versions not descending: ts %d, %d", got[0].TS, got[1].TS)
	}
}

func TestRangeLatestRevMatchesRangeLatest(t *testing.T) {
	tr := buildTree(t, 250, 3, 3)
	for _, ts := range []int64{5, 10, 15, 25, 30, 1 << 60} {
		var fwd, rev []Entry
		tr.RangeLatest(nil, nil, ts, func(e Entry) bool { fwd = append(fwd, e); return true })
		tr.RangeLatestRev(nil, nil, ts, func(e Entry) bool { rev = append(rev, e); return true })
		if len(fwd) != len(rev) {
			t.Fatalf("ts %d: forward %d keys, reverse %d", ts, len(fwd), len(rev))
		}
		for i := range fwd {
			r := rev[len(rev)-1-i]
			if !bytes.Equal(fwd[i].Key, r.Key) || fwd[i].TS != r.TS {
				t.Fatalf("ts %d: mismatch at %d: %q@%d vs %q@%d", ts, i, fwd[i].Key, fwd[i].TS, r.Key, r.TS)
			}
		}
	}
}

func TestRangeLatestRevBounded(t *testing.T) {
	tr := buildTree(t, 100, 2, 4)
	var keys [][]byte
	tr.RangeLatestRev([]byte("key-00010"), []byte("key-00020"), 1<<60, func(e Entry) bool {
		keys = append(keys, e.Key)
		if e.TS != 20 {
			t.Fatalf("key %q: visible ts %d, want 20", e.Key, e.TS)
		}
		return true
	})
	if len(keys) != 10 {
		t.Fatalf("bounded reverse scan saw %d keys, want 10", len(keys))
	}
	if !bytes.Equal(keys[0], []byte("key-00019")) || !bytes.Equal(keys[9], []byte("key-00010")) {
		t.Fatalf("bounded reverse scan order wrong: first %q last %q", keys[0], keys[9])
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i], keys[i-1]) >= 0 {
			t.Fatalf("keys not strictly descending at %d: %q then %q", i, keys[i-1], keys[i])
		}
	}
}
