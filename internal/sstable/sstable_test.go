package sstable

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/dfs"
)

func newFS(t *testing.T) *dfs.DFS {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	return fs
}

func buildTable(t *testing.T, fs *dfs.DFS, path string, opts WriterOptions, entries []Entry) {
	t.Helper()
	w, err := NewWriter(fs, path, opts)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		return Compare(entries[i].Key, entries[i].TS, entries[j].Key, entries[j].TS) < 0
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t)
	var entries []Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i)),
			TS:    10,
			Value: []byte(fmt.Sprintf("value-%d", i)),
		})
	}
	buildTable(t, fs, "sst/1", WriterOptions{BlockSize: 512}, entries)

	r, err := OpenReader(fs, "sst/1", nil)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	n := 0
	for it := r.NewIterator(nil); it.Next(); {
		n++
	}
	if n != 1000 {
		t.Errorf("table holds %d entries, want 1000", n)
	}
	for _, probe := range []int{0, 1, 499, 999} {
		e, ok, err := r.Get(entries[probe].Key, math.MaxInt64)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", entries[probe].Key, ok, err)
		}
		if !bytes.Equal(e.Value, entries[probe].Value) {
			t.Errorf("Get(%s) = %q", entries[probe].Key, e.Value)
		}
	}
	if _, ok, _ := r.Get([]byte("missing"), math.MaxInt64); ok {
		t.Error("Get of absent key succeeded")
	}
}

func TestVersionsNewestFirst(t *testing.T) {
	fs := newFS(t)
	entries := []Entry{
		{Key: []byte("k"), TS: 30, Value: []byte("v30")},
		{Key: []byte("k"), TS: 20, Value: []byte("v20")},
		{Key: []byte("k"), TS: 10, Value: []byte("v10")},
	}
	buildTable(t, fs, "sst/v", WriterOptions{}, entries)
	r, err := OpenReader(fs, "sst/v", nil)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	cases := []struct {
		at   int64
		want string
		ok   bool
	}{{5, "", false}, {10, "v10", true}, {25, "v20", true}, {100, "v30", true}}
	for _, c := range cases {
		e, ok, err := r.Get([]byte("k"), c.at)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if ok != c.ok || (ok && string(e.Value) != c.want) {
			t.Errorf("Get(k,%d) = %q,%v want %q,%v", c.at, e.Value, ok, c.want, c.ok)
		}
	}
}

func TestTombstone(t *testing.T) {
	fs := newFS(t)
	entries := []Entry{
		{Key: []byte("k"), TS: 20, Tombstone: true},
		{Key: []byte("k"), TS: 10, Value: []byte("old")},
	}
	buildTable(t, fs, "sst/t", WriterOptions{}, entries)
	r, _ := OpenReader(fs, "sst/t", nil)
	e, ok, err := r.Get([]byte("k"), math.MaxInt64)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !e.Tombstone {
		t.Error("newest version should be a tombstone")
	}
	if e.Value != nil {
		t.Errorf("tombstone carries value %q", e.Value)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := newFS(t)
	w, _ := NewWriter(fs, "sst/bad", WriterOptions{})
	if err := w.Add(Entry{Key: []byte("b"), TS: 1}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := w.Add(Entry{Key: []byte("a"), TS: 1}); err == nil {
		t.Error("out-of-order Add accepted")
	}
	// Same key older-ts is fine (ts descending), newer-ts is not.
	if err := w.Add(Entry{Key: []byte("b"), TS: 5}); err == nil {
		t.Error("ascending-ts Add accepted")
	}
}

func TestBloomFilterSkipsMisses(t *testing.T) {
	fs := newFS(t)
	var entries []Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("present-%04d", i)), TS: 1, Value: []byte("v")})
	}
	buildTable(t, fs, "sst/bloom", WriterOptions{BloomBitsPerKey: 10}, entries)
	r, err := OpenReader(fs, "sst/bloom", nil)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	for i := 0; i < 500; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("present-%04d", i))) {
			t.Fatalf("bloom false negative on present-%04d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if r.MayContain([]byte(fmt.Sprintf("absent-%04d", i))) {
			fp++
		}
	}
	if fp > 100 { // 10 bits/key ≈ <2% FP; allow generous slack
		t.Errorf("bloom false positive rate %d/1000 too high", fp)
	}
}

func TestIteratorFullAndSeek(t *testing.T) {
	fs := newFS(t)
	var entries []Entry
	for i := 0; i < 300; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("%04d", i)), TS: 2, Value: []byte("x")})
	}
	buildTable(t, fs, "sst/it", WriterOptions{BlockSize: 256}, entries)
	r, _ := OpenReader(fs, "sst/it", nil)

	it := r.NewIterator(nil)
	n := 0
	var prev Entry
	for it.Next() {
		e := it.Entry()
		if n > 0 && Compare(prev.Key, prev.TS, e.Key, e.TS) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = e
		n++
	}
	if it.Err() != nil {
		t.Fatalf("iterator error: %v", it.Err())
	}
	if n != 300 {
		t.Errorf("full scan saw %d, want 300", n)
	}

	it = r.NewIterator([]byte("0100"))
	n = 0
	for it.Next() {
		if n == 0 && string(it.Entry().Key) != "0100" {
			t.Errorf("seek landed on %s", it.Entry().Key)
		}
		n++
	}
	if n != 200 {
		t.Errorf("seek scan saw %d, want 200", n)
	}

	// Seek past the end.
	it = r.NewIterator([]byte("9999"))
	if it.Next() {
		t.Error("iterator past end returned entries")
	}
}

func TestBlockCacheHits(t *testing.T) {
	fs := newFS(t)
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("%04d", i)), TS: 1, Value: make([]byte, 50)})
	}
	buildTable(t, fs, "sst/c", WriterOptions{BlockSize: 512}, entries)
	bc := cache.New(1<<20, nil)
	r, _ := OpenReader(fs, "sst/c", bc)
	r.Get([]byte("0001"), math.MaxInt64)
	r.Get([]byte("0002"), math.MaxInt64) // same block → cache hit
	st := bc.Stats()
	if st.Hits == 0 {
		t.Errorf("no block cache hits: %+v", st)
	}
}

func TestQuickRandomTables(t *testing.T) {
	fs := newFS(t)
	seq := 0
	f := func(keys []uint16, probe uint16) bool {
		seq++
		seen := map[string]bool{}
		var entries []Entry
		for _, k := range keys {
			key := fmt.Sprintf("k%05d", k)
			if seen[key] {
				continue
			}
			seen[key] = true
			entries = append(entries, Entry{Key: []byte(key), TS: int64(k % 7), Value: []byte(key)})
		}
		sortEntries(entries)
		path := fmt.Sprintf("sst/q%d", seq)
		w, err := NewWriter(fs, path, WriterOptions{BlockSize: 128})
		if err != nil {
			return false
		}
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				return false
			}
		}
		if err := w.Finish(); err != nil {
			return false
		}
		r, err := OpenReader(fs, path, nil)
		if err != nil {
			return false
		}
		probeKey := fmt.Sprintf("k%05d", probe)
		e, ok, err := r.Get([]byte(probeKey), math.MaxInt64)
		if err != nil {
			return false
		}
		if seen[probeKey] != ok {
			return false
		}
		return !ok || string(e.Value) == probeKey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sliceSource adapts an in-memory sorted slice to a Source.
type sliceSource struct {
	entries []Entry
	i       int
}

// newsliceSource wraps entries (already in Compare order).
func newsliceSource(entries []Entry) *sliceSource { return &sliceSource{entries: entries} }

// Next advances the slice cursor.
func (s *sliceSource) Next() bool {
	if s.i >= len(s.entries) {
		return false
	}
	s.i++
	return true
}

// Entry returns the current entry.
func (s *sliceSource) Entry() Entry { return s.entries[s.i-1] }

func (s *sliceSource) Err() error { return nil }

func TestMergeIterator(t *testing.T) {
	a := []Entry{
		{Key: []byte("a"), TS: 2, Value: []byte("a2-new")},
		{Key: []byte("c"), TS: 1, Value: []byte("c1")},
	}
	b := []Entry{
		{Key: []byte("a"), TS: 2, Value: []byte("a2-old")}, // shadowed by a
		{Key: []byte("a"), TS: 1, Value: []byte("a1")},
		{Key: []byte("b"), TS: 1, Value: []byte("b1")},
	}
	m := NewMergeIterator(newsliceSource(a), newsliceSource(b))
	var got []string
	for m.Next() {
		e := m.Entry()
		got = append(got, fmt.Sprintf("%s@%d=%s", e.Key, e.TS, e.Value))
	}
	if m.Err() != nil {
		t.Fatalf("merge error: %v", m.Err())
	}
	want := []string{"a@2=a2-new", "a@1=a1", "b@1=b1", "c@1=c1"}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merge[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestMergeAcrossTables(t *testing.T) {
	fs := newFS(t)
	rng := rand.New(rand.NewSource(3))
	var t1, t2 []Entry
	for i := 0; i < 200; i++ {
		e := Entry{Key: []byte(fmt.Sprintf("%05d", rng.Intn(1000))), TS: int64(i), Value: []byte("v")}
		if i%2 == 0 {
			t1 = append(t1, e)
		} else {
			t2 = append(t2, e)
		}
	}
	sortEntries(t1)
	sortEntries(t2)
	// Dedup exact (key,ts) dupes within each slice.
	dedup := func(in []Entry) []Entry {
		var out []Entry
		for _, e := range in {
			if len(out) > 0 && Compare(out[len(out)-1].Key, out[len(out)-1].TS, e.Key, e.TS) == 0 {
				continue
			}
			out = append(out, e)
		}
		return out
	}
	t1, t2 = dedup(t1), dedup(t2)
	buildTable(t, fs, "sst/m1", WriterOptions{BlockSize: 256}, t1)
	buildTable(t, fs, "sst/m2", WriterOptions{BlockSize: 256}, t2)
	r1, _ := OpenReader(fs, "sst/m1", nil)
	r2, _ := OpenReader(fs, "sst/m2", nil)
	m := NewMergeIterator(r1.NewIterator(nil), r2.NewIterator(nil))
	n := 0
	var prev Entry
	for m.Next() {
		e := m.Entry()
		if n > 0 && Compare(prev.Key, prev.TS, e.Key, e.TS) >= 0 {
			t.Fatal("merged stream out of order")
		}
		prev = e
		n++
	}
	if n != len(t1)+len(t2) {
		t.Errorf("merged %d entries, want %d", n, len(t1)+len(t2))
	}
}

func TestEmptyTable(t *testing.T) {
	fs := newFS(t)
	buildTable(t, fs, "sst/empty", WriterOptions{}, nil)
	r, err := OpenReader(fs, "sst/empty", nil)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if _, ok, _ := r.Get([]byte("x"), math.MaxInt64); ok {
		t.Error("empty table returned an entry")
	}
	if r.NewIterator(nil).Next() {
		t.Error("empty table iterator returned entries")
	}
}

func TestCorruptFooter(t *testing.T) {
	fs := newFS(t)
	w, _ := fs.Create("sst/garbage")
	w.Write(bytes.Repeat([]byte{0xAB}, 200))
	if _, err := OpenReader(fs, "sst/garbage", nil); err == nil {
		t.Error("OpenReader accepted garbage")
	}
}
