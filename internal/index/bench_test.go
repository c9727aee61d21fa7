package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/wal"
)

const benchN = 100_000 // nine-byte keys per tree

// benchKey writes the i-th nine-byte key into buf.
func benchKey(buf []byte, i int) []byte { return fmt.Appendf(buf[:0], "k%08d", i) }

func benchEntry(key []byte, ts int64, lsn uint64) Entry {
	return Entry{Key: key, TS: ts, Ptr: wal.Ptr{Seg: 1, Off: int64(lsn) * 300, Len: 300}, LSN: lsn}
}

// BenchmarkTreeInstall is the cost of one index install into a tree of
// up to benchN keys: keys in append order, keys in random order, and a
// new version of an existing key in a tree bulk-loaded with every key.
func BenchmarkTreeInstall(b *testing.B) {
	keys := make([][]byte, benchN)
	for i := range keys {
		keys[i] = benchKey(nil, i)
	}
	perm := rand.New(rand.NewSource(1)).Perm(benchN)
	loaded := make([]Entry, benchN)
	for i, k := range keys {
		loaded[i] = benchEntry(k, 1, uint64(i+1))
	}
	cases := []struct {
		name  string
		fresh func() *Tree
		key   func(i int) []byte
	}{
		{"append", New, func(i int) []byte { return keys[i] }},
		{"random", New, func(i int) []byte { return keys[perm[i]] }},
		{"version", func() *Tree { return Bulk(loaded) }, func(i int) []byte { return keys[perm[i]] }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var tr *Tree
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % benchN
				if j == 0 {
					b.StopTimer()
					tr = c.fresh()
					b.StartTimer()
				}
				tr.Put(benchEntry(c.key(j), 2, uint64(benchN+i+1)))
			}
		})
	}
}

// BenchmarkTreeDecode rebuilds a benchN-entry tree from its checkpoint
// bytes.
func BenchmarkTreeDecode(b *testing.B) {
	tr := New()
	for i := 0; i < benchN; i++ {
		tr.Put(benchEntry(benchKey(nil, i), 1, uint64(i+1)))
	}
	enc, _ := tr.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// heapOf returns the live heap that build leaves behind after a GC.
func heapOf(build func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestMemBytesMatchesHeap checks MemBytes against the live heap a tree
// of benchN nine-byte keys holds, loaded in append order and in random
// order, and the heap per entry against the index's budget. The keys
// are written into one reused buffer: the tree copies them.
func TestMemBytesMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	perm := rand.New(rand.NewSource(1)).Perm(benchN)
	for _, c := range []struct {
		name   string
		key    func(i int) int
		budget int64
	}{
		{"append", func(i int) int { return i }, 64},
		{"random", func(i int) int { return perm[i] }, 80},
	} {
		var tr *Tree
		heap := heapOf(func() {
			tr = New()
			buf := make([]byte, 0, 16)
			for i := 0; i < benchN; i++ {
				tr.Put(benchEntry(benchKey(buf, c.key(i)), 1, uint64(i+1)))
			}
		})
		mem := tr.MemBytes()
		t.Logf("%s: heap %d B (%.1f B/entry), MemBytes %d B (%.1f B/entry), depth %d",
			c.name, heap, float64(heap)/benchN, mem, float64(mem)/benchN, tr.depth())
		if d := float64(mem-heap) / float64(heap); d < -0.1 || d > 0.1 {
			t.Errorf("%s: MemBytes %d is %+.1f%% off the heap %d", c.name, mem, d*100, heap)
		}
		if per := heap / benchN; per > c.budget {
			t.Errorf("%s: %d B of heap per entry, budget %d", c.name, per, c.budget)
		}
		runtime.KeepAlive(tr)
	}
}

// TestDecodeAllocatesPerLeaf checks that Decode allocates per leaf, not
// per key: the leaves share one allocation, and each has its slots and
// its arena.
func TestDecodeAllocatesPerLeaf(t *testing.T) {
	tr := New()
	for i := 0; i < benchN; i++ {
		tr.Put(benchEntry(benchKey(nil, i), int64(i%3), uint64(i+1)))
	}
	enc, n := tr.Encode(nil)
	leaves := (n + fanout - 1) / fanout
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(leaves); per > 3 {
		t.Errorf("Decode: %.0f allocations for %d leaves (%.2f per leaf), want <= 3", allocs, leaves, per)
	}
}
