package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dfs"
	"repro/internal/wal"
)

func mkEntry(key string, ts int64, lsn uint64) Entry {
	return Entry{Key: []byte(key), TS: ts, Ptr: wal.Ptr{Seg: 1, Off: int64(lsn), Len: 10}, LSN: lsn}
}

func TestPutGet(t *testing.T) {
	tr := New()
	if !tr.Put(mkEntry("a", 1, 1)) {
		t.Fatal("Put returned false")
	}
	e, ok := tr.Get([]byte("a"), 1)
	if !ok || e.LSN != 1 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := tr.Get([]byte("a"), 2); ok {
		t.Error("Get of absent version succeeded")
	}
	if _, ok := tr.Get([]byte("b"), 1); ok {
		t.Error("Get of absent key succeeded")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPutRedoRule(t *testing.T) {
	tr := New()
	tr.Put(mkEntry("k", 5, 10))
	// Lower LSN must not overwrite (recovery redo rule).
	if tr.Put(mkEntry("k", 5, 3)) {
		t.Error("lower-LSN Put overwrote entry")
	}
	e, _ := tr.Get([]byte("k"), 5)
	if e.LSN != 10 {
		t.Errorf("entry LSN = %d, want 10", e.LSN)
	}
	// Higher LSN replaces.
	if !tr.Put(mkEntry("k", 5, 20)) {
		t.Error("higher-LSN Put rejected")
	}
	e, _ = tr.Get([]byte("k"), 5)
	if e.LSN != 20 {
		t.Errorf("entry LSN = %d, want 20", e.LSN)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after in-place update", tr.Len())
	}
}

func TestLatestAndLatestAt(t *testing.T) {
	tr := New()
	for _, ts := range []int64{2, 8, 18} {
		tr.Put(mkEntry("a", ts, uint64(ts)))
	}
	tr.Put(mkEntry("b", 5, 100))

	e, ok := tr.Latest([]byte("a"))
	if !ok || e.TS != 18 {
		t.Errorf("Latest(a) = %+v, %v", e, ok)
	}
	cases := []struct {
		at   int64
		want int64
		ok   bool
	}{
		{1, 0, false}, {2, 2, true}, {3, 2, true}, {8, 8, true},
		{17, 8, true}, {18, 18, true}, {1000, 18, true},
	}
	for _, c := range cases {
		e, ok := tr.LatestAt([]byte("a"), c.at)
		if ok != c.ok || (ok && e.TS != c.want) {
			t.Errorf("LatestAt(a,%d) = (%d,%v), want (%d,%v)", c.at, e.TS, ok, c.want, c.ok)
		}
	}
	if _, ok := tr.LatestAt([]byte("zz"), 100); ok {
		t.Error("LatestAt of absent key succeeded")
	}
}

func TestVersionsClustered(t *testing.T) {
	tr := New()
	// Interleave many keys so versions span leaves.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%03d", i%20)
		tr.Put(mkEntry(key, int64(i), uint64(i+1)))
	}
	got := tr.Versions([]byte("k007"), nil)
	if len(got) != 25 {
		t.Fatalf("Versions(k007) returned %d entries, want 25", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS <= got[i-1].TS {
			t.Errorf("versions out of order: %d after %d", got[i].TS, got[i-1].TS)
		}
	}
}

func TestDeleteKey(t *testing.T) {
	tr := New()
	for ts := int64(1); ts <= 30; ts++ {
		tr.Put(mkEntry("dead", ts, uint64(ts)))
		tr.Put(mkEntry("live", ts, uint64(ts+100)))
	}
	if n := tr.DeleteKey([]byte("dead")); n != 30 {
		t.Errorf("DeleteKey removed %d, want 30", n)
	}
	if _, ok := tr.Latest([]byte("dead")); ok {
		t.Error("deleted key still visible")
	}
	if e, ok := tr.Latest([]byte("live")); !ok || e.TS != 30 {
		t.Errorf("unrelated key damaged: %+v %v", e, ok)
	}
	if tr.Len() != 30 {
		t.Errorf("Len = %d, want 30", tr.Len())
	}
	if n := tr.DeleteKey([]byte("dead")); n != 0 {
		t.Errorf("second DeleteKey removed %d", n)
	}
}

func TestDeleteVersion(t *testing.T) {
	tr := New()
	tr.Put(mkEntry("k", 1, 1))
	tr.Put(mkEntry("k", 2, 2))
	if !tr.DeleteVersion([]byte("k"), 1) {
		t.Fatal("DeleteVersion failed")
	}
	if tr.DeleteVersion([]byte("k"), 1) {
		t.Error("double delete succeeded")
	}
	if e, ok := tr.Latest([]byte("k")); !ok || e.TS != 2 {
		t.Errorf("Latest after delete = %+v %v", e, ok)
	}
}

func TestAscendOrdered(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	n := 2000
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Put(mkEntry(fmt.Sprintf("key-%05d", i/4), int64(i%4), uint64(i+1)))
	}
	var prev Entry
	first := true
	count := 0
	tr.Ascend(func(e Entry) bool {
		if !first && compare(prev.Key, prev.TS, e.Key, e.TS) >= 0 {
			t.Errorf("out of order: (%s,%d) then (%s,%d)", prev.Key, prev.TS, e.Key, e.TS)
		}
		prev, first = e, false
		count++
		return true
	})
	if count != n {
		t.Errorf("Ascend visited %d, want %d", count, n)
	}
	if d := tr.depth(); d < 2 {
		t.Errorf("tree depth %d; splits never happened?", d)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(mkEntry(fmt.Sprintf("%03d", i), 1, uint64(i+1)))
	}
	var keys []string
	tr.ascendRange([]byte("020"), []byte("030"), func(e Entry) bool {
		keys = append(keys, string(e.Key))
		return true
	})
	if len(keys) != 10 || keys[0] != "020" || keys[9] != "029" {
		t.Errorf("range [020,030) = %v", keys)
	}
	// Open-ended range.
	count := 0
	tr.ascendRange([]byte("095"), nil, func(e Entry) bool { count++; return true })
	if count != 5 {
		t.Errorf("open range returned %d", count)
	}
	// Early stop.
	count = 0
	tr.ascendRange(nil, nil, func(e Entry) bool { count++; return count < 7 })
	if count != 7 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestRangeLatest(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		for ts := int64(1); ts <= 5; ts++ {
			tr.Put(mkEntry(key, ts*10, uint64(i*10)+uint64(ts)))
		}
	}
	// Snapshot at ts=35 sees version 30 of each key.
	var got []Entry
	tr.RangeLatest([]byte("k2"), []byte("k5"), 35, func(e Entry) bool {
		got = append(got, e)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("RangeLatest returned %d keys, want 3", len(got))
	}
	for _, e := range got {
		if e.TS != 30 {
			t.Errorf("key %s snapshot version = %d, want 30", e.Key, e.TS)
		}
	}
	// Snapshot before any version: no results.
	n := 0
	tr.RangeLatest(nil, nil, 5, func(Entry) bool { n++; return true })
	if n != 0 {
		t.Errorf("pre-history snapshot returned %d keys", n)
	}
}

func TestQuickLatestAt(t *testing.T) {
	f := func(tss []uint8, q uint8) bool {
		tr := New()
		seen := map[int64]bool{}
		for i, u := range tss {
			ts := int64(u % 64)
			seen[ts] = true
			tr.Put(mkEntry("k", ts, uint64(i+1)))
		}
		want := int64(-1)
		for ts := range seen {
			if ts <= int64(q%64) && ts > want {
				want = ts
			}
		}
		e, ok := tr.LatestAt([]byte("k"), int64(q%64))
		if want < 0 {
			return !ok
		}
		return ok && e.TS == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Put(mkEntry(fmt.Sprintf("k%04d", i), 1, uint64(i+1)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("k%04d", rng.Intn(1000)))
				if _, ok := tr.Latest(key); !ok {
					t.Errorf("key %s vanished", key)
					return
				}
			}
		}(r)
	}
	for i := 1000; i < 3000; i++ {
		tr.Put(mkEntry(fmt.Sprintf("k%04d", i), 1, uint64(i+1)))
	}
	close(stop)
	wg.Wait()
	if tr.Len() != 3000 {
		t.Errorf("Len = %d, want 3000", tr.Len())
	}
}

// TestMemBytes checks that MemBytes reports the capacity the tree holds:
// an empty tree is one empty leaf, a put adds at least its slot and its
// key, lazy deletion keeps the capacity, and the running count always
// equals a walk over every node.
func TestMemBytes(t *testing.T) {
	tr := New()
	if got := tr.MemBytes(); got != nodeBytes {
		t.Errorf("empty tree mem = %d, want one empty leaf (%d)", got, nodeBytes)
	}
	tr.Put(mkEntry("12345678", 1, 1))
	one := tr.MemBytes()
	if one < nodeBytes+slotBytes+8 {
		t.Errorf("MemBytes = %d after one put, want >= %d (node, slot and key)", one, nodeBytes+slotBytes+8)
	}
	tr.DeleteKey([]byte("12345678"))
	if got := tr.MemBytes(); got != one {
		t.Errorf("mem after delete = %d, want the %d still held", got, one)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tr.Put(mkEntry(fmt.Sprintf("key-%05d", rng.Intn(3000)), int64(i%4), uint64(i+2)))
		if i%7 == 0 {
			tr.DeleteKey([]byte(fmt.Sprintf("key-%05d", rng.Intn(3000))))
		}
	}
	if got, want := tr.MemBytes(), recount(tr); got != want {
		t.Errorf("MemBytes = %d, recount %d", got, want)
	}
	enc, _ := tr.Encode(nil)
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.MemBytes(), recount(back); got != want {
		t.Errorf("decoded MemBytes = %d, recount %d", got, want)
	}
}

// TestLongKeyReservesLittle checks that a long key costs about its own
// length however it arrives: past the end of a full rightmost leaf
// (which starts a new leaf) or into the middle of one (a split).
func TestLongKeyReservesLittle(t *testing.T) {
	long := strings.Repeat("z", 64<<10)
	for _, at := range []string{long, "key-00031" + long} {
		tr := New()
		for i := 0; i < fanout; i++ {
			tr.Put(mkEntry(fmt.Sprintf("key-%05d", i), 1, uint64(i+1)))
		}
		before := tr.MemBytes()
		tr.Put(mkEntry(at, 1, 1000))
		if grew := tr.MemBytes() - before; grew > 3*int64(len(at)) {
			t.Errorf("a %d-byte key at %.9q grew MemBytes by %d, want <= %d", len(at), at, grew, 3*len(at))
		}
		if got, want := tr.MemBytes(), recount(tr); got != want {
			t.Errorf("MemBytes = %d, recount %d", got, want)
		}
	}
}

func TestFlushLoadRoundTrip(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	tr := New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		tr.Put(mkEntry(fmt.Sprintf("key-%05d", rng.Intn(800)), int64(i), uint64(i+1)))
	}
	n, err := tr.Flush(fs, "idx/cg0")
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n != tr.Len() {
		t.Errorf("Flush wrote %d, tree has %d", n, tr.Len())
	}

	got, err := Load(fs, "idx/cg0")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("loaded %d entries, want %d", got.Len(), tr.Len())
	}
	var want, have []Entry
	tr.Ascend(func(e Entry) bool { want = append(want, e); return true })
	got.Ascend(func(e Entry) bool { have = append(have, e); return true })
	for i := range want {
		if !bytes.Equal(want[i].Key, have[i].Key) || want[i].TS != have[i].TS ||
			want[i].Ptr != have[i].Ptr || want[i].LSN != have[i].LSN {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, want[i], have[i])
		}
	}
	// The loaded tree must be fully functional.
	e, ok := got.Latest(want[0].Key)
	if !ok {
		t.Error("Latest on loaded tree failed")
	}
	_ = e
	got.Put(mkEntry("zzz-new", 1, 99999))
	if got.Len() != tr.Len()+1 {
		t.Error("Put on loaded tree failed")
	}
}

func TestFlushOverwrites(t *testing.T) {
	fs, _ := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	tr := New()
	tr.Put(mkEntry("a", 1, 1))
	if _, err := tr.Flush(fs, "idx/f"); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr.Put(mkEntry("b", 2, 2))
	if _, err := tr.Flush(fs, "idx/f"); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	got, err := Load(fs, "idx/f")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != 2 {
		t.Errorf("loaded %d entries, want 2", got.Len())
	}
}

func TestLoadCorrupt(t *testing.T) {
	fs, _ := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	w, _ := fs.Create("idx/bad")
	w.Write([]byte("this is not an index file at all"))
	if _, err := Load(fs, "idx/bad"); err == nil {
		t.Error("Load of garbage succeeded")
	}
}

func TestBulkEmpty(t *testing.T) {
	tr := Bulk(nil)
	if tr.Len() != 0 {
		t.Errorf("Bulk(nil) Len = %d", tr.Len())
	}
	if _, ok := tr.Latest([]byte("x")); ok {
		t.Error("empty tree found a key")
	}
	tr.Put(mkEntry("x", 1, 1))
	if tr.Len() != 1 {
		t.Error("Put on empty bulk tree failed")
	}
}

func TestBulkLarge(t *testing.T) {
	var entries []Entry
	for i := 0; i < 10000; i++ {
		entries = append(entries, mkEntry(fmt.Sprintf("k%06d", i/3), int64(i%3), uint64(i+1)))
	}
	tr := Bulk(entries)
	if tr.Len() != 10000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, probe := range []int{0, 1, 4999, 9999} {
		e := entries[probe]
		got, ok := tr.Get(e.Key, e.TS)
		if !ok || got.LSN != e.LSN {
			t.Errorf("probe %d: Get(%s,%d) = %+v %v", probe, e.Key, e.TS, got, ok)
		}
	}
	// Range over loaded tree crosses many leaves.
	count := 0
	tr.ascendRange([]byte("k000100"), []byte("k000200"), func(Entry) bool { count++; return true })
	if count != 300 {
		t.Errorf("range count = %d, want 300", count)
	}
}
