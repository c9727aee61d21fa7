package index

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dfs"
)

func TestFlushLoadEmpty(t *testing.T) {
	fs, _ := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	tr := New()
	n, err := tr.Flush(fs, "idx/empty")
	if err != nil || n != 0 {
		t.Fatalf("Flush empty: n=%d err=%v", n, err)
	}
	got, err := Load(fs, "idx/empty")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("loaded %d entries from empty flush", got.Len())
	}
	got.Put(mkEntry("x", 1, 1))
	if got.Len() != 1 {
		t.Error("loaded-empty tree not writable")
	}
}

func TestDeleteKeySpanningLeaves(t *testing.T) {
	tr := New()
	// One hot key with enough versions to span several leaves, plus
	// neighbours on both sides.
	tr.Put(mkEntry("aaa", 1, 1))
	for ts := int64(1); ts <= 500; ts++ {
		tr.Put(mkEntry("hot", ts, uint64(ts+10)))
	}
	tr.Put(mkEntry("zzz", 1, 2))
	if n := tr.DeleteKey([]byte("hot")); n != 500 {
		t.Fatalf("DeleteKey removed %d, want 500", n)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	for _, k := range []string{"aaa", "zzz"} {
		if _, ok := tr.Latest([]byte(k)); !ok {
			t.Errorf("neighbour %s lost", k)
		}
	}
}

func TestQuickRangeLatestMatchesModel(t *testing.T) {
	f := func(puts []uint16, snapshot uint8) bool {
		tr := New()
		model := map[string]int64{} // key -> latest ts <= snapshot
		snap := int64(snapshot%32) + 1
		for i, p := range puts {
			key := fmt.Sprintf("k%02d", p%24)
			ts := int64(p/24%32) + 1
			tr.Put(mkEntry(key, ts, uint64(i+1)))
			if ts <= snap && ts > model[key] {
				model[key] = ts
			}
		}
		got := map[string]int64{}
		tr.RangeLatest(nil, nil, snap, func(e Entry) bool {
			got[string(e.Key)] = e.TS
			return true
		})
		visible := 0
		for k, ts := range model {
			if ts == 0 {
				continue
			}
			visible++
			if got[k] != ts {
				return false
			}
		}
		return len(got) == visible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAscendRangeVersionBoundaries(t *testing.T) {
	tr := New()
	for _, k := range []string{"b", "c", "d"} {
		for ts := int64(1); ts <= 3; ts++ {
			tr.Put(mkEntry(k, ts, uint64(ts)))
		}
	}
	// Range [c, d) must include all of c's versions and none of d's.
	var got []string
	tr.ascendRange([]byte("c"), []byte("d"), func(e Entry) bool {
		got = append(got, fmt.Sprintf("%s@%d", e.Key, e.TS))
		return true
	})
	want := []string{"c@1", "c@2", "c@3"}
	if len(got) != 3 {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range[%d] = %s", i, got[i])
		}
	}
}

func TestPutAfterBulk(t *testing.T) {
	var entries []Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, mkEntry(fmt.Sprintf("k%04d", i), 1, uint64(i+1)))
	}
	tr := Bulk(entries)
	// Inserts into a bulk-loaded tree must split correctly.
	for i := 0; i < 500; i++ {
		tr.Put(mkEntry(fmt.Sprintf("k%04d", i), 2, uint64(2000+i)))
	}
	if tr.Len() != 1500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	e, ok := tr.Latest([]byte("k0250"))
	if !ok || e.TS != 2 {
		t.Errorf("Latest(k0250) = %+v %v", e, ok)
	}
	// Order intact.
	var prev Entry
	first := true
	tr.Ascend(func(e Entry) bool {
		if !first && compare(prev.Key, prev.TS, e.Key, e.TS) >= 0 {
			t.Fatal("order broken after post-bulk inserts")
		}
		prev, first = e, false
		return true
	})
}
