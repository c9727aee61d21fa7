package index

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wal"
)

func TestSplitKeys(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Put(Entry{Key: []byte(fmt.Sprintf("k%06d", i)), TS: 1, Ptr: wal.Ptr{Seg: 1}, LSN: uint64(i + 1)})
	}

	for _, workers := range []int{2, 4, 8} {
		splits := tr.SplitKeys(nil, nil, workers)
		if len(splits) == 0 || len(splits) > workers-1 {
			t.Fatalf("workers=%d: got %d splits", workers, len(splits))
		}
		for i := 1; i < len(splits); i++ {
			if bytes.Compare(splits[i-1], splits[i]) >= 0 {
				t.Fatalf("splits not strictly increasing: %q >= %q", splits[i-1], splits[i])
			}
		}
		// Shards must tile the keyspace with roughly even population.
		bounds := append([][]byte{nil}, splits...)
		bounds = append(bounds, nil)
		total := 0
		for i := 0; i+1 < len(bounds); i++ {
			cnt := 0
			tr.ascendRange(bounds[i], bounds[i+1], func(Entry) bool { cnt++; return true })
			if cnt == 0 {
				t.Fatalf("workers=%d: shard %d empty", workers, i)
			}
			total += cnt
		}
		if total != n {
			t.Fatalf("workers=%d: shards cover %d entries, want %d", workers, total, n)
		}
	}
}

func TestSplitKeysRespectsRange(t *testing.T) {
	tr := New()
	for i := 0; i < 3000; i++ {
		tr.Put(Entry{Key: []byte(fmt.Sprintf("k%06d", i)), TS: 1, LSN: uint64(i + 1)})
	}
	start, end := []byte("k001000"), []byte("k002000")
	splits := tr.SplitKeys(start, end, 4)
	for _, s := range splits {
		if bytes.Compare(s, start) <= 0 || bytes.Compare(s, end) >= 0 {
			t.Fatalf("split %q outside (%q, %q)", s, start, end)
		}
	}
}

func TestSplitKeysSmallTree(t *testing.T) {
	tr := New()
	if got := tr.SplitKeys(nil, nil, 4); len(got) != 0 {
		t.Fatalf("empty tree: got %v", got)
	}
	for i := 0; i < 10; i++ {
		tr.Put(Entry{Key: []byte(fmt.Sprintf("k%d", i)), TS: 1, LSN: uint64(i + 1)})
	}
	// One leaf: no interior boundaries to sample — serial scan is fine.
	if got := tr.SplitKeys(nil, nil, 4); len(got) != 0 {
		t.Fatalf("single leaf: got %v", got)
	}
	if got := tr.SplitKeys(nil, nil, 1); got != nil {
		t.Fatalf("n=1: got %v", got)
	}
}
