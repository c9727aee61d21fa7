package lsm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/sstable"
)

func TestBlockCacheReducesIO(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 8192})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	bc := cache.New(1<<20, nil)
	tr, err := Open(fs, "lsm", Options{MemtableBytes: 1024, BlockCache: bc})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("k%04d", i)), 1, make([]byte, 64))
	}
	tr.Flush()
	// Two reads of neighbouring keys in the same block: second hits.
	tr.Get([]byte("k0001"), math.MaxInt64)
	tr.Get([]byte("k0002"), math.MaxInt64)
	if bc.Stats().Hits == 0 {
		t.Errorf("no block cache hits: %+v", bc.Stats())
	}
}

func TestFlushEmptyMemtableNoop(t *testing.T) {
	tr := newTree(t, Options{})
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush empty: %v", err)
	}
	if runs := runsPerLevel(tr); runs[0] != 0 {
		t.Errorf("empty flush created a run: %v", runs)
	}
}

func TestDeepCompactionKeepsData(t *testing.T) {
	tr := newTree(t, Options{
		MemtableBytes:       512,
		L0CompactionTrigger: 2,
		BaseLevelBytes:      2 << 10, // tiny L1 forces deeper levels
		LevelSizeMultiplier: 2,
	})
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), 1, make([]byte, 32)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	runs := runsPerLevel(tr)
	deep := 0
	for l := 2; l < len(runs); l++ {
		deep += runs[l]
	}
	if deep == 0 {
		t.Logf("runs per level: %v", runs)
		t.Skip("data never reached L2+ at this scale; compaction settings too lax")
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if _, ok, err := tr.Get([]byte(fmt.Sprintf("k%05d", i)), math.MaxInt64); !ok || err != nil {
			t.Errorf("k%05d lost in deep compaction (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 4 << 10})
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("base%04d", i)), 1, []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("base%04d", (r*50+i)%200))
				if _, ok, err := tr.Get(key, math.MaxInt64); !ok || err != nil {
					t.Errorf("reader %d: %s vanished (ok=%v err=%v)", r, key, ok, err)
					return
				}
				i++
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("new%04d", i)), 1, make([]byte, 64))
	}
	close(stop)
	wg.Wait()
}

func TestMemtableIteratorFromStart(t *testing.T) {
	m := NewMemtable()
	for i := 0; i < 50; i++ {
		m.Put(sstable.Entry{Key: []byte(fmt.Sprintf("%03d", i)), TS: 1, Value: []byte("v")})
	}
	it := m.Iterator([]byte("025"))
	n := 0
	for it.Next() {
		if n == 0 && string(it.Entry().Key) != "025" {
			t.Errorf("iterator started at %s", it.Entry().Key)
		}
		n++
	}
	if n != 25 {
		t.Errorf("iterator saw %d entries, want 25", n)
	}
}
