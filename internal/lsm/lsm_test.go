package lsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfs"
	"repro/internal/sstable"
)

func newTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 8192})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	tr, err := Open(fs, "lsm", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return tr
}

// runsPerLevel reports the tree's shape: the number of runs per level.
func runsPerLevel(t *Tree) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, numLevels)
	for l := range out {
		out[l] = len(t.levels[l])
	}
	return out
}

func TestMemtableOrderAndGet(t *testing.T) {
	m := NewMemtable()
	m.Put(sstable.Entry{Key: []byte("b"), TS: 1, Value: []byte("b1")})
	m.Put(sstable.Entry{Key: []byte("a"), TS: 2, Value: []byte("a2")})
	m.Put(sstable.Entry{Key: []byte("a"), TS: 5, Value: []byte("a5")})

	if e, ok := m.Get([]byte("a"), 10); !ok || string(e.Value) != "a5" {
		t.Errorf("get(a,10) = %+v %v", e, ok)
	}
	if e, ok := m.Get([]byte("a"), 3); !ok || string(e.Value) != "a2" {
		t.Errorf("get(a,3) = %+v %v", e, ok)
	}
	if _, ok := m.Get([]byte("a"), 1); ok {
		t.Error("get before first version succeeded")
	}

	it := m.Iterator(nil)
	var got []string
	for it.Next() {
		got = append(got, fmt.Sprintf("%s@%d", it.Entry().Key, it.Entry().TS))
	}
	want := []string{"a@5", "a@2", "b@1"} // key asc, ts desc
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("iterator order %v, want %v", got, want)
	}
}

func TestMemtableReplace(t *testing.T) {
	m := NewMemtable()
	m.Put(sstable.Entry{Key: []byte("k"), TS: 1, Value: []byte("old")})
	m.Put(sstable.Entry{Key: []byte("k"), TS: 1, Value: []byte("new")})
	if m.Len() != 1 {
		t.Errorf("len = %d after replace", m.Len())
	}
	if e, _ := m.Get([]byte("k"), 1); string(e.Value) != "new" {
		t.Errorf("value = %q", e.Value)
	}
}

func TestPutGetAcrossFlushes(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 2048, BaseLevelBytes: 1 << 20})
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := tr.Put(key, int64(i%5+1), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for _, i := range []int{0, 1, 250, 499} {
		key := []byte(fmt.Sprintf("key-%04d", i))
		v, ok, err := tr.Get(key, math.MaxInt64)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key, ok, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Errorf("Get(%s) = %q", key, v)
		}
	}
	runs := 0
	for _, r := range runsPerLevel(tr) {
		runs += r
	}
	if runs == 0 {
		t.Error("nothing was flushed despite small memtable budget")
	}
}

func TestNewVersionShadowsOldAcrossLevels(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 1024})
	key := []byte("hot")
	for ts := int64(1); ts <= 50; ts++ {
		tr.Put(key, ts, []byte(fmt.Sprintf("v%d", ts)))
		// Interleave filler to force flushes between versions.
		tr.Put([]byte(fmt.Sprintf("filler-%02d", ts)), 1, make([]byte, 100))
	}
	v, ok, err := tr.Get(key, math.MaxInt64)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(v) != "v50" {
		t.Errorf("latest = %q, want v50", v)
	}
	// Historical read.
	v, ok, _ = tr.Get(key, 10)
	if !ok || string(v) != "v10" {
		t.Errorf("Get@10 = %q,%v", v, ok)
	}
}

func TestDeleteTombstone(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 1 << 20})
	tr.Put([]byte("k"), 1, []byte("v"))
	tr.Delete([]byte("k"), 2)
	if _, ok, _ := tr.Get([]byte("k"), math.MaxInt64); ok {
		t.Error("deleted key still visible at latest")
	}
	// The old version remains visible at its own time (multiversion).
	if v, ok, _ := tr.Get([]byte("k"), 1); !ok || string(v) != "v" {
		t.Errorf("historical read after delete = %q,%v", v, ok)
	}
	// Tombstone survives a flush.
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, ok, _ := tr.Get([]byte("k"), math.MaxInt64); ok {
		t.Error("deleted key visible after flush")
	}
}

func TestL0CompactionTriggers(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 512, L0CompactionTrigger: 3, BaseLevelBytes: 1 << 30})
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("k%04d", i)), 1, make([]byte, 64))
	}
	runs := runsPerLevel(tr)
	if runs[0] >= 3 {
		t.Errorf("L0 has %d runs, compaction never ran", runs[0])
	}
	if runs[1] == 0 {
		t.Error("L1 empty after compactions")
	}
	// Everything still readable.
	for _, i := range []int{0, 100, 199} {
		if _, ok, err := tr.Get([]byte(fmt.Sprintf("k%04d", i)), math.MaxInt64); !ok || err != nil {
			t.Errorf("k%04d lost after compaction (ok=%v err=%v)", i, ok, err)
		}
	}
}

// Every key stays readable through Get wherever it sits: the memtable,
// an L0 run, or a run compaction merged into a deeper level.
func TestGetMergesAllSources(t *testing.T) {
	tr := newTree(t, Options{MemtableBytes: 1024, L0CompactionTrigger: 2})
	const n = 300
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), 1, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if runs := runsPerLevel(tr); runs[1] == 0 {
		t.Fatalf("runs per level %v: compaction never merged a run into L1", runs)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		if v, ok, err := tr.Get(key, math.MaxInt64); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
		}
	}
}

func TestQuickLSMMatchesMap(t *testing.T) {
	type op struct {
		Key    uint8
		TS     uint8
		Delete bool
	}
	f := func(ops []op) bool {
		tr := newTreeQuick()
		model := map[string]map[int64]sstable.Entry{}
		for i, o := range ops {
			key := fmt.Sprintf("k%02d", o.Key%16)
			ts := int64(o.TS%16) + 1
			if model[key] == nil {
				model[key] = map[int64]sstable.Entry{}
			}
			if o.Delete {
				tr.Delete([]byte(key), ts)
				model[key][ts] = sstable.Entry{Tombstone: true}
			} else {
				v := []byte(fmt.Sprintf("v%d", i))
				tr.Put([]byte(key), ts, v)
				model[key][ts] = sstable.Entry{Value: v}
			}
		}
		// Latest-visible semantics must match the model.
		for key, versions := range model {
			var bestTS int64 = -1
			var best sstable.Entry
			for ts, e := range versions {
				if ts > bestTS {
					bestTS, best = ts, e
				}
			}
			v, ok, err := tr.Get([]byte(key), math.MaxInt64)
			if err != nil {
				return false
			}
			if best.Tombstone {
				if ok {
					return false
				}
			} else if !ok || !bytes.Equal(v, best.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

var quickDirSeq int

func newTreeQuick() *Tree {
	quickDirSeq++
	fs, err := dfs.New(fmt.Sprintf("%s/lsmq%d", tempRoot, quickDirSeq), dfs.Config{NumDataNodes: 3, BlockSize: 8192})
	if err != nil {
		panic(err)
	}
	tr, err := Open(fs, "lsm", Options{MemtableBytes: 1024, L0CompactionTrigger: 2, BaseLevelBytes: 16 << 10})
	if err != nil {
		panic(err)
	}
	return tr
}

var tempRoot string

func TestMain(m *testing.M) {
	dir, err := mkTemp()
	if err != nil {
		panic(err)
	}
	tempRoot = dir
	m.Run()
}

func mkTemp() (string, error) {
	return fmt.Sprintf("/tmp/lsm-test-%d", rand.Int63()), nil
}
