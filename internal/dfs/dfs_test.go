package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/simdisk"
)

func newTestDFS(t *testing.T, cfg Config) *DFS {
	t.Helper()
	if cfg.NumDataNodes == 0 {
		cfg.NumDataNodes = 4
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	d, err := New(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestCreateWriteReadBack(t *testing.T) {
	d := newTestDFS(t, Config{})
	w, err := d.Create("logs/seg1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	data := []byte("the log is the database")
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := d.Open("logs/seg1")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read %q, want %q", got, data)
	}
}

func TestCreateExisting(t *testing.T) {
	d := newTestDFS(t, Config{})
	if _, err := d.Create("f"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := d.Create("f"); !errors.Is(err, ErrExists) {
		t.Errorf("second Create err = %v, want ErrExists", err)
	}
}

func TestOpenMissing(t *testing.T) {
	d := newTestDFS(t, Config{})
	if _, err := d.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open missing err = %v, want ErrNotFound", err)
	}
	if _, err := d.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size missing err = %v, want ErrNotFound", err)
	}
	if err := d.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete missing err = %v, want ErrNotFound", err)
	}
}

func TestMultiBlockFile(t *testing.T) {
	d := newTestDFS(t, Config{BlockSize: 256})
	w, err := d.Create("big")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var want bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		chunk := make([]byte, 100)
		rng.Read(chunk)
		want.Write(chunk)
		if _, err := w.Write(chunk); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	size, err := d.Size("big")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if size != 2000 {
		t.Fatalf("size = %d, want 2000", size)
	}

	r, _ := d.Open("big")
	got := make([]byte, 2000)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("multi-block content mismatch")
	}

	// Cross-block random reads.
	for trial := 0; trial < 50; trial++ {
		off := rng.Int63n(1900)
		n := 1 + rng.Intn(100)
		buf := make([]byte, n)
		m, err := r.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,%d): %v", off, n, err)
		}
		if !bytes.Equal(buf[:m], want.Bytes()[off:off+int64(m)]) {
			t.Fatalf("random read at %d len %d mismatch", off, n)
		}
	}
}

// A large ReadAt reads each block straight into the caller's buffer: a
// 1 MB read allocates only its block snapshot, not a copy of the data.
func TestReadAtAllocBudget(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, BlockSize: 64 << 10})
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	w, _ := d.Create("f")
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, _ := d.Open("f")
	buf := make([]byte, len(data))
	if _, err := r.ReadAt(buf, 0); err != nil { // opens the block files
		t.Fatalf("ReadAt: %v", err)
	}
	clear(buf)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadAt(buf, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<10 {
		t.Fatalf("1 MB ReadAt allocated %d bytes, want < 8 KB", alloc)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("ReadAt content mismatch")
	}
}

// An append writes its replicas on the caller's goroutine: a 320 B
// Write over 3 replicas, with fault points attached, allocates nothing
// — so it starts no goroutine either, as a go statement allocates.
func TestAppendAllocBudget(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, BlockSize: 1 << 20, Faults: fault.New(1)})
	w, _ := d.Create("f")
	rec := make([]byte, 320)
	if _, err := w.Write(rec); err != nil { // places the block, opens its files
		t.Fatalf("Write: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.Write(rec); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}); n > 0 {
		t.Fatalf("320 B Write over 3 replicas: %v allocs, want 0", n)
	}
	if ok, err := d.ReplicasAgree("f"); err != nil || !ok {
		t.Fatalf("ReplicasAgree = %v, %v", ok, err)
	}
}

func TestReadPastEOF(t *testing.T) {
	d := newTestDFS(t, Config{})
	w, _ := d.Create("f")
	w.Write([]byte("abc"))
	r, _ := d.Open("f")
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Errorf("short read: n=%d err=%v, want 3/EOF", n, err)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("read past EOF err=%v, want EOF", err)
	}
}

func TestReplicationFactor(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 5, ReplicationFactor: 3, BlockSize: 128})
	w, _ := d.Create("f")
	w.Write(make([]byte, 500)) // 4 blocks

	d.mu.Lock()
	fm := d.files["f"]
	for _, b := range fm.blocks {
		if len(b.replicas) != 3 {
			t.Errorf("block %d has %d replicas, want 3", b.id, len(b.replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.replicas {
			if seen[r] {
				t.Errorf("block %d replicated twice on dn%d", b.id, r)
			}
			seen[r] = true
		}
	}
	d.mu.Unlock()
}

func TestRackAwarePlacement(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 6, ReplicationFactor: 3, BlockSize: 64})
	w, _ := d.Create("f")
	w.Write(make([]byte, 64*8))

	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range d.files["f"].blocks {
		racks := map[int]bool{}
		for _, nid := range b.replicas {
			racks[d.nodes[nid].rack] = true
		}
		if len(racks) < 2 {
			t.Errorf("block %d replicas all on one rack: %v", b.id, b.replicas)
		}
	}
}

func TestAppendAfterReopen(t *testing.T) {
	d := newTestDFS(t, Config{})
	w, _ := d.Create("f")
	w.Write([]byte("first,"))
	w.Close()

	if size, err := d.Size("f"); err != nil || size != 6 {
		t.Errorf("size after close = %d, %v; want 6", size, err)
	}
	w2 := &Writer{d: d, path: "f"}
	w2.Write([]byte("second"))

	r, _ := d.Open("f")
	buf := make([]byte, 12)
	r.ReadAt(buf, 0)
	if string(buf) != "first,second" {
		t.Errorf("content = %q", buf)
	}
}

// blockFiles counts the block files on datanode i's disk, over every
// block id the namenode has handed out.
func blockFiles(d *DFS, i int) int {
	d.mu.Lock()
	last := d.nextBlock
	d.mu.Unlock()
	n := 0
	for id := blockID(1); id <= last; id++ {
		if d.nodes[i].disk.Exists(fmt.Sprintf("blk_%012d", id)) {
			n++
		}
	}
	return n
}

func TestDeleteRemovesBlocks(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, ReplicationFactor: 3, BlockSize: 128})
	w, _ := d.Create("f")
	w.Write(make([]byte, 512))
	if err := d.Delete("f"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if d.Exists("f") {
		t.Error("file exists after delete")
	}
	for i := 0; i < 3; i++ {
		if n := blockFiles(d, i); n != 0 {
			t.Errorf("dn%d still holds %d blocks after delete", i, n)
		}
	}
}

func TestList(t *testing.T) {
	d := newTestDFS(t, Config{})
	for _, p := range []string{"log/2", "log/1", "idx/a"} {
		if _, err := d.Create(p); err != nil {
			t.Fatalf("Create %s: %v", p, err)
		}
	}
	got := d.List("log/")
	if len(got) != 2 || got[0] != "log/1" || got[1] != "log/2" {
		t.Errorf("List(log/) = %v", got)
	}
	if n := len(d.List("")); n != 3 {
		t.Errorf("List(\"\") returned %d entries, want 3", n)
	}
}

func TestReadSurvivesSingleFailure(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 4, ReplicationFactor: 3, BlockSize: 256})
	w, _ := d.Create("f")
	payload := bytes.Repeat([]byte("q"), 1000)
	w.Write(payload)

	d.KillDataNode(0)
	d.KillDataNode(1)

	r, _ := d.Open("f")
	got := make([]byte, 1000)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt with 2 nodes dead: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("content mismatch after failures")
	}
}

func TestRecoverReplication(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 5, ReplicationFactor: 3, BlockSize: 256})
	w, _ := d.Create("f")
	payload := bytes.Repeat([]byte("r"), 1024)
	w.Write(payload)

	d.KillDataNode(2)
	if ur := d.UnderReplicated(); ur == 0 {
		t.Skip("killed node held no replicas; placement avoided it")
	}
	n, err := d.RecoverReplication()
	if err != nil {
		t.Fatalf("RecoverReplication: %v", err)
	}
	if n == 0 {
		t.Error("no replicas created despite under-replication")
	}
	if ur := d.UnderReplicated(); ur != 0 {
		t.Errorf("still %d under-replicated blocks", ur)
	}
	// Content must remain intact read from the new replica set.
	r, _ := d.Open("f")
	got := make([]byte, 1024)
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("content mismatch after re-replication")
	}
}

func TestWriteSkipsDeadReplica(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, ReplicationFactor: 3, BlockSize: 1 << 20})
	w, _ := d.Create("f")
	w.Write([]byte("before"))
	d.KillDataNode(0)
	if _, err := w.Write([]byte("-after")); err != nil {
		t.Fatalf("Write with dead replica: %v", err)
	}
	r, _ := d.Open("f")
	buf := make([]byte, 12)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "before-after" {
		t.Errorf("content = %q", buf)
	}
}

func TestAllNodesDead(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 2, ReplicationFactor: 2})
	w, _ := d.Create("f")
	d.KillDataNode(0)
	d.KillDataNode(1)
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write succeeded with all datanodes dead")
	}
}

func TestConcurrentFiles(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 4, BlockSize: 512})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := fmt.Sprintf("file-%d", g)
			w, err := d.Create(path)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				if _, err := w.Write(bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					errs <- err
					return
				}
			}
			r, err := d.Open(path)
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 64*50)
			if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
				errs <- err
				return
			}
			for _, b := range buf {
				if b != byte(g) {
					errs <- fmt.Errorf("file %d corrupted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDiskCostPropagates(t *testing.T) {
	clock := &simdisk.Clock{}
	cfg := Config{
		NumDataNodes:      3,
		ReplicationFactor: 3,
		BlockSize:         1024,
		DiskModel:         simdisk.Model{SeekLatency: 1e6, WriteBytesPerSec: 1 << 10},
		Clock:             clock,
	}
	d, err := New(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w, _ := d.Create("f")
	w.Write([]byte("cost me"))
	if clock.Elapsed() == 0 {
		t.Error("write charged no virtual time despite seek latency model")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 2, BlockSize: 1024})
	if d.cfg.ReplicationFactor != 2 { // clamped from default 3 to cluster size
		t.Errorf("replication factor = %d, want 2 (clamped)", d.cfg.ReplicationFactor)
	}
	if r0, r1 := d.DataNode(0).rack, d.DataNode(1).rack; r0 != 0 || r1 != 1 {
		t.Errorf("racks = %d, %d, want the nodes spread over 2 racks", r0, r1)
	}
}
