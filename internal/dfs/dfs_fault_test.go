package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
)

func newFaultDFS(t *testing.T, nodes int, reg *fault.Registry) *DFS {
	t.Helper()
	fs, err := New(t.TempDir(), Config{NumDataNodes: nodes, BlockSize: 1 << 20, Faults: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return fs
}

// Re-replication of an under-replicated block racing a concurrent
// append to the same (still-filling) block: every byte acknowledged by
// a Write must be readable afterwards, and the cluster must converge
// to full replication with all replicas byte-identical.
func TestRecoverReplicationRacesConcurrentAppend(t *testing.T) {
	fs := newFaultDFS(t, 4, nil)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	chunk := bytes.Repeat([]byte("x"), 512)
	if _, err := w.Write(chunk); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	fs.KillDataNode(blocks[0].Replicas[0]) // block 0 becomes under-replicated

	var wrote int
	var wg sync.WaitGroup
	wg.Add(2)
	werrCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			if _, err := w.Write(chunk); err != nil {
				werrCh <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			wrote++
		}
		werrCh <- nil
	}()
	rerrCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			if _, err := fs.RecoverReplication(); err != nil {
				rerrCh <- err
				return
			}
		}
		rerrCh <- nil
	}()
	wg.Wait()
	if err := <-werrCh; err != nil {
		t.Fatal(err)
	}
	if err := <-rerrCh; err != nil {
		t.Fatalf("RecoverReplication racing append: %v", err)
	}

	// Converge (the racing recovery may have copied a partial block; a
	// quiesced pass must finish the job) and verify every replica of
	// every block agrees with the committed contents.
	if _, err := fs.RecoverReplication(); err != nil {
		t.Fatalf("final RecoverReplication: %v", err)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d after recovery", n)
	}
	size, _ := fs.Size("f")
	want := int64((1 + wrote) * len(chunk))
	if size != want {
		t.Fatalf("file size %d, want %d", size, want)
	}
	r, _ := fs.Open("f")
	got := make([]byte, size)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, b := range got {
		if b != 'x' {
			t.Fatalf("byte %d = %q, want 'x'", i, b)
		}
	}
	ok, err := fs.ReplicasAgree("f")
	if err != nil {
		t.Fatalf("ReplicasAgree: %v", err)
	}
	if !ok {
		t.Fatal("replicas diverge after re-replication raced an append")
	}
}

// ReplicationFactor temporarily unsatisfiable: with all but one node
// dead, writes still succeed on the survivor; when nodes return,
// re-replication restores the configured factor.
func TestReplicationFactorUnsatisfiableThenRecovers(t *testing.T) {
	fs := newFaultDFS(t, 3, nil)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("before")); err != nil {
		t.Fatalf("write before failures: %v", err)
	}
	fs.KillDataNode(0)
	fs.KillDataNode(1)
	if _, err := w.Write([]byte("-during")); err != nil {
		t.Fatalf("write with one survivor: %v", err)
	}
	// Force a block placed while only one node is live.
	w2, err := fs.Create("g")
	if err != nil {
		t.Fatalf("Create g: %v", err)
	}
	if _, err := w2.Write([]byte("solo")); err != nil {
		t.Fatalf("write new file with one survivor: %v", err)
	}
	blocks, _ := fs.Blocks("g")
	if len(blocks[0].Replicas) != 1 {
		t.Fatalf("solo block has %d replicas, want 1", len(blocks[0].Replicas))
	}

	// All nodes dead: writes must fail with ErrNoDataNodes, not hang.
	fs.KillDataNode(2)
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("write with no nodes = %v, want ErrNoDataNodes", err)
	}

	// Nodes return; replication converges back to the factor.
	fs.RestartDataNode(0)
	fs.RestartDataNode(1)
	fs.RestartDataNode(2)
	if n := fs.UnderReplicated(); n == 0 {
		t.Fatal("expected under-replicated blocks before recovery")
	}
	if _, err := fs.RecoverReplication(); err != nil {
		t.Fatalf("RecoverReplication: %v", err)
	}
	if n := fs.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated = %d after nodes returned", n)
	}
	for _, path := range []string{"f", "g"} {
		for _, b := range mustBlocks(t, fs, path) {
			if len(b.Replicas) < 3 {
				t.Fatalf("%s block %d has %d replicas, want 3", path, b.Index, len(b.Replicas))
			}
		}
		ok, err := fs.ReplicasAgree(path)
		if err != nil || !ok {
			t.Fatalf("%s replicas agree = %v, %v", path, ok, err)
		}
	}
	r, _ := fs.Open("f")
	buf := make([]byte, 13)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read back f: %v", err)
	}
	if string(buf) != "before-during" {
		t.Fatalf("f content %q", buf)
	}
}

func mustBlocks(t *testing.T, fs *DFS, path string) []BlockInfo {
	t.Helper()
	blocks, err := fs.Blocks(path)
	if err != nil {
		t.Fatalf("Blocks(%s): %v", path, err)
	}
	return blocks
}

// A datanode kill *schedule*: the node dies mid-workload at an armed
// write point; appends keep succeeding on the remaining replicas and
// the dead node is dropped from the affected block's replica set.
func TestDataNodeKillScheduleDuringAppends(t *testing.T) {
	reg := fault.New(11)
	fs := newFaultDFS(t, 3, reg)
	var killOnce sync.Once
	reg.Arm("dfs.dn1.write", fault.Policy{After: 5, Times: 1, OnFire: func() {
		killOnce.Do(func() { fs.KillDataNode(1) })
	}})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Write(bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatalf("write %d (after scheduled kill): %v", i, err)
		}
	}
	if fs.DataNode(1).Alive() {
		t.Fatal("kill schedule never fired")
	}
	r, _ := fs.Open("f")
	buf := make([]byte, 20*64)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := 0; i < 20; i++ {
		if buf[i*64] != byte(i) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
}

// Replicas are written in replica-set order, so the first replica's
// write can kill the second's datanode before its turn: the append
// still succeeds, the killed replica leaves the block's replica set, and
// the third holds the bytes.
func TestReplicaKilledByEarlierReplicaWrite(t *testing.T) {
	reg := fault.New(13)
	fs := newFaultDFS(t, 3, reg)
	w, err := fs.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("head-")); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	r := mustBlocks(t, fs, "f")[0].Replicas
	if len(r) != 3 {
		t.Fatalf("block has replicas %v, want 3", r)
	}
	reg.Arm(fmt.Sprintf("dfs.dn%d.write", r[0]), fault.Policy{Times: 1, OnFire: func() { fs.KillDataNode(r[1]) }})
	if _, err := w.Write([]byte("tail")); err != nil {
		t.Fatalf("append whose first replica write kills the second: %v", err)
	}
	if fs.DataNode(r[1]).Alive() {
		t.Fatal("OnFire never killed the second replica")
	}
	if got, want := mustBlocks(t, fs, "f")[0].Replicas, []int{r[0], r[2]}; !slices.Equal(got, want) {
		t.Fatalf("replicas after the kill = %v, want %v", got, want)
	}
	got, err := fs.ReadBlockReplica("f", 0, r[2])
	if err != nil || string(got) != "head-tail" {
		t.Fatalf("third replica holds %q, %v; want \"head-tail\"", got, err)
	}
}

// Truncate cuts across block boundaries and drops whole trailing
// blocks on every live replica.
func TestTruncateAcrossBlocks(t *testing.T) {
	fs, err := New(t.TempDir(), Config{NumDataNodes: 3, BlockSize: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w, _ := fs.Create("f")
	data := make([]byte, 350)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := fs.Truncate("f", 150); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if size, _ := fs.Size("f"); size != 150 {
		t.Fatalf("size after truncate = %d, want 150", size)
	}
	blocks, _ := fs.Blocks("f")
	if len(blocks) != 2 || blocks[1].Size != 50 {
		t.Fatalf("blocks after truncate: %+v", blocks)
	}
	r, _ := fs.Open("f")
	got := make([]byte, 150)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
	// Appends continue at the cut.
	w2 := &Writer{d: fs, path: "f"}
	if _, err := w2.Write([]byte{0xFF}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	one := make([]byte, 1)
	if _, err := r.ReadAt(one, 150); err != nil || one[0] != 0xFF {
		t.Fatalf("read appended byte: %v %x", err, one)
	}
	if err := fs.Truncate("f", 1000); err == nil {
		t.Fatal("truncate beyond EOF succeeded")
	}
}

// CorruptBlockReplica + ReadBlockReplica + RepairBlockReplica: the
// primitive scrub cycle at the DFS layer.
func TestCorruptAndRepairBlockReplica(t *testing.T) {
	fs := newFaultDFS(t, 3, nil)
	w, _ := fs.Create("f")
	if _, err := w.Write(bytes.Repeat([]byte("a"), 256)); err != nil {
		t.Fatalf("write: %v", err)
	}
	blocks := mustBlocks(t, fs, "f")
	victim, healthy := blocks[0].Replicas[0], blocks[0].Replicas[1]
	if err := fs.CorruptBlockReplica("f", 0, victim, 10); err != nil {
		t.Fatalf("CorruptBlockReplica: %v", err)
	}
	if ok, _ := fs.ReplicasAgree("f"); ok {
		t.Fatal("replicas agree despite corruption")
	}
	bad, err := fs.ReadBlockReplica("f", 0, victim)
	if err != nil {
		t.Fatalf("ReadBlockReplica: %v", err)
	}
	if bad[10] == 'a' {
		t.Fatal("corruption did not land")
	}
	if err := fs.RepairBlockReplica("f", 0, healthy, victim); err != nil {
		t.Fatalf("RepairBlockReplica: %v", err)
	}
	if ok, _ := fs.ReplicasAgree("f"); !ok {
		t.Fatal("replicas still diverge after repair")
	}
	if _, err := fs.ReadBlockReplica("f", 0, 99); err == nil {
		t.Fatal("ReadBlockReplica accepted bogus node")
	}
}

// patterned returns n bytes that differ from block to block and from
// byte to byte, so a misplaced or stale range shows up in a compare.
func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/251)
	}
	return p
}

// A multi-block ReadAt whose first replica fails partway through — dn0
// serves the read's first block, then errors on the second block it is
// replica 0 of — falls back to the next replica for that block and still
// fills every byte of the caller's buffer with exactly what was written.
func TestReadAtReplicaFailsMidRead(t *testing.T) {
	reg := fault.New(5)
	fs, err := New(t.TempDir(), Config{NumDataNodes: 3, BlockSize: 4 << 10, Faults: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := patterned(4*(4<<10) + 100)
	w, _ := fs.Create("f")
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	served := 0
	for _, b := range mustBlocks(t, fs, "f") {
		if b.Replicas[0] == 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("dn0 is replica 0 of %d blocks, want >= 2", served)
	}
	reg.Arm("dfs.dn0.read", fault.Policy{After: 1, Times: 1})
	r, _ := fs.Open("f")
	got := bytes.Repeat([]byte{0xEE}, len(data))
	if n, err := r.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v; want %d, nil", n, err, len(data))
	}
	if fired := reg.Injected(); fired != 1 {
		t.Fatalf("dn0 read fault fired %d times, want 1", fired)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after a mid-read replica failure differs from the written bytes")
	}
}

// A read-path bit flip corrupts only the caller's buffer: the stored
// replicas stay intact, so a re-read is exact, while the per-replica
// read that scrubbing compares sees the flipped copy as a divergence.
func TestReadFlipBitCorruptsOnlyCallerBuffer(t *testing.T) {
	reg := fault.New(9)
	fs := newFaultDFS(t, 3, reg)
	data := patterned(10000)
	w, _ := fs.Create("f")
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	point := fmt.Sprintf("dfs.dn%d.read", mustBlocks(t, fs, "f")[0].Replicas[0])
	reg.Arm(point, fault.Policy{Times: 1, FlipBit: true})
	r, _ := fs.Open("f")
	got := make([]byte, len(data))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flipped read differs in %d bytes, want 1", diff)
	}
	if _, err := r.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("re-read after a transient flip: err %v, exact %v", err, bytes.Equal(got, data))
	}

	reg.Arm(point, fault.Policy{Times: 1, FlipBit: true})
	if ok, err := fs.ReplicasAgree("f"); err != nil || ok {
		t.Fatalf("ReplicasAgree with a flipped replica read = %v, %v; want false", ok, err)
	}
	if ok, err := fs.ReplicasAgree("f"); err != nil || !ok {
		t.Fatalf("ReplicasAgree after the flip = %v, %v; want true (nothing persisted)", ok, err)
	}
}

// WriteFile installs its content atomically: a write that fails part-way
// (every datanode's write point armed, so some blocks land before the
// error) leaves the previous content readable and no stray blocks; the
// next write replaces it, and the replaced blocks are gone too.
func TestWriteFileFailureKeepsOldContent(t *testing.T) {
	reg := fault.New(7)
	fs, err := New(t.TempDir(), Config{NumDataNodes: 3, BlockSize: 128, Faults: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	allBlockFiles := func() int {
		n := 0
		for i := 0; i < fs.NumDataNodes(); i++ {
			n += blockFiles(fs, i)
		}
		return n
	}
	old := bytes.Repeat([]byte("old"), 100)
	if err := fs.WriteFile("chk/a", old); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	installed := allBlockFiles()

	for i := 0; i < fs.NumDataNodes(); i++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.write", i), fault.Policy{After: 1})
	}
	if err := fs.WriteFile("chk/a", bytes.Repeat([]byte("new"), 100)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteFile with every datanode failing = %v, want an injected error", err)
	}
	reg.Reset()
	if got, err := fs.ReadFile("chk/a"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after a failed WriteFile: ReadFile = %d bytes, %v; want the previous %d bytes", len(got), err, len(old))
	}
	if n := allBlockFiles(); n != installed {
		t.Fatalf("failed WriteFile left %d block files, want the previous content's %d", n, installed)
	}
	if got := fs.List(""); !slices.Equal(got, []string{"chk/a"}) {
		t.Fatalf("namespace after a failed WriteFile = %v, want [chk/a]", got)
	}

	if err := fs.WriteFile("chk/a", []byte("short")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if got, err := fs.ReadFile("chk/a"); err != nil || string(got) != "short" {
		t.Fatalf("ReadFile = %q, %v; want %q", got, err, "short")
	}
	if n := allBlockFiles(); n != fs.cfg.ReplicationFactor {
		t.Fatalf("%d block files after a one-block replace, want %d", n, fs.cfg.ReplicationFactor)
	}
	if _, err := fs.ReadFile("chk/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFile of a missing path = %v, want ErrNotFound", err)
	}
}
