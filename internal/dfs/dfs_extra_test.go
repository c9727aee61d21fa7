package dfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRestartedDataNodeServesOldBlocks(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, ReplicationFactor: 3, BlockSize: 256})
	w, _ := d.Create("f")
	payload := bytes.Repeat([]byte("p"), 700)
	w.Write(payload)

	d.KillDataNode(0)
	d.RestartDataNode(0)
	// The restarted node still holds its replicas on disk; reads served
	// from it must be correct.
	d.KillDataNode(1)
	d.KillDataNode(2)
	r, _ := d.Open("f")
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt from restarted node: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("restarted node served corrupt data")
	}
}

func TestWritesAfterRestartGoEverywhere(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, ReplicationFactor: 3, BlockSize: 1 << 20})
	w, _ := d.Create("f")
	w.Write([]byte("one"))
	d.KillDataNode(0)
	w.Write([]byte("two")) // skips dead replica
	d.RestartDataNode(0)
	w.Write([]byte("three")) // resumes writing to it

	// Node 0 has a hole ("two" missing) — reading via other replicas
	// must still return the full content.
	r, _ := d.Open("f")
	buf := make([]byte, 11)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "onetwothree" {
		t.Errorf("content = %q", buf)
	}
}

func TestOpenAppendMissing(t *testing.T) {
	d := newTestDFS(t, Config{})
	w, err := d.Create("ghost")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := d.Delete("ghost"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("append to a deleted file = %v, want ErrNotFound", err)
	}
}

func TestUnderReplicatedCounts(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 4, ReplicationFactor: 3, BlockSize: 128})
	w, _ := d.Create("f")
	w.Write(make([]byte, 128*4)) // 4 blocks
	if ur := d.UnderReplicated(); ur != 0 {
		t.Fatalf("healthy cluster reports %d under-replicated", ur)
	}
	d.KillDataNode(0)
	d.KillDataNode(1)
	if ur := d.UnderReplicated(); ur == 0 {
		t.Error("two dead nodes, zero under-replicated blocks")
	}
	if _, err := d.RecoverReplication(); err != nil {
		t.Fatalf("RecoverReplication: %v", err)
	}
	if ur := d.UnderReplicated(); ur != 0 {
		t.Errorf("%d blocks still under-replicated after recovery", ur)
	}
}

func TestQuickReadBackAnyOffset(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, BlockSize: 97}) // awkward block size
	w, _ := d.Create("f")
	content := make([]byte, 3000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	w.Write(content)
	r, _ := d.Open("f")
	f := func(off uint16, n uint8) bool {
		o := int64(off) % 3000
		ln := int(n)%64 + 1
		buf := make([]byte, ln)
		m, err := r.ReadAt(buf, o)
		if err != nil && err != io.EOF {
			return false
		}
		want := content[o:]
		if len(want) > m {
			want = want[:m]
		}
		return bytes.Equal(buf[:m], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestManySmallFilesGC(t *testing.T) {
	d := newTestDFS(t, Config{NumDataNodes: 3, ReplicationFactor: 2, BlockSize: 64})
	for i := 0; i < 30; i++ {
		w, err := d.Create(string(rune('a' + i%26)))
		if err != nil {
			// duplicate name: fine, skip
			continue
		}
		w.Write(make([]byte, 100))
	}
	for _, p := range d.List("") {
		if err := d.Delete(p); err != nil {
			t.Fatalf("Delete %s: %v", p, err)
		}
	}
	// All block files must be gone from every datanode.
	for i := 0; i < 3; i++ {
		if n := blockFiles(d, i); n != 0 {
			t.Errorf("dn%d leaked %d block files", i, n)
		}
	}
}
