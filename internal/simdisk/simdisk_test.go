package simdisk

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func newTestDisk(t *testing.T, m Model) *Disk {
	t.Helper()
	d, err := New(t.TempDir(), m, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// size returns f's size on the real file system.
func size(t *testing.T, f *File) int64 {
	t.Helper()
	st, err := f.f.Stat()
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	return st.Size()
}

// appendTo writes p at the end of f, the way the dfs appends to a block
// file, and returns the offset it landed at.
func appendTo(t *testing.T, f *File, p []byte) int64 {
	t.Helper()
	off := size(t, f)
	if _, err := f.WriteAt(p, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	return off
}

func TestCreateWriteRead(t *testing.T) {
	d := newTestDisk(t, Model{})
	f, err := d.Create("a/b/file1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()

	data := []byte("hello simdisk")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestAppendReturnsOffsets(t *testing.T) {
	d := newTestDisk(t, Model{})
	f, err := d.Create("log")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()

	var want int64
	for i := 0; i < 10; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, i+1)
		if off := appendTo(t, f, chunk); off != want {
			t.Errorf("append %d at offset %d, want %d", i, off, want)
		}
		want += int64(len(chunk))
	}
	if got := size(t, f); got != want {
		t.Errorf("size = %d, want %d", got, want)
	}
}

func TestReadAtEOF(t *testing.T) {
	d := newTestDisk(t, Model{})
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	appendTo(t, f, []byte("abc"))
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != io.EOF && err != nil && n != 3 {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	if n != 3 {
		t.Errorf("short read n=%d, want 3", n)
	}
}

func TestSequentialVsRandomCost(t *testing.T) {
	m := Model{SeekLatency: time.Millisecond, ReadBytesPerSec: 1 << 30, WriteBytesPerSec: 1 << 30}
	d := newTestDisk(t, m)
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()

	// Lay down 100 records of 100 bytes sequentially.
	rec := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 100; i++ {
		appendTo(t, f, rec)
	}
	// Sequential appends after the create incur exactly one seek (the
	// create resets the head to 0 and appends continue from there).
	seqSeeks := d.Stats().Seeks
	if seqSeeks > 1 {
		t.Errorf("sequential writes took %d seeks, want <=1", seqSeeks)
	}
	d.ResetStats()
	d.Clock().Reset()

	// Random reads: every access jumps, so every access seeks.
	buf := make([]byte, 100)
	order := []int64{90, 10, 50, 30, 70}
	for _, i := range order {
		if _, err := f.ReadAt(buf, i*100); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}
	if got := d.Stats().Seeks; got != int64(len(order)) {
		t.Errorf("random reads took %d seeks, want %d", got, len(order))
	}
	if elapsed := d.Clock().Elapsed(); elapsed < time.Duration(len(order))*time.Millisecond {
		t.Errorf("virtual time %v too small for %d seeks", elapsed, len(order))
	}
}

func TestContiguousReadNoSeek(t *testing.T) {
	m := Model{SeekLatency: time.Millisecond}
	d := newTestDisk(t, m)
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	appendTo(t, f, bytes.Repeat([]byte("y"), 1000))
	d.ResetStats()

	buf := make([]byte, 100)
	for off := int64(0); off < 1000; off += 100 {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}
	// First read seeks (head was at end-of-append), the other 9 are contiguous.
	if got := d.Stats().Seeks; got != 1 {
		t.Errorf("contiguous scan took %d seeks, want 1", got)
	}
}

func TestListAndRemove(t *testing.T) {
	dir := t.TempDir()
	d, err := New(dir, Model{}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, name := range []string{"seg/000001", "seg/000002", "idx/cp1"} {
		f, err := d.Create(name)
		if err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		appendTo(t, f, []byte(name))
		f.Close()
	}
	names, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	if len(names) != 3 {
		t.Fatalf("disk holds %v, want 3 files", names)
	}
	if err := d.Remove("seg/000001"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if d.Exists("seg/000001") {
		t.Error("file still exists after Remove")
	}
	if !d.Exists("seg/000002") {
		t.Error("sibling file vanished")
	}
}

func TestStatsCounters(t *testing.T) {
	d := newTestDisk(t, Model{})
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	appendTo(t, f, make([]byte, 128))
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	st := d.Stats()
	if st.BytesWritten != 128 || st.WriteOps != 1 {
		t.Errorf("write stats = %+v", st)
	}
	if st.BytesRead != 64 || st.ReadOps != 1 {
		t.Errorf("read stats = %+v", st)
	}
}

func TestSharedClock(t *testing.T) {
	clock := &Clock{}
	m := Model{SeekLatency: time.Millisecond}
	dir := t.TempDir()
	d1, err := New(dir+"/d1", m, clock)
	if err != nil {
		t.Fatalf("New d1: %v", err)
	}
	d2, err := New(dir+"/d2", m, clock)
	if err != nil {
		t.Fatalf("New d2: %v", err)
	}
	for i, d := range []*Disk{d1, d2} {
		f, err := d.Create(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := f.WriteAt([]byte("z"), 100); err != nil { // non-zero offset forces a seek
			t.Fatalf("WriteAt: %v", err)
		}
		f.Close()
	}
	if clock.Elapsed() < 2*time.Millisecond {
		t.Errorf("shared clock %v, want >= 2ms", clock.Elapsed())
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newTestDisk(t, Model{SeekLatency: time.Microsecond})
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	appendTo(t, f, make([]byte, 4096))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < 100; i++ {
				if _, err := f.ReadAt(buf, int64((g*100+i)%4000)); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := d.Stats().ReadOps; got != 800 {
		t.Errorf("ReadOps = %d, want 800", got)
	}
}

// TestFileIOAllocBudget pins the per-I/O cost of the hot path: with a
// fault registry attached, WriteAt and ReadAt allocate nothing (the
// fault-point names are built once, in SetFaults).
func TestFileIOAllocBudget(t *testing.T) {
	d := newTestDisk(t, DefaultModel())
	d.SetFaults(fault.New(1), "disk.t")
	f, err := d.Create("f")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	buf := make([]byte, 320)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}); n > 0 {
		t.Errorf("WriteAt: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}); n > 0 {
		t.Errorf("ReadAt: %v allocs/op, want 0", n)
	}
}
