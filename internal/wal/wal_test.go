package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfs"
	"repro/internal/fault"
)

func newTestLog(t *testing.T, opts Options) (*Log, *dfs.DFS) {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	l, err := Open(fs, "wal", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, fs
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindWrite, LSN: 1, Table: "t", Tablet: "t/0", Group: "cg", Key: []byte("k"), TS: 42, Value: []byte("v"), TxnID: 9},
		{Kind: KindDelete, LSN: 2, Table: "t", Tablet: "t/0", Group: "cg", Key: []byte("gone"), TS: 43},
		{Kind: KindCommit, LSN: 3, TxnID: 9, TS: 44},
		{Kind: KindCheckpoint, LSN: 4, Table: "t"},
		{Kind: KindWrite, LSN: 5, Key: []byte{}, Value: []byte{}}, // empty but present
	}
	for i, want := range recs {
		frame := Encode(&want)
		got, n, err := Decode(frame)
		if err != nil {
			t.Fatalf("rec %d: Decode: %v", i, err)
		}
		if n != len(frame) {
			t.Errorf("rec %d: consumed %d of %d", i, n, len(frame))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rec %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDeleteValueIsNil(t *testing.T) {
	r := Record{Kind: KindDelete, Key: []byte("k"), Value: []byte("ignored")}
	got, _, err := Decode(Encode(&r))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Value != nil {
		t.Errorf("delete record kept value %q; invalidated entries must have null data", got.Value)
	}
}

func TestDecodeQuickRoundTrip(t *testing.T) {
	f := func(table, tablet, group string, key, value []byte, ts int64, txn uint64) bool {
		if len(table) > 1000 || len(tablet) > 1000 || len(group) > 1000 {
			return true
		}
		want := Record{Kind: KindWrite, Table: table, Tablet: tablet, Group: group,
			Key: key, TS: ts, Value: value, TxnID: txn}
		got, _, err := Decode(Encode(&want))
		if err != nil {
			return false
		}
		// nil/empty normalisation: encode preserves nil-ness only via presence flag.
		return got.Table == want.Table && got.Tablet == want.Tablet && got.Group == want.Group &&
			bytes.Equal(got.Key, want.Key) && bytes.Equal(got.Value, want.Value) &&
			got.TS == want.TS && got.TxnID == want.TxnID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorruption(t *testing.T) {
	r := Record{Kind: KindWrite, Key: []byte("k"), Value: []byte("v")}
	frame := Encode(&r)

	if _, _, err := Decode(frame[:3]); !errors.Is(err, ErrTorn) {
		t.Errorf("short header err = %v, want ErrTorn", err)
	}
	if _, _, err := Decode(frame[:len(frame)-1]); !errors.Is(err, ErrTorn) {
		t.Errorf("truncated payload err = %v, want ErrTorn", err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte err = %v, want ErrCorrupt", err)
	}
}

func TestAppendAssignsLSNsAndPtrs(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 20})
	var recs []*Record
	for i := 0; i < 10; i++ {
		recs = append(recs, &Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: []byte("v")})
	}
	ptrs, err := l.Append(recs...)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Errorf("rec %d LSN = %d, want %d", i, r.LSN, i+1)
		}
		got, err := l.Read(ptrs[i])
		if err != nil {
			t.Fatalf("Read %v: %v", ptrs[i], err)
		}
		if !bytes.Equal(got.Key, r.Key) || got.LSN != r.LSN {
			t.Errorf("rec %d read back %+v", i, got)
		}
	}
	if l.NextLSN() != 11 {
		t.Errorf("NextLSN = %d, want 11", l.NextLSN())
	}
}

func TestSegmentRotation(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 512})
	for i := 0; i < 50; i++ {
		if _, err := l.Append(&Record{Kind: KindWrite, Key: []byte(fmt.Sprintf("key-%03d", i)), Value: make([]byte, 100)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	segs := l.Segments()
	if len(segs) < 5 {
		t.Errorf("only %d segments after 50x~140B appends with 512B rotation", len(segs))
	}
	for _, s := range segs {
		if s.Size > 512+256 { // one record may straddle the threshold decision
			t.Errorf("segment %d size %d exceeds limit", s.Num, s.Size)
		}
		if s.Sorted {
			t.Errorf("append segment %d marked sorted", s.Num)
		}
	}
}

func TestScannerFullLog(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 300})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append(&Record{Kind: KindWrite, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("val")}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s := l.NewScanner(Position{})
	var got int
	for s.Next() {
		rec := s.View().Record()
		if rec.LSN != uint64(got+1) {
			t.Errorf("scan order broken: LSN %d at position %d", rec.LSN, got)
		}
		// Ptr must round-trip through Read.
		back, err := l.Read(s.Ptr())
		if err != nil {
			t.Fatalf("Read(%v): %v", s.Ptr(), err)
		}
		if back.LSN != rec.LSN {
			t.Errorf("ptr mismatch: %d vs %d", back.LSN, rec.LSN)
		}
		got++
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan error: %v", err)
	}
	if got != n {
		t.Errorf("scanned %d records, want %d", got, n)
	}
}

func TestScannerFromPosition(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 20})
	var ptrs []Ptr
	for i := 0; i < 20; i++ {
		p, err := l.Append(&Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: []byte("v")})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ptrs = append(ptrs, p[0])
	}
	mid := ptrs[10]
	s := l.NewScanner(Position{Seg: mid.Seg, Off: mid.Off})
	var lsns []uint64
	for s.Next() {
		lsns = append(lsns, s.View().Record().LSN)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(lsns) != 10 || lsns[0] != 11 {
		t.Errorf("tail scan got LSNs %v, want 11..20", lsns)
	}
}

func TestScannerStopsAtTornTail(t *testing.T) {
	l, fs := newTestLog(t, Options{SegmentSize: 1 << 20})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(&Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: []byte("v")}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Simulate a torn write: raw garbage shorter than a frame header's
	// promised length at the end of the current segment.
	segs := l.Segments()
	last := segs[len(segs)-1]
	data, err := fs.ReadFile(l.SegmentPath(last.Num))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Claims a 200-byte payload, provides 3.
	if err := fs.WriteFile(l.SegmentPath(last.Num), append(data, 200, 0, 0, 0, 1, 2, 3)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	l.mu.Lock()
	l.segs[last.Num].size += 7
	l.mu.Unlock()

	s := l.NewScanner(Position{})
	var n int
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatalf("torn tail must not error, got %v", err)
	}
	if n != 5 {
		t.Errorf("scanned %d records, want 5 (tail truncated)", n)
	}
}

func TestReopenDiscoversSegments(t *testing.T) {
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	l1, err := Open(fs, "wal", Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 20; i++ {
		l1.Append(&Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: make([]byte, 50)})
	}
	nSegs := len(l1.Segments())

	l2, err := Open(fs, "wal", Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(l2.Segments()) != nSegs {
		t.Errorf("reopen found %d segments, want %d", len(l2.Segments()), nSegs)
	}
	s := l2.NewScanner(Position{})
	var n int
	var maxLSN uint64
	for s.Next() {
		n++
		if s.View().Record().LSN > maxLSN {
			maxLSN = s.View().Record().LSN
		}
	}
	if n != 20 || maxLSN != 20 {
		t.Errorf("reopened scan: %d records, max LSN %d", n, maxLSN)
	}
	// New appends go to a fresh segment numbered after the old ones.
	l2.SetNextLSN(maxLSN + 1)
	ptrs, err := l2.Append(&Record{Kind: KindWrite, Key: []byte("new"), Value: []byte("v")})
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if ptrs[0].Seg <= l1.Segments()[nSegs-1].Num {
		t.Errorf("append reused old segment %d", ptrs[0].Seg)
	}
	rec, err := l2.Read(ptrs[0])
	if err != nil || rec.LSN != 21 {
		t.Errorf("post-reopen record = %+v err=%v, want LSN 21", rec, err)
	}
}

func TestSegmentWriterAndRemove(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 400})
	for i := 0; i < 20; i++ {
		l.Append(&Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: make([]byte, 60)})
	}
	oldSegs := l.Segments()

	// "Compaction": rewrite records 10..19 into sorted segments.
	sw := l.NewSegmentWriter()
	var newPtrs []Ptr
	s := l.NewScanner(Position{})
	for s.Next() {
		rec := s.View().Record()
		if rec.LSN > 10 {
			p, err := sw.Append(&rec)
			if err != nil {
				t.Fatalf("SegmentWriter.Append: %v", err)
			}
			newPtrs = append(newPtrs, p)
		}
	}
	sw.Close()
	var oldNums []uint32
	for _, si := range oldSegs {
		oldNums = append(oldNums, si.Num)
	}
	if err := l.RemoveSegments(false, oldNums...); err != nil {
		t.Fatalf("RemoveSegments: %v", err)
	}

	// The new sorted segments must be flagged and readable.
	segs := l.Segments()
	if len(segs) != len(sw.Segments()) {
		t.Fatalf("live segments %v, want %v", segs, sw.Segments())
	}
	for _, si := range segs {
		if !si.Sorted {
			t.Errorf("compacted segment %d not flagged sorted", si.Num)
		}
	}
	for _, p := range newPtrs {
		if _, err := l.Read(p); err != nil {
			t.Errorf("Read(%v) after install: %v", p, err)
		}
	}
	// Old pointers must now fail.
	if _, err := l.Read(Ptr{Seg: oldNums[0], Off: 8, Len: 16}); err == nil {
		t.Error("read of removed segment succeeded")
	}
}

func TestSortedFlagSurvivesReopen(t *testing.T) {
	fs, _ := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 4096})
	l1, _ := Open(fs, "wal", Options{})
	sw := l1.NewSegmentWriter()
	sw.Append(&Record{Kind: KindWrite, LSN: 1, Key: []byte("a"), Value: []byte("v")})
	sw.Close()

	l2, err := Open(fs, "wal", Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	segs := l2.Segments()
	if len(segs) != 1 || !segs[0].Sorted {
		t.Errorf("segments after reopen = %+v, want one sorted", segs)
	}
}

func TestBatcherGroupCommit(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 20})
	b := NewBatcher(l, 16, 2*time.Millisecond)

	const writers = 16
	var wg sync.WaitGroup
	lsns := make(chan uint64, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: []byte("v")}
			ptrs, err := b.Append(rec)
			if err != nil {
				t.Errorf("batched append: %v", err)
				return
			}
			got, err := l.Read(ptrs[0])
			if err != nil || !bytes.Equal(got.Key, rec.Key) {
				t.Errorf("read own write: %+v err=%v", got, err)
				return
			}
			lsns <- rec.LSN
		}(i)
	}
	wg.Wait()
	close(lsns)
	seen := map[uint64]bool{}
	for lsn := range lsns {
		if seen[lsn] {
			t.Errorf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if len(seen) != writers {
		t.Errorf("%d distinct LSNs, want %d", len(seen), writers)
	}
}

func TestBatcherMultiRecordAtomicOrder(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 8, time.Millisecond)
	recs := []*Record{
		{Kind: KindWrite, Key: []byte("a"), Value: []byte("1")},
		{Kind: KindWrite, Key: []byte("b"), Value: []byte("2")},
		{Kind: KindCommit, TxnID: 7},
	}
	ptrs, err := b.Append(recs...)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(ptrs) != 3 {
		t.Fatalf("got %d ptrs", len(ptrs))
	}
	// The group's records must be consecutive in LSN order.
	if recs[1].LSN != recs[0].LSN+1 || recs[2].LSN != recs[1].LSN+1 {
		t.Errorf("group not consecutive: %d %d %d", recs[0].LSN, recs[1].LSN, recs[2].LSN)
	}
}

func TestLogSizeAndEnd(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 20})
	if l.Size() != 0 {
		t.Errorf("empty log size = %d", l.Size())
	}
	l.Append(&Record{Kind: KindWrite, Key: []byte("k"), Value: []byte("v")})
	end := l.End()
	if end.Seg == 0 && end.Off == 0 {
		t.Error("End() still zero after append")
	}
	if l.Size() <= segHeaderSize {
		t.Errorf("size = %d, want > header", l.Size())
	}
}

func TestConcurrentAppendsDistinctPtrs(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 2048})
	var mu sync.Mutex
	all := map[Ptr]bool{}
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 10 + rng.Intn(100)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ptrs, err := l.Append(&Record{Kind: KindWrite, Key: []byte{byte(g), byte(i)}, Value: make([]byte, sizes[g])})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				if all[ptrs[0]] {
					t.Errorf("duplicate ptr %v", ptrs[0])
				}
				all[ptrs[0]] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	// Every pointer resolves to its record.
	for p := range all {
		if _, err := l.Read(p); err != nil {
			t.Errorf("Read(%v): %v", p, err)
		}
	}
}

// An atomic removal cut short by a crash is finished by the owner's next
// Open; a peer passes over the listed segments and touches nothing; a
// pinned segment keeps the intent alive until its deferred delete; a
// plain removal leaves no intent.
func TestRemovalIntent(t *testing.T) {
	reg := fault.New(1)
	l, fs := newTestLog(t, Options{Faults: reg})
	for i := 0; i < 7; i++ {
		l.Append(&Record{Kind: KindWrite, Key: []byte{byte(i)}})
		l.Rotate()
	}
	live := func(l *Log) (nums []uint32) {
		for _, si := range l.Segments() {
			nums = append(nums, si.Num)
		}
		return nums
	}
	intent := l.doomedPath()

	l.Pin(1)
	if err := l.RemoveSegments(true, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(intent) || !fs.Exists(l.SegmentPath(1)) || fs.Exists(l.SegmentPath(2)) {
		t.Fatal("want the pinned segment and the removal intent kept until the last Unpin, the other segment gone")
	}
	l.Unpin(1)
	if fs.Exists(intent) || fs.Exists(l.SegmentPath(1)) {
		t.Fatal("segment or removal intent still there after the deferred delete")
	}
	if err := l.RemoveSegments(false, 3, 4); err != nil || fs.Exists(intent) {
		t.Fatalf("plain removal: err %v, intent written %v", err, fs.Exists(intent))
	}

	reg.Arm("crash.compact.mid-remove", fault.Policy{Times: 1, Crash: true})
	if err := l.RemoveSegments(true, 5, 6); !fault.Crashed(err) {
		t.Fatalf("RemoveSegments err = %v, want crash", err)
	}
	if fs.Exists(l.SegmentPath(5)) || !fs.Exists(l.SegmentPath(6)) {
		t.Fatal("crash did not land between the two deletes")
	}

	peer, err := Open(fs, "wal", Options{Peer: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := live(peer); !reflect.DeepEqual(got, []uint32{7}) {
		t.Fatalf("peer sees segments %v, want [7]", got)
	}
	if !fs.Exists(intent) || !fs.Exists(l.SegmentPath(6)) {
		t.Fatal("peer open changed the owner's log")
	}
	owner, err := Open(fs, "wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := live(owner); !reflect.DeepEqual(got, []uint32{7}) {
		t.Fatalf("owner sees segments %v, want [7]", got)
	}
	if fs.Exists(intent) || fs.Exists(l.SegmentPath(6)) {
		t.Fatal("owner open left the removal unfinished")
	}
}

// TestOpenRefusesVersion1Segment: a segment written in format version 1
// (fixed-width frame fields) is refused by Open with an error naming
// its version, not misread as version-2 frames.
func TestOpenRefusesVersion1Segment(t *testing.T) {
	l, fs := newTestLog(t, Options{})
	appendN(t, l, 0, 3)
	w, err := fs.Create(l.SegmentPath(9))
	if err != nil {
		t.Fatal(err)
	}
	v1 := []byte{'L', 'B', 'S', 'E', 'G', 1, 0, 0}
	if _, err := w.Write(append(v1, 20, 0, 0, 0, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	_, err = Open(fs, "wal", Options{})
	if !errors.Is(err, errSegVersion) || !strings.Contains(err.Error(), "version 1 ") {
		t.Fatalf("Open over a version-1 segment: err = %v, want a format version error naming version 1", err)
	}
}
