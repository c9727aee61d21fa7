package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
)

func TestScannerRecordLargerThanChunk(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 4 << 20})
	big := bytes.Repeat([]byte("B"), scanMaxRefill+1000) // exceeds read-ahead
	if _, err := l.Append(
		&Record{Kind: KindWrite, Key: []byte("small1"), Value: []byte("v")},
		&Record{Kind: KindWrite, Key: []byte("big"), Value: big},
		&Record{Kind: KindWrite, Key: []byte("small2"), Value: []byte("v")},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s := l.NewScanner(Position{})
	var keys []string
	for s.Next() {
		rec := s.View().Record()
		keys = append(keys, string(rec.Key))
		if string(rec.Key) == "big" && !bytes.Equal(rec.Value, big) {
			t.Error("oversized record corrupted by chunked scan")
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(keys) != 3 || keys[1] != "big" {
		t.Errorf("keys = %v", keys)
	}
}

func TestScannerManySmallSegments(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 200})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := l.Append(&Record{Kind: KindWrite, Key: []byte(fmt.Sprintf("%03d", i)), Value: make([]byte, 40)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if segs := len(l.Segments()); segs < 20 {
		t.Fatalf("only %d segments", segs)
	}
	s := l.NewScanner(Position{})
	count := 0
	for s.Next() {
		count++
	}
	if s.Err() != nil || count != n {
		t.Errorf("count=%d err=%v", count, s.Err())
	}
}

func TestBatcherStressWithRotation(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 2048})
	b := NewBatcher(l, 16, time.Millisecond)
	var wg sync.WaitGroup
	const writers, per = 12, 40
	ptrs := make(chan Ptr, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ps, err := b.Append(&Record{Kind: KindWrite, Key: []byte(fmt.Sprintf("w%02d-%03d", w, i)), Value: make([]byte, 64)})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				ptrs <- ps[0]
			}
		}(w)
	}
	wg.Wait()
	close(ptrs)
	seen := map[Ptr]bool{}
	for p := range ptrs {
		if seen[p] {
			t.Fatalf("duplicate ptr %v", p)
		}
		seen[p] = true
		if _, err := l.Read(p); err != nil {
			t.Fatalf("Read(%v): %v", p, err)
		}
	}
	if len(seen) != writers*per {
		t.Errorf("%d records, want %d", len(seen), writers*per)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindWrite: "write", KindDelete: "delete",
		KindCommit: "commit", KindCheckpoint: "checkpoint",
		Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestPtrString(t *testing.T) {
	p := Ptr{Seg: 3, Off: 42, Len: 7}
	if p.String() != "seg3@42+7" {
		t.Errorf("Ptr.String = %q", p.String())
	}
}

func TestAppendCoalescesIntoOneDFSWrite(t *testing.T) {
	l, fs := newTestLog(t, Options{})
	_ = fs
	recs := make([]*Record, 50)
	for i := range recs {
		recs[i] = &Record{Kind: KindWrite, Key: []byte{byte(i)}, Value: make([]byte, 100)}
	}
	// Count datanode write ops before/after: one batch append must not
	// issue one DFS write per record.
	before := fs.DataNode(0).Disk().Stats().WriteOps
	if _, err := l.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	after := fs.DataNode(0).Disk().Stats().WriteOps
	if ops := after - before; ops > 10 {
		t.Errorf("batch append issued %d write ops on one datanode; coalescing broken", ops)
	}
}

// Open checks the active segment's frames for a torn tail without
// copying a record out, so what it allocates does not grow with the
// number of records in that segment. One 1 MB DFS block holds either
// segment, so the DFS's per-block read bookkeeping stays out of the count.
func TestOpenAllocsIndependentOfRecordCount(t *testing.T) {
	opts := Options{SegmentSize: 64 << 20}
	openAllocs := func(records int) float64 {
		fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 20})
		if err != nil {
			t.Fatalf("dfs.New: %v", err)
		}
		l, err := Open(fs, "wal", opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		appendN(t, l, 0, records)
		return testing.AllocsPerRun(5, func() {
			if _, err := Open(fs, "wal", opts); err != nil {
				t.Fatalf("Open: %v", err)
			}
		})
	}
	small, large := openAllocs(1000), openAllocs(10000)
	t.Logf("Open allocs: %v at 1 K records, %v at 10 K", small, large)
	if large > 64 || large > small+32 {
		t.Fatalf("Open allocs: %v at 1 K records, %v at 10 K; want <= 64 at 10 K and <= the 1 K count + 32", small, large)
	}
}
