package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestScannerRecordLargerThanChunk(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 4 << 20})
	big := bytes.Repeat([]byte("B"), scanChunkSize+1000) // exceeds read-ahead
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
		rec := s.Record()
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

func TestPositionLessAndPtrString(t *testing.T) {
	a := Position{Seg: 1, Off: 100}
	b := Position{Seg: 1, Off: 200}
	c := Position{Seg: 2, Off: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("Position.Less ordering broken")
	}
	p := Ptr{Seg: 3, Off: 42, Len: 7}
	if p.String() != "seg3@42+7" {
		t.Errorf("Ptr.String = %q", p.String())
	}
	if p.Zero() || (Ptr{}).Zero() == false {
		t.Error("Ptr.Zero broken")
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
