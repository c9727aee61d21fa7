package wal

import (
	"errors"
	"fmt"
	"testing"
)

// readTail reads fl until the tail is read through,
// returning the keys in order and the channel the next append closes.
func readTail(t *testing.T, fl *Follower) ([]string, <-chan struct{}) {
	t.Helper()
	var keys []string
	for {
		v, wait, err := fl.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if v == nil {
			return keys, wait
		}
		keys = append(keys, string(v.Key()))
	}
}

// A follower reads every appended frame in LSN order from its start,
// waits on a channel the next append closes, and reads on from there.
func TestFollowReadsAppendsInOrder(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(batchRec(fmt.Sprint("k", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	keys, wait := readTail(t, l.Follow(3))
	if fmt.Sprint(keys) != "[k2 k3 k4]" {
		t.Fatalf("from LSN 3: %v, want [k2 k3 k4]", keys)
	}
	fl := l.Follow(0)
	if keys, wait = readTail(t, fl); len(keys) != 5 {
		t.Fatalf("from LSN 0: %v, want 5 keys", keys)
	}
	select {
	case <-wait:
		t.Fatal("wait channel closed before an append")
	default:
	}
	if _, err := l.Append(batchRec("a"), batchRec("b")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	<-wait
	if keys, _ = readTail(t, fl); fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("after the wait: %v, want [a b]", keys)
	}
}

// An append that rotates mid-call keeps both of its batches intact: the
// frames after the rotation go to a fresh array, not over the kept one.
func TestFollowAcrossMidAppendRotation(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 10})
	// Fill the first segment up to room for one more frame (every LSN
	// here takes one varint byte, so every frame is the same size).
	fill := (1<<10-segHeaderSize)/FrameSize(batchRec("a00")) - 1
	for i := 0; i < fill; i++ {
		if _, err := l.Append(batchRec(fmt.Sprintf("a%02d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	recs := make([]*Record, 10)
	for i := range recs {
		recs[i] = batchRec(fmt.Sprintf("m%02d", i))
	}
	if _, err := l.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if n := len(l.Segments()); n != 2 {
		t.Fatalf("%d segments, want the append to rotate once", n)
	}
	keys, _ := readTail(t, l.Follow(uint64(fill+1)))
	if want := "[m00 m01 m02 m03 m04 m05 m06 m07 m08 m09]"; fmt.Sprint(keys) != want {
		t.Fatalf("tail from LSN %d: %v, want %s", fill+1, keys, want)
	}
}

// The tail holds at most SegmentSize bytes: a follower whose next record
// was evicted gets ErrFellOff, and PinRetained names where the tail
// starts now.
func TestFollowFallsOffBoundedTail(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 10})
	fl := l.Follow(1)
	for i := 0; i < 100; i++ {
		if _, err := l.Append(batchRec(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.tailSize > 1<<10 {
		t.Fatalf("tail holds %d bytes, want <= %d", l.tailSize, 1<<10)
	}
	if _, _, err := fl.Next(); !errors.Is(err, ErrFellOff) {
		t.Fatalf("Next on an evicted LSN: err = %v, want ErrFellOff", err)
	}
	sc, tail, next := l.PinRetained()
	defer sc.Close()
	if tail <= 1 || tail >= next || next != 101 {
		t.Fatalf("PinRetained = tail %d, next %d; want 1 < tail < next = 101", tail, next)
	}
	keys, _ := readTail(t, l.Follow(tail))
	if len(keys) != int(next-tail) {
		t.Fatalf("read %d frames from the tail's first LSN, want %d", len(keys), next-tail)
	}
}

// A follower racing concurrent appenders reads every LSN once and in
// order, waiting whenever it catches up. The tail holds all of them.
func TestFollowConcurrentAppends(t *testing.T) {
	l, _ := newTestLog(t, Options{SegmentSize: 1 << 20})
	const writers, per = 4, 300
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				_, err := l.Append(batchRec(fmt.Sprint(w, "-", i)), batchRec(fmt.Sprint(w, "+", i)))
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	fl := l.Follow(1)
	for want := uint64(1); want <= 2*writers*per; {
		v, wait, err := fl.Next()
		if err != nil {
			t.Fatalf("Next at LSN %d: %v", want, err)
		}
		if v == nil {
			<-wait
			continue
		}
		if v.LSN() != want {
			t.Fatalf("read LSN %d, want %d", v.LSN(), want)
		}
		want++
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}
