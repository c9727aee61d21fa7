package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func batchRec(key string) *Record {
	return &Record{Kind: KindWrite, Key: []byte(key), Value: []byte("v")}
}

// queueBehindHeldFlush starts a leader whose flush is held on the log
// lock, enqueues one follower per group in order (each confirmed queued
// under b.mu before the next starts), then releases the leader. It
// returns the records of every later Log.Append that succeeded, read
// from the in-memory tail, and each group's Append error; a group's
// returned Ptrs are checked to read back its own records.
func queueBehindHeldFlush(t *testing.T, l *Log, b *Batcher, groups ...[]*Record) (flushes [][]Record, errs []error) {
	t.Helper()
	l.mu.Lock()
	held := true
	defer func() {
		if held {
			l.mu.Unlock()
		}
	}()
	leaderLSN := l.nextLSN
	errs = make([]error, len(groups))
	var wg sync.WaitGroup
	appendAsync := func(recs []*Record, errp *error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ptrs, err := b.Append(recs...)
			if *errp = err; err != nil {
				return
			}
			for i, p := range ptrs {
				if got, err := l.Read(p); err != nil || !bytes.Equal(got.Key, recs[i].Key) {
					t.Errorf("ptr %v reads %q (err %v), want %q", p, got.Key, err, recs[i].Key)
				}
			}
		}()
	}
	var leaderErr error
	appendAsync([]*Record{batchRec("leader")}, &leaderErr)
	for took := false; !took; { // the leader took its entry and waits on the log
		runtime.Gosched()
		b.mu.Lock()
		took = b.flushing && len(b.queue) == 0
		b.mu.Unlock()
	}
	for i, g := range groups {
		appendAsync(g, &errs[i])
		for queued := 0; queued <= i; {
			runtime.Gosched()
			b.mu.Lock()
			queued = len(b.queue)
			b.mu.Unlock()
		}
	}
	held = false
	l.mu.Unlock()
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader Append: %v", leaderErr)
	}
	for _, tb := range l.tail {
		if tb.first == leaderLSN {
			continue
		}
		var flush []Record
		for buf := tb.buf; len(buf) > 0; {
			rec, n, err := Decode(buf)
			if err != nil {
				t.Fatalf("tail batch at LSN %d: %v", tb.first, err)
			}
			flush, buf = append(flush, rec), buf[n:]
		}
		flushes = append(flushes, flush)
	}
	return flushes, errs
}

// A lone appender leads its own flush at once, however long maxDelay
// is: nothing waits for followers that are not coming. A burst of
// concurrent appenders (the old full-batch early release) finishes
// just as fast. The deadline makes a waiting batcher fail, not hang.
func TestBatcherLoneAppenderDoesNotWait(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 64, 5*time.Second)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := b.Append(batchRec(fmt.Sprint(i))); err != nil {
				done <- err
				return
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := b.Append(batchRec(fmt.Sprint("burst", i))); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		done <- <-errs
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("100 sequential appends and a burst of 4 took over 1s: appenders waited for followers")
	}
}

// Followers that queue behind a flush in progress go out together in
// exactly one more Log.Append, in enqueue order, with consecutive LSNs.
func TestBatcherFollowersCoalesce(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 64, 0)
	const n = 8
	groups := make([][]*Record, n)
	for i := range groups {
		groups[i] = []*Record{batchRec(fmt.Sprint("f", i))}
	}
	flushes, errs := queueBehindHeldFlush(t, l, b, groups...)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("follower Append: %v", err)
	}
	if len(flushes) != 1 || len(flushes[0]) != n {
		t.Fatalf("followers flushed as %d appends (%v), want one of %d records", len(flushes), flushes, n)
	}
	for i, r := range flushes[0] {
		if want := fmt.Sprint("f", i); string(r.Key) != want {
			t.Errorf("record %d is %q, want %q (enqueue order)", i, r.Key, want)
		}
		if r.LSN != flushes[0][0].LSN+uint64(i) {
			t.Errorf("record %d LSN %d, want %d (consecutive)", i, r.LSN, flushes[0][0].LSN+uint64(i))
		}
	}
}

// A leader takes at most maxBatch records; an entry larger than that
// goes alone, and the entries behind it lead their own batch.
func TestBatcherMaxBatchCap(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 4, 0)
	var groups [][]*Record
	for i, size := range []int{1, 1, 1, 1, 1, 6, 1, 1} {
		g := make([]*Record, size)
		for j := range g {
			g[j] = batchRec(fmt.Sprint(i, "-", j))
		}
		groups = append(groups, g)
	}
	flushes, errs := queueBehindHeldFlush(t, l, b, groups...)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("follower Append: %v", err)
	}
	var sizes []int
	for _, f := range flushes {
		sizes = append(sizes, len(f))
	}
	if want := []int{4, 1, 6, 2}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("flush sizes %v, want %v", sizes, want)
	}
}

// A failed log write fails every entry of its batch with the one error,
// and the next batch succeeds.
func TestBatcherBatchSharesOneError(t *testing.T) {
	l, _, reg, _ := newFaultLog(t, 1)
	b := NewBatcher(l, 64, 0)
	boom := errors.New("boom")
	// The held leader's write is hit 1; the followers' batch is hit 2.
	reg.Arm("wal.append", fault.Policy{After: 1, Times: 1, Err: boom})
	groups := [][]*Record{{batchRec("a")}, {batchRec("b"), batchRec("c")}, {batchRec("d")}}
	flushes, errs := queueBehindHeldFlush(t, l, b, groups...)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("entry %d err = %v, want %v", i, err, boom)
		}
	}
	if len(flushes) != 0 || reg.Hits("wal.append") != 2 {
		t.Fatalf("failed batch: %d successful flushes, %d writes; want 0 and 2", len(flushes), reg.Hits("wal.append"))
	}
	ps, err := b.Append(batchRec("after"))
	if err != nil {
		t.Fatalf("Append after failed batch: %v", err)
	}
	if rec, err := l.Read(ps[0]); err != nil || string(rec.Key) != "after" {
		t.Fatalf("next batch unreadable: %+v err=%v", rec, err)
	}
}

// Close leaves no goroutine behind (the batcher owns none) and loses no
// append that raced with it; appends after Close stay durable.
func TestBatcherCloseFlushesAndDegradesToDirect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 8, time.Millisecond)

	var wg sync.WaitGroup
	const writers, per = 8, 50
	ptrs := make(chan Ptr, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ps, err := b.Append(&Record{Kind: KindWrite, Key: []byte{byte(w), byte(i)}, Value: []byte("v")})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				ptrs <- ps[0]
			}
		}(w)
	}
	// Close while appenders are still running: racing appends are
	// never lost, never stuck.
	b.Close()
	wg.Wait()
	// Exited appenders may still count for a moment after wg.Done.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
	close(ptrs)
	n := 0
	for p := range ptrs {
		if _, err := l.Read(p); err != nil {
			t.Fatalf("Read(%v): %v", p, err)
		}
		n++
	}
	if n != writers*per {
		t.Fatalf("returned %d ptrs, want %d", n, writers*per)
	}

	// Idempotent Close; appends after Close remain durable.
	b.Close()
	ps, err := b.Append(&Record{Kind: KindWrite, Key: []byte("late"), Value: []byte("v")})
	if err != nil {
		t.Fatalf("Append after Close: %v", err)
	}
	if rec, err := l.Read(ps[0]); err != nil || string(rec.Key) != "late" {
		t.Fatalf("post-Close append unreadable: %+v err=%v", rec, err)
	}
}

// A degenerate batcher (maxBatch 1) appends directly; Close must still
// be safe.
func TestBatcherDegenerateClose(t *testing.T) {
	l, _ := newTestLog(t, Options{})
	b := NewBatcher(l, 1, time.Millisecond)
	if _, err := b.Append(&Record{Kind: KindWrite, Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	b.Close()
	b.Close()
}
