package wal

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Batcher implements group commit (paper §3.7.2): concurrent appenders
// are coalesced into one log write to amortise the persistence cost.
// Every Append call still blocks until its records are durable.
//
// It is leader/follower group commit with no goroutine and no timer of
// its own. An appender that finds no flush in flight leads at once: it
// takes the queue head up to maxBatch records, writes them with one
// Log.Append on its own goroutine, answers every follower and passes
// the lead to the next queued entry. An appender that arrives during a
// flush queues and waits until a leader answers or promotes it. A lone
// appender never waits; a follower waits for the flush in progress plus
// its own (more, only when over maxBatch records are queued ahead).
type Batcher struct {
	log *Log
	// maxBatch is the largest number of records coalesced into one log
	// write; an entry larger than that is flushed alone.
	maxBatch int

	mu       sync.Mutex
	queue    []*batchEntry // waiting appenders, in arrival order
	flushing bool          // a leader holds the lead; queue non-empty implies true

	// flushDur / flushRecords, when set via SetMetrics, record each
	// leader's Log.Append latency and coalesced record count.
	flushDur     *obs.Histogram
	flushRecords *obs.Histogram
}

// batchEntry is one Append call. A follower's wake is signalled exactly
// once: after ptrs/err are set (answered) or after lead is set
// (promoted).
type batchEntry struct {
	recs []*Record
	ptrs []Ptr
	err  error
	lead bool
	wake chan struct{}
}

// NewBatcher wraps log with group commit. maxBatch <= 0 means 64
// records; maxBatch 1 degenerates to direct appends. maxDelay is
// ignored: a leader flushes as soon as it leads, and followers coalesce
// only while a flush is already in flight, so there is no window to
// wait out. The parameter stays so existing callers keep compiling.
func NewBatcher(log *Log, maxBatch int, maxDelay time.Duration) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &Batcher{log: log, maxBatch: maxBatch}
}

// SetMetrics wires flush instrumentation. Call before the first
// Append: leaders read these fields after taking b.mu, which orders
// the read after any Append that follows this call.
func (b *Batcher) SetMetrics(flushDur, flushRecords *obs.Histogram) {
	b.flushDur = flushDur
	b.flushRecords = flushRecords
}

// Append durably appends recs (as one atomic group within the batch)
// and returns their pointers.
func (b *Batcher) Append(recs ...*Record) ([]Ptr, error) {
	if b.maxBatch <= 1 {
		return b.log.Append(recs...)
	}
	e := &batchEntry{recs: recs}
	b.mu.Lock()
	b.queue = append(b.queue, e)
	if b.flushing {
		e.wake = make(chan struct{}, 1)
		b.mu.Unlock()
		<-e.wake
		if !e.lead {
			return e.ptrs, e.err
		}
	} else {
		b.flushing = true
		b.mu.Unlock()
	}
	b.lead()
	return e.ptrs, e.err
}

// lead runs one group commit for the queue head, which is the caller:
// it takes up to maxBatch records, appends them outside the mutex,
// answers the followers and then promotes the next queued entry or
// clears flushing.
func (b *Batcher) lead() {
	b.mu.Lock()
	n, count := 1, len(b.queue[0].recs)
	for n < len(b.queue) && count+len(b.queue[n].recs) <= b.maxBatch {
		count += len(b.queue[n].recs)
		n++
	}
	// Full slice expression: later arrivals append past batch, never into it.
	batch := b.queue[:n:n]
	b.queue = b.queue[n:]
	b.mu.Unlock()

	b.flush(batch, count)
	for _, e := range batch[1:] {
		e.wake <- struct{}{}
	}

	b.mu.Lock()
	if len(b.queue) > 0 {
		b.queue[0].lead = true
		b.queue[0].wake <- struct{}{}
	} else {
		b.flushing = false
	}
	b.mu.Unlock()
}

// flush appends every entry's records as one log write and sets each
// entry's pointers, or the one error the whole batch shares.
func (b *Batcher) flush(batch []*batchEntry, count int) {
	recs := batch[0].recs
	if len(batch) > 1 {
		recs = make([]*Record, 0, count)
		for _, e := range batch {
			recs = append(recs, e.recs...)
		}
	}
	var t0 time.Time
	if b.flushDur != nil {
		t0 = time.Now()
	}
	ptrs, err := b.log.Append(recs...)
	if b.flushDur != nil {
		b.flushDur.Observe(time.Since(t0))
		b.flushRecords.ObserveValue(int64(len(recs)))
	}
	off := 0
	for _, e := range batch {
		if e.err = err; err == nil {
			e.ptrs = ptrs[off : off+len(e.recs)]
		}
		off += len(e.recs)
	}
}

// Close is a no-op kept for callers that pair it with NewBatcher: the
// batcher owns no goroutine, appends in flight finish on their own
// goroutines, and an append after Close is led by its own caller into
// Log.Append, as durable as before. Idempotent.
func (b *Batcher) Close() {}
