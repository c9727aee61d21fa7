package core

// This file is the snapshot-parallel scan path: the read primitive
// under Store.Scan and internal/query. A scan pins a snapshot timestamp,
// shards the index keyspace across worker goroutines, pushes key/time
// predicates down to the index entries (skipping the log fetch entirely
// for filtered-out rows), and resolves the surviving entries through
// the read buffer plus batched log reads (wal.Log.ReadValues) so a scan
// costs a few sequential sweeps per segment instead of one seek per
// row. scanShard's page loop is the only forward-scan loop: on a
// compacted log the same loop reads the rows that live in sorted
// segments through forward segment readers (clustered.go). readEntry
// and fetchRows, at the bottom, are the only code that turns index
// entries into rows: point reads, version histories and
// secondary-index reads resolve through them too. fetchRows works on
// views of the log frames: it evaluates the value predicate on the view
// and copies a row's value only when the row is returned.
//
// Every scan takes a context.Context and honours cancellation at batch
// granularity: between index pages, before each log fetch, and in every
// worker goroutine — so an abandoned analytical scan stops doing I/O
// within one batch boundary and leaks nothing.

import (
	"bytes"
	"context"
	"errors"
	"sync"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/readopt"
	"repro/internal/wal"
)

// ScanOptions configures a snapshot scan. The zero value scans the
// whole keyspace at timestamp 0 (i.e. sees nothing); callers must pin
// TS to a real snapshot (coord.Service.LastTimestamp, or a historical
// timestamp for time travel).
type ScanOptions struct {
	// Start and End bound the key range [Start, End); nil = open.
	Start, End []byte
	// TS is the pinned snapshot timestamp: only versions with commit
	// timestamp <= TS are visible.
	TS int64
	// MinTS / MaxTS, when non-zero, restrict results to rows whose
	// visible version was committed inside [MinTS, MaxTS] — the "what
	// changed in this window" time-range predicate. Evaluated on index
	// entries, before any log fetch.
	MinTS, MaxTS int64
	// KeyPred is the serializable key predicate (readopt wire shape):
	// decided from the index entry alone, so rejected rows cost no log
	// I/O.
	KeyPred *readopt.Predicate
	// ValuePred is the serializable value predicate, evaluated on the
	// checked log frame as the row is fetched, before its value is
	// copied: a rejected row costs its share of the log read but no
	// copy, and never reaches the wire.
	ValuePred *readopt.Predicate
	// Limit caps the rows emitted (after all filtering); 0 = no limit.
	// Once the limit is reached the scan stops issuing log reads: with
	// no residual value predicate, index pages are capped at the rows
	// still owed, so a limited scan over a huge range costs Limit log
	// reads, not a range's worth.
	Limit int
	// Reverse emits rows in descending key order via the index's
	// descending traversal. Reverse scans are serial (Workers is
	// ignored) so the stream order is the contract.
	Reverse bool
	// Workers caps scan parallelism; <= 1 means a serial scan. Ignored
	// (forced serial) when Limit or Reverse is set: both are
	// order-and-count contracts that sharding would break.
	Workers int
	// Batch is the fetch/emit granularity in rows (0 = 1024).
	Batch int
	// UseCache lets the scan consult the point-read buffer before the
	// log. Off by default: the buffer is guarded by one mutex (a scan
	// would serialise on it and evict the OLTP working set's recency),
	// and batched log reads are already sequential — scans are
	// cache-resistant unless the caller knows its range is hot.
	UseCache bool
}

// ReadScanOptions compiles the wire-level push-down options into engine
// ScanOptions for [start, end): the prefix is intersected into the
// bounds and every serializable predicate is carried through for
// server-side evaluation. ts is the resolved snapshot timestamp
// (callers translate Snapshot==0 into "latest" before this point).
func ReadScanOptions(start, end []byte, ts int64, ro readopt.Options) ScanOptions {
	start, end = ro.ClampRange(start, end)
	return ScanOptions{
		Start: start, End: end, TS: ts,
		MinTS: ro.MinTS, MaxTS: ro.MaxTS,
		KeyPred: ro.Key, ValuePred: ro.Value,
		Limit: ro.Limit, Reverse: ro.Reverse,
		Batch: ro.BatchSize, Workers: 1,
	}
}

const defaultScanBatch = 1024

// ParallelScan streams the snapshot-visible version of every key in
// [opt.Start, opt.End) to emit, sharding the keyspace across
// opt.Workers goroutines. emit receives batches of rows; calls are
// serialised (no caller-side locking needed). With Workers <= 1 (or a
// Limit or Reverse, which force it) the scan is serial and rows arrive
// in key order (descending for Reverse); with more workers batch order
// across shards is unspecified, which aggregation does not need. A
// non-nil error from emit cancels the whole scan and is returned — a
// consumer that wants to stop early returns a sentinel error.
// Cancelling ctx aborts the scan within one batch boundary: every
// worker checks the context between index pages, and ctx.Err() is
// returned.
//
// Layering note: the multi-worker path here is the engine's only
// keyspace-shard fan-out. The query executor's partial strategy
// (query.FoldScan) aggregates inside emit: the shards' index walks and
// log fetches run in parallel, the cheap per-row fold is serialised.
func (s *Server) ParallelScan(ctx context.Context, tabletID, group string, opt ScanOptions, emit func([]Row) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer s.obs.since(s.obs.scan, s.obs.start())
	ctx, sp := obs.StartSpan(ctx, "tablet.scan")
	sp.Label("server", s.id)
	sp.Label("tablet", tabletID)
	defer sp.Finish()
	t, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return err
	}
	// Hold the scan's segment snapshot: entries collected from the index
	// carry wal.Ptrs that a racing compaction would otherwise delete the
	// files behind before the batched fetch runs.
	pinned := s.log.PinAll()
	defer s.log.Unpin(pinned...)
	workers := opt.Workers
	if opt.Limit > 0 || opt.Reverse {
		// Limit and Reverse are order/count contracts: a sharded scan
		// would interleave shards (breaking order) and over-fetch
		// (breaking the limit's I/O bound), so both run serial.
		workers = 1
	}
	if workers <= 1 {
		return s.scanShard(ctx, t, g, group, opt, opt.Start, opt.End, emit)
	}

	// Shard the keyspace on sampled index leaf boundaries; splits are a
	// point-in-time sample, which is fine — every shard still scans its
	// whole sub-range at the pinned snapshot.
	splits := g.tree().SplitKeys(opt.Start, opt.End, workers)
	bounds := make([][]byte, 0, len(splits)+2)
	bounds = append(bounds, opt.Start)
	bounds = append(bounds, splits...)
	bounds = append(bounds, opt.End)

	var (
		emitMu  sync.Mutex
		stop    sync.Once
		scanErr error
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		stop.Do(func() {
			scanErr = err
			close(done)
		})
	}
	serialEmit := func(rows []Row) error {
		emitMu.Lock()
		defer emitMu.Unlock()
		select {
		case <-done:
			return errScanCanceled
		default:
		}
		if err := emit(rows); err != nil {
			fail(err)
			return err
		}
		return nil
	}
	for i := 0; i+1 < len(bounds); i++ {
		start, end := bounds[i], bounds[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.scanShard(ctx, t, g, group, opt, start, end, serialEmit); err != nil && !errors.Is(err, errScanCanceled) {
				fail(err)
			}
		}()
	}
	wg.Wait()
	return scanErr
}

var errScanCanceled = errors.New("core: scan canceled")

// scanShard scans one contiguous key sub-range in pages of opt.Batch
// entries: each page is collected from the index (with predicates
// pushed down), the tree latch is released, the page is fetched and
// emitted, and the scan re-descends at the successor of the last key
// (or, for reverse scans, just below it). Memory stays O(Batch)
// regardless of range size, and the log I/O never happens under the
// index latch. The context is checked before each page's index walk and
// again before its fetch, bounding post-cancellation work to a single
// batch.
//
// The walk gives each key's visible version, so it is the scan's only
// MVCC check. When sorted segments cover the range (a forward scan on a
// compacted log), entries pointing into them are read through one
// forward reader per segment (sortedWindows); the rest are batch-read.
//
// A Limit both truncates the emitted stream and bounds the I/O: when no
// value predicate is in play, index pages are capped at the rows
// still owed, so the scan performs at most Limit log reads; with a
// residual value predicate the scan keeps paging but stops the moment
// the limit-th surviving row has been emitted.
func (s *Server) scanShard(ctx context.Context, t *Tablet, g *columnGroup, group string, opt ScanOptions, start, end []byte, emit func([]Row) error) error {
	if opt.Batch <= 0 {
		opt.Batch = defaultScanBatch
	}
	wins := s.sortedWindows(t, group, start, end, opt.Reverse)
	defer wins.close(s)
	remaining := opt.Limit // 0 = unlimited
	// Sized by the first page's goal, which no later page exceeds: a
	// LIMIT-50 scan holds 50 entries, not a full batch.
	entries := make([]index.Entry, 0, opt.pageGoal(remaining))
	cursor := start
	revCursor := end
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		goal := opt.pageGoal(remaining)
		entries = entries[:0]
		collect := func(e index.Entry) bool {
			// Push-down predicates: decided from the index entry alone, so
			// a rejected row costs zero log I/O (and no page slot).
			if !opt.admits(e.Key, e.TS) {
				return true
			}
			entries = append(entries, e)
			return len(entries) < goal
		}
		if opt.Reverse {
			g.tree().RangeLatestRev(cursor, revCursor, opt.TS, collect)
		} else {
			g.tree().RangeLatest(cursor, end, opt.TS, collect)
		}
		if len(entries) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			rows, err := s.fetchRows(ctx, t, g, group, entries, opt.UseCache, opt.ValuePred, wins)
			if err != nil {
				return err
			}
			n, err := emitPage(t, &opt, remaining, rows, emit)
			if err != nil {
				return err
			}
			if opt.Limit > 0 {
				if remaining -= n; remaining <= 0 {
					return nil // limit satisfied: no further index or log reads
				}
			}
		}
		if len(entries) < goal {
			return nil // range exhausted
		}
		last := entries[len(entries)-1].Key
		if opt.Reverse {
			// Keys arrive strictly descending (one entry per key), so the
			// last key itself is the next page's exclusive upper bound.
			revCursor = append(make([]byte, 0, len(last)), last...)
		} else {
			// Page full: resume just past the last delivered key (RangeLatest
			// reports one entry per key, so the successor cannot skip data).
			cursor = append(append(make([]byte, 0, len(last)+1), last...), 0)
		}
	}
}

// admits reports whether a version passes the push-down predicates
// (time window and key predicate): decided from the index entry alone,
// before any log read.
func (opt *ScanOptions) admits(key []byte, ts int64) bool {
	return (opt.MinTS == 0 || ts >= opt.MinTS) && (opt.MaxTS == 0 || ts <= opt.MaxTS) && opt.KeyPred.Match(key)
}

// pageGoal is how many entries the next page asks for: a full batch,
// or — with a Limit and no value predicate, so that every
// accepted row is emitted — only the rows still owed.
func (opt *ScanOptions) pageGoal(remaining int) int {
	if opt.Limit > 0 && opt.ValuePred == nil && remaining < opt.Batch {
		return remaining
	}
	return opt.Batch
}

// emitPage is the tail every scan page shares, however its rows were
// resolved (fetchRows has already applied the value predicate): the
// limit (remaining rows still owed), load accounting for the elasticity
// balancer, then emit. It returns how many rows it emitted.
func emitPage(t *Tablet, opt *ScanOptions, remaining int, rows []Row, emit func([]Row) error) (int, error) {
	if opt.Limit > 0 && len(rows) > remaining {
		rows = rows[:remaining]
	}
	if len(rows) == 0 {
		return 0, nil
	}
	var bytesOut int64
	for _, r := range rows {
		bytesOut += int64(len(r.Value))
	}
	t.load.add(int64(len(rows)), bytesOut)
	return len(rows), emit(rows)
}

// errRowVanished marks a row whose entry disappeared between
// collection and fetch (deleted mid-scan): the row is dropped, exactly
// as if the scan had observed the delete at collection time.
var errRowVanished = errors.New("core: row vanished mid-scan")

// readEntry reads a collected entry's record, re-resolving through the
// live index when the read fails: a scan pins the segments live at its
// start, but an entry can point into a segment that was BOTH created
// and reclaimed while the scan ran (back-to-back incremental
// compactions); the index always knows the record's current home.
func (s *Server) readEntry(g *columnGroup, key []byte, ts int64, ptr wal.Ptr) (wal.Record, error) {
	rec, err := s.log.Read(ptr)
	for attempt := 0; err != nil && attempt < 3; attempt++ {
		e, ok := g.tree().Get(key, ts)
		if !ok {
			return wal.Record{}, errRowVanished
		}
		rec, err = s.log.Read(e.Ptr)
	}
	return rec, err
}

// Value arena chunk sizes: a page's first chunk is 4 KB and each later
// one doubles, up to 32 KB; a larger value gets its own allocation.
const (
	arenaFirstChunk = 4 << 10
	arenaMaxChunk   = 32 << 10
)

// valueArena copies one page's returned values into shared chunks, so a
// page of small rows costs a few allocations rather than one per row.
// It is fresh per page and never pooled: the rows escape to the caller,
// and a retained value keeps its chunk alive.
type valueArena struct{ chunk []byte }

// copy returns an owned copy of v with bytes.Clone's contract (nil for
// nil, non-nil for empty), its capacity cut at its length so that an
// append to one row reallocates instead of overwriting the next.
func (a *valueArena) copy(v []byte) []byte {
	switch {
	case v == nil:
		return nil
	case len(v) == 0:
		return []byte{}
	case len(v) > arenaMaxChunk:
		return bytes.Clone(v)
	case len(v) > cap(a.chunk)-len(a.chunk):
		a.chunk = make([]byte, 0, max(min(2*cap(a.chunk), arenaMaxChunk), arenaFirstChunk, len(v)))
	}
	n := len(a.chunk)
	a.chunk = append(a.chunk, v...)
	return a.chunk[n:len(a.chunk):len(a.chunk)]
}

// fetchRows resolves index entries to rows, in entry order. Every path
// hands it a view of the row's value, and it evaluates pred (the value
// predicate, nil = keep all) on that view: a rejected row is dropped
// having copied nothing, and a kept row's value is copied once, into the
// page's valueArena. The paths, in order: a clustered scan's
// sorted-segment readers (wins, else nil) take the entries they can
// reach; with useCache the read buffer is consulted next (worth it only
// for small scans over hot ranges; see ScanOptions.UseCache); the rest
// go through one batched log read (wal.ReadValues), which sorts the
// pointers by log offset and coalesces near-adjacent frames, turning
// random per-row seeks into sequential sweeps. Entries whose records
// moved (or vanished) under a racing compaction are re-resolved per row
// through readEntry; vanished rows are dropped.
func (s *Server) fetchRows(ctx context.Context, t *Tablet, g *columnGroup, group string, entries []index.Entry, useCache bool, pred *readopt.Predicate, wins *segWindows) ([]Row, error) {
	rows := make([]Row, len(entries))
	kept := make([]bool, len(entries))
	var arena valueArena
	take := func(i int, v []byte) {
		if kept[i] = pred.Match(v); kept[i] {
			rows[i] = Row{Key: entries[i].Key, TS: entries[i].TS, Value: arena.copy(v)}
		}
	}
	missIdx := make([]int, 0, len(entries))
	missPtrs := make([]wal.Ptr, 0, len(entries))
	var cacheHits, windowed int64
	for i, e := range entries {
		v, ok, err := wins.at(e.Ptr)
		if err != nil {
			return nil, err
		}
		if ok {
			take(i, v)
			windowed++
			continue
		}
		if useCache {
			if b, ok := s.readCache.Get(cacheKey(t.table, group, e.Key)); ok {
				if cts, v := decodeCached(b); cts == e.TS {
					take(i, v)
					cacheHits++
					continue
				}
			}
		}
		missIdx = append(missIdx, i)
		missPtrs = append(missPtrs, e.Ptr)
	}
	if cacheHits > 0 {
		s.stats.CacheHits.Add(cacheHits)
	}
	if windowed > 0 {
		s.stats.LogReads.Add(windowed)
	}
	if len(missPtrs) > 0 {
		_, sp := obs.StartSpan(ctx, "wal.readbatch")
		sp.LabelInt("entries", int64(len(missPtrs)))
		sp.LabelInt("cache_hits", cacheHits)
		defer sp.Finish()
		if err := s.log.ReadValues(missPtrs, func(j int, v []byte) { take(missIdx[j], v) }); err != nil {
			// The batch hit a reclaimed segment; salvage row by row,
			// deciding each row afresh (the batch may have taken some).
			for _, i := range missIdx {
				e := entries[i]
				rec, rerr := s.readEntry(g, e.Key, e.TS, e.Ptr)
				if errors.Is(rerr, errRowVanished) {
					kept[i] = false
					continue
				}
				if rerr != nil {
					return nil, rerr
				}
				take(i, rec.Value)
			}
		}
		s.stats.LogReads.Add(int64(len(missPtrs)))
	}
	out := rows[:0]
	for i := range rows {
		if kept[i] {
			out = append(out, rows[i])
		}
	}
	return out, nil
}
