package core

// The record-apply path: the one place a committed log record becomes
// in-memory state, for live writes, commits, restart redo, migration and
// failover replay and replica apply alike (README "Apply path"):
// resolve, stage/install, and ReplaySession.round with its redo and
// re-append sinks. The re-append sink (CatchUp) buffers what a round
// emits and reappend lands it a batch at a time: one latch hold and one
// log append per batch. Compaction moves records without applying them:
// it asks the index which are live and repoints the entries.
//
// Delete ordering. A tombstone removes exactly the versions of its key
// that reached this log before it and do not carry a later timestamp
// (index.Covers). That is what install does with an index that keeps no
// tombstones: it can only remove what is there when the tombstone
// arrives, and it spares what orders after it. Every replay reproduces
// that outcome, not a stricter order, or an acknowledged write that came
// in late under an older timestamp would vanish on restart. Compaction
// relocates records under their original LSNs, so a scan can meet a
// write after the tombstone that removed it, or a tombstone after a
// write that arrived later: round therefore resolves each key's
// tombstones before it applies anything, drops the writes they cover,
// and hands a tombstone to the sink ahead of every write that followed
// it (the re-append sink assigns fresh LSNs in that order).
//
// Read buffer. GetAt trusts a cached entry to be the key's newest
// version, and only a point read adds a row. install refreshes a row
// that is already cached when the version it installed is the key's
// newest, and invalidates it otherwise; it never adds one, so a bulk
// load or a replay leaves the working set alone. redo does not touch
// the buffer: a restarted server's is empty.

import (
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/wal"
)

// resolve finds the served tablet for a log record: the exact id while
// it still covers the key, otherwise the tablet of the same table whose
// bounded range contains it (records written before a split carry the
// parent's id). A non-nil adopted set restricts the match to a replay's
// adopted tablets: a peer's log may also hold stale history of tablets
// this server owns in their own right.
func (s *Server) resolve(table, tabletID string, key []byte, adopted map[string]bool) (*Tablet, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tablets[tabletID]; ok && t.rng.Contains(key) && (adopted == nil || adopted[tabletID]) {
		return t, true
	}
	for _, t := range s.tablets {
		if t.table == table && boundedRange(t.rng) && t.rng.Contains(key) && (adopted == nil || adopted[t.id]) {
			return t, true
		}
	}
	return nil, false
}

// resolveGroup is resolve plus the column-group lookup, for callers
// that reflect a record where it lies (redo, compaction).
func (s *Server) resolveGroup(table, tabletID, group string, key []byte) (*Tablet, *columnGroup, bool) {
	t, ok := s.resolve(table, tabletID, key, nil)
	if !ok {
		return nil, nil, false
	}
	g, err := t.group(group)
	return t, g, err == nil
}

// boundedRange reports whether a range has at least one bound. The
// by-range record fallback is restricted to such ranges: a fully
// unbounded range only belongs to a never-split single-tablet table,
// where the exact-id match always applies — and test fixtures routinely
// declare several unbounded tablets per table, which would otherwise
// capture each other's records.
func boundedRange(r partition.Range) bool {
	return len(r.Start) > 0 || r.End != nil
}

// mutation is one staged write or delete. Its tablet and column group
// were looked up under the caller's hold of the install latch and are
// valid for that hold only.
type mutation struct {
	t     *Tablet
	g     *columnGroup
	key   []byte
	value []byte
	ts    int64
	del   bool
}

// stage validates one mutation addressed by tablet id.
func (s *Server) stage(w BatchWrite) (mutation, error) {
	t, err := s.tablet(w.Tablet)
	if err != nil {
		return mutation{}, err
	}
	return stageOn(t, w.Group, w.Key, w.Value, w.TS, w.Delete)
}

// stageOn validates one mutation against an already-resolved tablet.
// Every write, batch and transaction passes through it.
func stageOn(t *Tablet, group string, key, value []byte, ts int64, del bool) (mutation, error) {
	if len(key) > math.MaxUint16 {
		return mutation{}, fmt.Errorf("%w: %d bytes", ErrKeyTooLong, len(key))
	}
	if t.frozen.Load() {
		return mutation{}, fmt.Errorf("%w: %s", ErrTabletFrozen, t.id)
	}
	g, err := t.group(group)
	if err != nil {
		return mutation{}, err
	}
	return mutation{t: t, g: g, key: key, value: value, ts: ts, del: del}, nil
}

// stageAll stages a group; nothing is appended unless all validate.
func (s *Server) stageAll(n int, write func(int) BatchWrite) ([]mutation, error) {
	muts := make([]mutation, n)
	for i := range muts {
		m, err := s.stage(write(i))
		if err != nil {
			return nil, err
		}
		muts[i] = m
	}
	return muts, nil
}

// record frames the mutation as a log record.
func (m mutation) record(txnID uint64) *wal.Record {
	kind := wal.KindWrite
	if m.del {
		kind = wal.KindDelete
	}
	return &wal.Record{
		Kind: kind, Table: m.t.table, Tablet: m.t.id, Group: m.g.name,
		Key: m.key, TS: m.ts, Value: m.value, TxnID: txnID,
	}
}

// frame frames a group of mutations (with room for a commit record).
func frame(muts []mutation, txnID uint64) []*wal.Record {
	recs := make([]*wal.Record, len(muts), len(muts)+1)
	for i, m := range muts {
		recs[i] = m.record(txnID)
	}
	return recs
}

// applyOne makes one staged auto-commit mutation durable and installs
// it. Callers hold installMu shared.
func (s *Server) applyOne(m mutation) error {
	hist, point := s.obs.put, "crash.put.pre-index"
	if m.del {
		hist, point = s.obs.del, "crash.delete.pre-index"
	}
	defer s.obs.since(hist, s.obs.start())
	rec := m.record(0)
	ptrs, err := s.append(rec)
	if err != nil {
		return err
	}
	// Crash point: durable but not yet reflected. Recovery must redo it
	// (never acknowledged, so visible or absent — never half-applied).
	if err := s.cfg.Faults.FireErr(point); err != nil {
		return err
	}
	s.install(m, ptrs[0], rec.LSN)
	s.countOp(m)
	return nil
}

// applyGroup appends recs — the framed muts, then any commit record —
// in one sweep, fires the named crash point, and installs the mutations;
// a client's mutations also count as its operations (countOp), a
// replay's do not. Callers hold installMu shared.
func (s *Server) applyGroup(muts []mutation, recs []*wal.Record, point string, client bool) error {
	ptrs, err := s.append(recs...)
	if err != nil {
		return err
	}
	if err := s.cfg.Faults.FireErr(point); err != nil {
		return err
	}
	for i, m := range muts {
		s.install(m, ptrs[i], recs[i].LSN)
		if client {
			s.countOp(m)
		}
	}
	return nil
}

// install reflects one durable record: the state change (reflect), then
// the read-buffer rule.
func (s *Server) install(m mutation, ptr wal.Ptr, lsn uint64) {
	_, newest := s.reflect(m, ptr, lsn)
	if s.cfg.ReadCacheBytes > 0 {
		ck := cacheKey(m.t.table, m.g.name, m.key)
		if newest && s.readCache.Contains(ck) {
			s.readCache.Put(ck, encodeCached(m.ts, m.value))
		} else {
			s.readCache.Invalidate(ck)
		}
	}
}

// countOp counts a client mutation in the operation counters and its
// tablet's load (the balancer's input); a replayed record is not load.
func (s *Server) countOp(m mutation) {
	if m.del {
		s.stats.Deletes.Add(1)
	} else {
		s.stats.Writes.Add(1)
	}
	m.t.load.add(1, int64(len(m.value)))
}

// reflect applies one durable record to the primary index and what is
// derived from it (segment garbage, secondary indexes, max applied
// timestamp), reporting whether the index changed and whether the
// record is now the key's newest version.
func (s *Server) reflect(m mutation, ptr wal.Ptr, lsn uint64) (changed, newest bool) {
	tree := m.g.tree()
	if m.del {
		// A tombstone removes the versions it covers; their bytes feed the
		// garbage ratios that drive the auto compactor's candidate selection.
		changed = tree.DeleteCovered(m.key, m.ts, lsn, func(v index.Entry) {
			s.log.AddGarbage(v.Ptr.Seg, int64(v.Ptr.Len))
		}) > 0
	} else {
		// A write installs unless the same (key, ts) holds a higher LSN.
		changed, newest = tree.PutNewest(index.Entry{Key: m.key, TS: m.ts, Ptr: ptr, LSN: lsn})
	}
	switch {
	case !changed:
	case m.del:
		// Secondary entries follow a key's newest version; they go only
		// when the tombstone left none.
		if _, live := tree.Latest(m.key); !live {
			s.maintainSecondary(m.t.id, m.g.name, m.key, m.ts, wal.Ptr{}, lsn, nil, true)
		}
	default:
		s.noteSuperseded(m.t.table, m.g, m.key)
		if newest {
			s.maintainSecondary(m.t.id, m.g.name, m.key, m.ts, ptr, lsn, m.value, false)
		}
	}
	s.noteTS(m.ts)
	return changed, newest
}

// noteSuperseded credits the version that just fell outside the
// table's version-retention window (if any) as garbage. Called after a
// new version is installed; each old version is charged once, as it
// crosses the retention boundary.
func (s *Server) noteSuperseded(table string, g *columnGroup, key []byte) {
	k := s.retentionKeep(table)
	if k <= 0 {
		return
	}
	// The version k below the newest just crossed the retention
	// boundary; a bounded ring walk finds it without materializing the
	// key's whole history on the hot write path.
	if v, ok := g.tree().NthFromNewest(key, k); ok {
		s.log.AddGarbage(v.Ptr.Seg, int64(v.Ptr.Len))
	}
}

// redo is the in-place replay sink (restart recovery): the record
// already sits in this server's log at ptr, so it is only reflected.
// Callers hold installMu exclusively.
func (s *Server) redo(rec *wal.Record, ptr wal.Ptr) (bool, error) {
	t, g, ok := s.resolveGroup(rec.Table, rec.Tablet, rec.Group, rec.Key)
	if !ok {
		return false, nil // tablet reassigned elsewhere
	}
	m := mutation{t: t, g: g, key: rec.Key, value: rec.Value, ts: rec.TS, del: rec.Kind == wal.KindDelete}
	changed, _ := s.reflect(m, ptr, rec.LSN)
	return changed, nil
}

// reappendBatchBytes bounds one re-append batch, in source frame bytes.
const reappendBatchBytes = 1 << 20

// reappend re-appends records from another log (migration, failover,
// replica promotion and apply) under their ORIGINAL timestamps: one log
// append in the given order, so fresh LSNs follow it, then the installs
// in that order, all under one hold of the install latch, so a
// concurrent SplitTablet lands each record wholly before or after it.
// Records no (adopted) served tablet covers are skipped; it returns how
// many it installed, and none on an error.
func (s *Server) reappend(recs []wal.Record, adopted map[string]bool) (int, error) {
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	muts := make([]mutation, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		t, ok := s.resolve(rec.Table, rec.Tablet, rec.Key, adopted)
		if !ok {
			continue
		}
		m, err := stageOn(t, rec.Group, rec.Key, rec.Value, rec.TS, rec.Kind == wal.KindDelete)
		if err != nil {
			return 0, err
		}
		muts = append(muts, m)
	}
	if len(muts) == 0 {
		return 0, nil
	}
	// Crash point: the whole batch is durable; none of it is installed.
	if err := s.applyGroup(muts, frame(muts, 0), "crash.batch.pre-index", false); err != nil {
		return 0, err
	}
	return len(muts), nil
}

// ApplyReplicated applies one shipped log record (internal/repl)
// through reappend, as a batch of one; the feed already delivers
// committed records in commit order. Returns false (and no error) when
// no served tablet covers the record: the tablet migrated off the
// replica's primary, and its new owner's replica carries it.
func (s *Server) ApplyReplicated(rec *wal.Record) (bool, error) {
	n, err := s.reappend([]wal.Record{*rec}, nil)
	return n == 1, err
}

// ReplaySession is a resumable replay of a log's committed records
// into a server: one round over the server's own log (Recover),
// repeated CatchUp rounds over a migration source's live log, one over
// a dead server's log (failover, replica promotion). Transactional
// records are parked until their commit record is seen, so a round
// ending between a transaction's writes and its commit neither loses
// nor prematurely applies them.
type ReplaySession struct {
	dst     *Server
	srcLog  *wal.Log
	pos     wal.Position
	adopted map[string]bool // see resolve; nil = every served tablet

	committed map[uint64]uint64 // txn id -> commit record LSN
	pending   map[uint64][]parkedRecord
	// deletes holds, per key, the tombstones seen so far that no other
	// one makes redundant (see noteDelete): almost always one.
	deletes map[string][]tombstone
	// highWater is the highest source LSN covered by previous rounds.
	// Incremental compaction on the source relocates records (keeping
	// their LSNs) into higher-numbered segments, so a later round can
	// re-present records already replayed; they are skipped by LSN.
	highWater uint64

	applied int    // records a sink reported effective
	scanned int    // write/delete records iterated
	maxLSN  uint64 // highest LSN iterated, any record kind
	maxTS   int64  // highest committed timestamp iterated
}

// replaySink reflects one committed, surviving record in the session's
// server and reports whether it took effect.
type replaySink func(rec *wal.Record, ptr wal.Ptr) (bool, error)

// parkedRecord is a transactional record awaiting its commit.
type parkedRecord struct {
	rec wal.Record
	ptr wal.Ptr
}

// tombstone is one invalidation in a replay's per-key resolution.
type tombstone struct {
	ts      int64
	lsn     uint64
	applied bool // handed to a sink
}

func replayKey(table, group string, key []byte) string {
	return table + "\x00" + group + "\x00" + string(key)
}

func newReplaySession(dst *Server, srcLog *wal.Log, from wal.Position, adopted map[string]bool) *ReplaySession {
	return &ReplaySession{
		dst:       dst,
		srcLog:    srcLog,
		pos:       from,
		adopted:   adopted,
		committed: make(map[uint64]uint64),
		pending:   make(map[uint64][]parkedRecord),
		deletes:   make(map[string][]tombstone),
	}
}

// noteDelete folds one invalidation record into the per-key state. A
// tombstone with neither a later timestamp nor a higher LSN than
// another covers nothing the other does not, so only the rest are kept.
func (rs *ReplaySession) noteDelete(key string, ts int64, lsn uint64) {
	ds := rs.deletes[key]
	keep := ds[:0]
	for _, d := range ds {
		if d.ts >= ts && d.lsn >= lsn {
			return // redundant, or this very record met again
		}
		if d.ts > ts || d.lsn > lsn {
			keep = append(keep, d)
		}
	}
	rs.deletes[key] = append(keep, tombstone{ts: ts, lsn: lsn})
}

// round replays the source log from the session's cursor to its end as
// the round finds it — Log.End, and the compaction output numbered above
// it — into sink, and advances the cursor to that End. Both passes read
// the one list of segments the round starts with, as frame views: pass
// 1 copies nothing, pass 2 only the records it applies or parks.
func (rs *ReplaySession) round(sink replaySink) error {
	sc := rs.srcLog.NewScanner(rs.pos)
	defer sc.Close()
	again := sc.Rescan()
	defer again.Close()

	// Pass 1: learn this round's commits and fold its delete records
	// into the per-key resolution. A transactional delete is visible
	// only once its commit is seen, and the high-water mark covers it
	// through its commit's LSN (a shipping cursor seeding the mark
	// advances by commit LSN) — hence the deferred fold.
	type txnDelete struct {
		key   string
		ts    int64
		lsn   uint64
		txnID uint64
	}
	var txnDels []txnDelete
	for sc.Next() {
		v := sc.View()
		switch v.Kind() {
		case wal.KindCommit:
			rs.committed[v.TxnID()] = v.LSN()
		case wal.KindDelete:
			if v.TxnID() != 0 {
				txnDels = append(txnDels, txnDelete{replayKey(string(v.Table()), string(v.Group()), v.Key()), v.TS(), v.LSN(), v.TxnID()})
			} else if v.LSN() > rs.highWater {
				rs.noteDelete(replayKey(string(v.Table()), string(v.Group()), v.Key()), v.TS(), v.LSN())
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, td := range txnDels {
		if cl, ok := rs.committed[td.txnID]; ok && cl > rs.highWater {
			rs.noteDelete(td.key, td.ts, td.lsn)
		}
	}

	// Pass 2: apply. Records at or below the high-water mark were
	// covered by earlier rounds and are skipped. The mark advances to
	// the highest non-commit LSN this pass iterates: a source-side
	// compaction during the round can relocate records into segments the
	// round does not read (clearing their TxnID), and their LSNs must
	// stay below the mark so the next round still applies them.
	var roundMax uint64
	for again.Next() {
		v := again.View()
		lsn, txnID := v.LSN(), v.TxnID()
		rs.maxLSN = max(rs.maxLSN, lsn)
		if v.Kind() == wal.KindCommit {
			// Records parked by an earlier round become visible now:
			// fold their deletes into the per-key resolution BEFORE
			// applying, so the transaction's surviving writes follow them.
			parked := rs.pending[txnID]
			delete(rs.pending, txnID)
			for i := range parked {
				if pr := &parked[i].rec; pr.Kind == wal.KindDelete {
					rs.noteDelete(replayKey(pr.Table, pr.Group, pr.Key), pr.TS, pr.LSN)
				}
			}
			for i := range parked {
				if err := rs.apply(&parked[i].rec, parked[i].ptr, sink); err != nil {
					return err
				}
			}
			continue
		}
		roundMax = max(roundMax, lsn)
		if v.Kind() != wal.KindWrite && v.Kind() != wal.KindDelete {
			continue
		}
		rs.scanned++
		// A record is covered once the STREAM covered it: for a
		// transactional record that is its commit's LSN, for everything
		// else its own.
		cover, committed := lsn, false
		if txnID != 0 {
			var commitLSN uint64
			if commitLSN, committed = rs.committed[txnID]; committed {
				cover = commitLSN
			}
		}
		if cover <= rs.highWater {
			continue
		}
		if txnID != 0 && !committed {
			if _, ok := rs.dst.resolve(string(v.Table()), string(v.Tablet()), v.Key(), rs.adopted); ok {
				rs.pending[txnID] = append(rs.pending[txnID], parkedRecord{v.Record(), again.Ptr()})
			}
			continue
		}
		rec := v.Record()
		if err := rs.apply(&rec, again.Ptr(), sink); err != nil {
			return err
		}
	}
	if err := again.Err(); err != nil {
		return err
	}
	rs.highWater = max(rs.highWater, roundMax)
	rs.pos = sc.End()
	return nil
}

// apply passes one committed record through the per-key delete
// resolution and on to the sink.
func (rs *ReplaySession) apply(rec *wal.Record, ptr wal.Ptr, sink replaySink) error {
	if rec.TS > rs.maxTS {
		rs.maxTS = rec.TS
	}
	var ds []tombstone
	if len(rs.deletes) > 0 {
		ds = rs.deletes[replayKey(rec.Table, rec.Group, rec.Key)]
	}
	if rec.Kind == wal.KindWrite {
		for _, d := range ds {
			if index.Covers(d.ts, d.lsn, rec.TS, rec.LSN) {
				return nil
			}
		}
	}
	// The key's tombstones up to this record go first — for a delete
	// record that is the record itself, unless another made it redundant.
	for i := range ds {
		d := &ds[i]
		if d.applied || d.lsn > rec.LSN {
			continue
		}
		d.applied = true
		del := wal.Record{
			Kind: wal.KindDelete, Table: rec.Table, Tablet: rec.Tablet,
			Group: rec.Group, Key: rec.Key, TS: d.ts, LSN: d.lsn,
		}
		if err := rs.emit(&del, wal.Ptr{}, sink); err != nil {
			return err
		}
	}
	if rec.Kind == wal.KindDelete {
		return nil
	}
	return rs.emit(rec, ptr, sink)
}

func (rs *ReplaySession) emit(rec *wal.Record, ptr wal.Ptr, sink replaySink) error {
	ok, err := sink(rec, ptr)
	if ok && err == nil {
		rs.applied++
	}
	return err
}
