// Package core implements the paper's primary contribution: the
// log-only tablet server (paper §3.3–§3.6). One server owns a set of
// tablets (horizontal partitions of vertically partitioned column
// groups), records all their data in a single log instance in the
// shared DFS, and serves reads through dense in-memory multiversion
// indexes — there are no separate data files and no memtable flushes.
//
// Write path: frame the operation as a log record, append it durably
// (optionally group-committed), then point the in-memory index at the
// new location and refresh the read buffer (apply.go, shared with
// recovery, replay and replication). Read path: read buffer →
// in-memory index → the log. A point read is one log seek (readEntry);
// every read that resolves many index entries — range and snapshot
// scans, version histories, secondary-index reads — pages the index and
// fetches each page through one batched log read (fetchRows, scan.go),
// and both re-resolve through the live index a record a racing
// compaction moved.
// Deletes persist an invalidated record so they survive recovery.
// Compaction and checkpoints live in compaction.go and checkpoint.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Config tunes a tablet server.
type Config struct {
	// SegmentSize is the log segment rotation size; zero = 64 MB.
	SegmentSize int64
	// ReadCacheBytes bounds the optional LRU read buffer; zero disables
	// it (the read buffer is an optional component, paper §3.6.1).
	ReadCacheBytes int64
	// GroupCommit enables batching of concurrent log appends (paper
	// §3.7.2): leader/follower group commit, no wait when alone.
	GroupCommit bool
	// AutoCompactInterval paces the background incremental compactor
	// (autocompact.go); <= 0 disables the loop (AutoCompactTick still
	// works).
	AutoCompactInterval time.Duration
	// NoClusteredScan forces every scan onto the index-driven path even
	// over sorted segments; benches use it to measure the clustered fast
	// path against its fallback.
	NoClusteredScan bool
	// Metrics is the registry this server's metrics register into under
	// a {server: id} label; nil gives the server a private registry
	// (reachable via Server.Metrics). Clusters pass one shared registry
	// to all servers.
	Metrics *obs.Registry
	// Faults is the deterministic fault-injection registry consulted at
	// the server's crash points (crash.* names) and threaded into the
	// WAL (wal.append). nil injects nothing; the disabled path costs one
	// nil check per point.
	Faults *fault.Registry
	// DisableMetrics turns off hot-path latency recording (histograms).
	// Scrape-time gauges over the existing atomic counters stay
	// registered either way — they cost the request paths nothing.
	DisableMetrics bool
}

// groupCommitBatch caps the records one group-commit flush carries.
const groupCommitBatch = 64

// ErrNotFound is returned when a key (or version) does not exist.
var ErrNotFound = errors.New("core: not found")

// ErrUnknownTablet is returned for operations on an unserved tablet.
var ErrUnknownTablet = errors.New("core: tablet not served here")

// ErrTabletFrozen is returned for mutations on a tablet frozen for a
// live-migration cutover. It wraps ErrUnknownTablet so routing clients
// treat it as stale routing: refresh metadata and retry, converging on
// the new owner once the cutover lands.
var ErrTabletFrozen = fmt.Errorf("%w: frozen for migration", ErrUnknownTablet)

// ErrKeyTooLong is returned for a write whose key is longer than
// math.MaxUint16 bytes, the public limit on a key's length. Nothing of
// the write is logged.
var ErrKeyTooLong = fmt.Errorf("core: key longer than %d bytes", math.MaxUint16)

// Row is one record version returned by reads and scans. The caller
// owns Value. A scan copies the values of one page into shared chunks
// of at most 32 KB, so a retained Value keeps its chunk alive.
type Row struct {
	Key   []byte
	TS    int64
	Value []byte
}

// columnGroup is the in-memory state for one column group of one
// tablet: its multiversion index. Checkpoint persists it.
type columnGroup struct {
	name string
	idx  atomic.Pointer[index.Tree]
}

func (g *columnGroup) tree() *index.Tree { return g.idx.Load() }

// Tablet is one horizontal partition served by this server.
type Tablet struct {
	id     string
	table  string
	rng    partition.Range
	mu     sync.RWMutex
	groups map[string]*columnGroup

	// load is the elasticity subsystem's per-tablet accounting.
	load tabletLoad
	// frozen blocks mutations during a live-migration cutover; writers
	// get ErrTabletFrozen (which satisfies errors.Is(_, ErrUnknownTablet)
	// so routing clients refresh and retry against the new owner).
	frozen atomic.Bool
}

// group returns the column group, creating it lazily is NOT done — the
// schema is declared via AddTablet so typos surface as errors.
func (t *Tablet) group(name string) (*columnGroup, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	g, ok := t.groups[name]
	if !ok {
		// A clone, so name does not escape: a sweep passes a frame's
		// group bytes converted on its stack.
		return nil, fmt.Errorf("core: tablet %s has no column group %q", t.id, strings.Clone(name))
	}
	return g, nil
}

// Server is a LogBase tablet server.
type Server struct {
	id  string
	fs  *dfs.DFS
	cfg Config

	log     *wal.Log
	batcher *wal.Batcher

	mu      sync.RWMutex
	tablets map[string]*Tablet

	// installMu serialises index swaps (compaction install, recovery)
	// against mutations; normal operations hold it shared.
	installMu sync.RWMutex

	// compactMu serialises compaction runs (whole-log and incremental)
	// against each other.
	compactMu sync.Mutex

	// prepMu guards the prepared-transaction registry: 2PC participants
	// register durable-but-uncommitted writes here so compaction keeps
	// their records and repoints the cached locations a later CommitTxn
	// will install.
	prepMu   sync.Mutex
	prepared map[uint64]*Prepared

	// autoStop/autoWG manage the background auto-compaction loop.
	autoStop chan struct{}
	autoWG   sync.WaitGroup
	closed   sync.Once

	// indexReady arms index-probe-driven compaction (CompactSegments).
	// A server reopened over an existing log has EMPTY indexes until
	// Recover runs; compacting before that would judge every record
	// dead and destroy the log. Fresh (empty-log) servers are ready
	// immediately; reopened ones become ready when Recover completes.
	indexReady atomic.Bool
	// garbageAudited gates the one-time post-recovery garbage recount:
	// per-segment garbage counters are in-memory and zeroed by a
	// restart, so the first compaction tick after recovery re-derives
	// them from the index before trusting the ratios.
	garbageAudited atomic.Bool

	readCache *cache.Cache

	// feeds is the set of open changefeed and replication feeds
	// (logfeed.go). pruneHorizon is the highest LSN at or below which
	// compaction may have reclaimed records — feeds cannot resume there
	// (cdc.ErrCursorTruncated).
	feeds        feedSet
	pruneHorizon atomic.Uint64

	// secondary indexes (the §5 future-work extension; secondary.go).
	secMu     sync.RWMutex
	secondary map[string]*secondaryIndex

	// ret holds per-table retention policies (retention.go);
	// maxAppliedTS is the highest committed timestamp applied here,
	// sampled against wall time to resolve age-based policies.
	ret          retentionState
	maxAppliedTS atomic.Int64

	stats ServerStats
	obs   *serverObs
}

// ServerStats counts operations for bench output.
type ServerStats struct {
	Writes      atomic.Int64
	Reads       atomic.Int64
	Deletes     atomic.Int64
	CacheHits   atomic.Int64
	LogReads    atomic.Int64
	Compactions atomic.Int64
	// CompactDropped and CompactReclaimed accumulate across compaction
	// runs (records vacuumed, bytes reclaimed) for observability.
	CompactDropped   atomic.Int64
	CompactReclaimed atomic.Int64
}

// NewServer opens (or reopens) tablet server id over fs. Reopening an
// id whose log exists leaves recovery to the caller (Recover).
func NewServer(fs *dfs.DFS, id string, cfg Config) (*Server, error) {
	log, err := wal.Open(fs, "log/"+id, wal.Options{SegmentSize: cfg.SegmentSize, Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	s := &Server{
		id:        id,
		fs:        fs,
		cfg:       cfg,
		log:       log,
		tablets:   make(map[string]*Tablet),
		readCache: cache.New(cfg.ReadCacheBytes, nil),
		feeds:     feedSet{open: make(map[*RecordFeed]struct{})},
	}
	s.obs = newServerObs(s)
	if cfg.GroupCommit {
		s.batcher = wal.NewBatcher(log, groupCommitBatch, 0)
		if !cfg.DisableMetrics {
			s.batcher.SetMetrics(
				s.obs.reg.Histogram("logbase_wal_flush_seconds", "group-commit flush latency", obs.Labels{"server": id}),
				s.obs.reg.Histogram("logbase_wal_flush_records", "records per group-commit flush", obs.Labels{"server": id}),
			)
		}
	}
	s.indexReady.Store(log.Size() == 0)
	s.garbageAudited.Store(log.Size() == 0)
	if cfg.AutoCompactInterval > 0 {
		s.autoStop = make(chan struct{})
		s.autoWG.Add(1)
		go s.autoCompactLoop(cfg.AutoCompactInterval, s.autoStop, &s.autoWG)
	}
	return s, nil
}

// ID returns the server's identity.
func (s *Server) ID() string { return s.id }

// Log exposes the server's log (benches inspect segment counts).
func (s *Server) Log() *wal.Log { return s.log }

// Stats exposes the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// CacheStats returns read-buffer counters.
func (s *Server) CacheStats() cache.Stats { return s.readCache.Stats() }

// AddTablet declares a tablet with its column groups. Idempotent.
func (s *Server) AddTablet(tab partition.Tablet, groups []string) *Tablet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tablets[tab.ID]; ok {
		return t
	}
	t := &Tablet{id: tab.ID, table: tab.Table, rng: tab.Range, groups: make(map[string]*columnGroup)}
	for _, g := range groups {
		cg := &columnGroup{name: g}
		cg.idx.Store(index.New())
		t.groups[g] = cg
	}
	s.tablets[tab.ID] = t
	return t
}

// RemoveTablet stops serving a tablet (its log data stays; the new
// owner recovers it from the shared DFS). Its read-buffer entries go
// too: the buffer is keyed by row, and what the next owner deletes
// would otherwise read back from here should the tablet return.
func (s *Server) RemoveTablet(id string) {
	s.mu.Lock()
	t := s.tablets[id]
	delete(s.tablets, id)
	s.mu.Unlock()
	if t == nil || s.cfg.ReadCacheBytes <= 0 {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, g := range t.groups {
		g.tree().Ascend(func(e index.Entry) bool {
			s.readCache.Invalidate(cacheKey(t.table, g.name, e.Key))
			return true
		})
	}
}

func (s *Server) tablet(id string) (*Tablet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tablets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTablet, id)
	}
	return t, nil
}

// tabletGroup looks up a served tablet and one of its column groups.
func (s *Server) tabletGroup(tabletID, group string) (*Tablet, *columnGroup, error) {
	t, err := s.tablet(tabletID)
	if err != nil {
		return nil, nil, err
	}
	g, err := t.group(group)
	return t, g, err
}

func (s *Server) append(recs ...*wal.Record) ([]wal.Ptr, error) {
	t0 := s.obs.start()
	var ptrs []wal.Ptr
	var err error
	if s.batcher != nil {
		ptrs, err = s.batcher.Append(recs...)
	} else {
		ptrs, err = s.log.Append(recs...)
	}
	s.obs.since(s.obs.walAppend, t0)
	return ptrs, err
}

func cacheKey(table, group string, key []byte) string {
	return table + "\x00" + group + "\x00" + string(key)
}

// encodeCached packs (ts, value) for the read buffer.
func encodeCached(ts int64, value []byte) []byte {
	out := make([]byte, 8+len(value))
	for i := 0; i < 8; i++ {
		out[i] = byte(uint64(ts) >> (8 * i))
	}
	copy(out[8:], value)
	return out
}

func decodeCached(b []byte) (int64, []byte) {
	var ts uint64
	for i := 0; i < 8; i++ {
		ts |= uint64(b[i]) << (8 * i)
	}
	return int64(ts), b[8:]
}

// Write inserts or updates one row version in a column group at version
// timestamp ts. It is the auto-commit path (single-row ACID): durable
// once the log append returns.
func (s *Server) Write(tabletID, group string, key []byte, ts int64, value []byte) error {
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	m, err := s.stage(BatchWrite{Tablet: tabletID, Group: group, Key: key, Value: value, TS: ts})
	if err != nil {
		return err
	}
	return s.applyOne(m)
}

// Get returns the latest version of key in the column group.
func (s *Server) Get(tabletID, group string, key []byte) (Row, error) {
	return s.GetAt(tabletID, group, key, maxTS)
}

// GetAt returns the latest version of key visible at snapshot ts
// (paper §3.6.2: a Get with an attached timestamp).
func (s *Server) GetAt(tabletID, group string, key []byte, ts int64) (Row, error) {
	defer s.obs.since(s.obs.get, s.obs.start())
	t, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return Row{}, err
	}
	s.stats.Reads.Add(1)

	// Read buffer first (only serves the latest version).
	ck := cacheKey(t.table, group, key)
	if b, ok := s.readCache.Get(ck); ok {
		cts, v := decodeCached(b)
		if cts <= ts {
			// The cached latest is visible at this snapshot only if no
			// newer-but-<=ts version exists; cached entries are the
			// newest overall, so visibility holds exactly when cts<=ts.
			s.stats.CacheHits.Add(1)
			t.load.add(1, int64(len(v)))
			return Row{Key: key, TS: cts, Value: append([]byte(nil), v...)}, nil
		}
	}
	t.load.add(1, 0)

	e, ok := g.tree().LatestAt(key, ts)
	if !ok {
		return Row{}, fmt.Errorf("%w: %s/%s %q", ErrNotFound, tabletID, group, key)
	}
	e, rec, err := s.readVisible(g, key, ts, e)
	if errors.Is(err, errRowVanished) {
		return Row{}, fmt.Errorf("%w: %s/%s %q", ErrNotFound, tabletID, group, key)
	}
	if err != nil {
		return Row{}, err
	}
	s.stats.LogReads.Add(1)
	// Cache only the globally newest version.
	if latest, lok := g.tree().Latest(key); lok && latest.TS == e.TS {
		s.readCache.Put(ck, encodeCached(e.TS, rec.Value))
	}
	return Row{Key: key, TS: e.TS, Value: rec.Value}, nil
}

// readVisible reads e, the version of key that LatestAt(key, ts)
// returned. GetAt holds no pin, so the version can vanish before its
// read: retention prunes it once a newer version lands, or the key is
// deleted. The index is then descended once more, and the version
// visible at ts now — if any — is read instead; errRowVanished means
// none is.
func (s *Server) readVisible(g *columnGroup, key []byte, ts int64, e index.Entry) (index.Entry, wal.Record, error) {
	rec, err := s.readEntry(g, key, e.TS, e.Ptr)
	if errors.Is(err, errRowVanished) {
		var ok bool
		if e, ok = g.tree().LatestAt(key, ts); ok {
			rec, err = s.readEntry(g, key, e.TS, e.Ptr)
		}
	}
	return e, rec, err
}

// Delete removes key from the column group: it drops all index entries
// and persists an invalidated log entry so the deletion survives
// recovery from an older checkpoint (paper §3.6.3).
func (s *Server) Delete(tabletID, group string, key []byte, ts int64) error {
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	m, err := s.stage(BatchWrite{Tablet: tabletID, Group: group, Key: key, TS: ts, Delete: true})
	if err != nil {
		return err
	}
	return s.applyOne(m)
}

// IndexLen returns the number of index entries for a column group.
func (s *Server) IndexLen(tabletID, group string) int {
	_, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return 0
	}
	return g.tree().Len()
}

// IndexMemBytes returns the memory the indexes of all tablets hold.
func (s *Server) IndexMemBytes() int64 {
	return s.sumIndexes((*index.Tree).MemBytes)
}

// indexEntries counts the entries of every primary index.
func (s *Server) indexEntries() int {
	return int(s.sumIndexes(func(t *index.Tree) int64 { return int64(t.Len()) }))
}

// sumIndexes adds f over every tablet's column-group indexes.
func (s *Server) sumIndexes(f func(*index.Tree) int64) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tablets {
		t.mu.RLock()
		for _, g := range t.groups {
			n += f(g.tree())
		}
		t.mu.RUnlock()
	}
	return n
}

// ApplyTxn durably applies a validated transaction: all write and
// delete records plus the final commit record are appended as one
// atomic group (group commit batches across transactions), and only
// after the commit record is durable are the in-memory indexes updated
// (paper §3.7.2: uncommitted writes are never reflected in the index).
func (s *Server) ApplyTxn(txnID uint64, commitTS int64, writes []TxnWrite) error {
	if len(writes) == 0 {
		return nil
	}
	defer s.obs.since(s.obs.applyTxn, s.obs.start())
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	muts, err := s.stageAll(len(writes), func(i int) BatchWrite { return writes[i].at(commitTS) })
	if err != nil {
		return err
	}
	recs := append(frame(muts, txnID), &wal.Record{Kind: wal.KindCommit, TxnID: txnID, TS: commitTS})
	// Crash point: writes AND commit record are durable, indexes are
	// not touched yet — recovery must surface the whole transaction.
	return s.applyGroup(muts, recs, "crash.txn.pre-index", true)
}

// BatchWrite is one mutation of a write batch: a plain write or delete
// with its own version timestamp (no transaction semantics).
type BatchWrite struct {
	Tablet string
	Group  string
	Key    []byte
	Value  []byte
	TS     int64
	Delete bool
}

// ApplyBatch durably applies a group of independent mutations as ONE
// log append sweep: every record is framed up front, persisted in a
// single (optionally group-committed) append, and only then reflected
// in the indexes and read buffer. This is the bulk-load path — it
// amortises the per-append durability cost that dominates per-record
// Put throughput, exactly the advantage of a sequential log (§3.4).
// There is no commit record and no atomicity promise beyond the append
// itself; use transactions for all-or-nothing semantics.
func (s *Server) ApplyBatch(writes []BatchWrite) error {
	if len(writes) == 0 {
		return nil
	}
	defer s.obs.since(s.obs.applyBatch, s.obs.start())
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	muts, err := s.stageAll(len(writes), func(i int) BatchWrite { return writes[i] })
	if err != nil {
		return err
	}
	// Crash point: the whole batch is durable in one sweep; none of it
	// is indexed yet.
	return s.applyGroup(muts, frame(muts, 0), "crash.batch.pre-index", true)
}

// Close releases the server's background resources: the auto-compaction
// loop is joined and changefeeds are closed. Data needs no flushing —
// every append was already durable, and group commit owns no goroutine
// (writes after Close still append durably). Idempotent.
func (s *Server) Close() error {
	s.closed.Do(func() {
		if s.autoStop != nil {
			close(s.autoStop)
			s.autoWG.Wait()
		}
		s.feeds.closeAll()
	})
	return nil
}

// TxnWrite is one buffered transactional write targeted at this server.
type TxnWrite struct {
	Tablet string
	Group  string
	Key    []byte
	Value  []byte
	Delete bool
}

// at is the write as a mutation at the transaction's commit timestamp.
func (w TxnWrite) at(commitTS int64) BatchWrite {
	return BatchWrite{Tablet: w.Tablet, Group: w.Group, Key: w.Key, Value: w.Value, TS: commitTS, Delete: w.Delete}
}

// CurrentVersion returns the latest version timestamp of a key (0 if
// absent); MVOCC validation compares these against a transaction's read
// versions (paper §3.7.1).
func (s *Server) CurrentVersion(tabletID, group string, key []byte) (int64, error) {
	_, g, err := s.tabletGroup(tabletID, group)
	if err != nil {
		return 0, err
	}
	e, ok := g.tree().Latest(key)
	if !ok {
		return 0, nil
	}
	return e.TS, nil
}
