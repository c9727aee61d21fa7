// Package repl is the WAL-shipping read-replica subsystem. Because the
// log is LogBase's ONLY data repository (paper §3.1), replication needs
// no second pipeline: a standby is just another tablet server whose
// multiversion indexes are built by replaying the primary's committed
// log stream. The Replica rides the same resumable cursor engine as
// changefeeds (core.Server.SubscribeRecords): historical catch-up from
// the pinned segments, then the primary log's in-memory tail, in commit
// order, exactly once.
//
// Contract:
//
//   - Records apply in feed order with their ORIGINAL commit
//     timestamps, so the replica's multiversion state at any timestamp
//     at or below its watermark is byte-identical to the primary's.
//   - The watermark (WatermarkTS) is the snapshot-consistency frontier:
//     a read pinned at ts <= watermark served by the replica returns
//     exactly what the primary would. It advances by the T-before-E
//     protocol: sample T = the coordinator's low-water mark (every
//     write at or below it has returned from its append), THEN observe
//     the primary log tip E; once the feed has drained through E, every
//     commit at or below T is applied and the watermark may rise to T.
//   - The applied cursor is made durable (a small DFS file) every
//     cursorFlushEvery records and on Close, always lagging what was
//     actually applied; a restarted replica recovers its own log
//     (core.Recover) and resumes the feed from the durable cursor —
//     the overlap re-applies idempotently.
//   - A slow replica just lags: when it falls off the in-memory tail,
//     the feed itself re-reads the gap from the primary's segments. If
//     compaction on the primary has reclaimed records past the
//     replica's cursor (cdc.ErrCursorTruncated, at subscribe or from
//     Next — see the retention policy knob, core.SetRetention), the
//     gap is gone: the replica re-bootstraps into a FRESH server
//     (generation-bumped id) from LSN 0, because replaying coalesced
//     history over existing state could resurrect vacuumed deletes.
//     The watermark drops to 0 for the duration, routing reads back to
//     the primary.
//
// Promotion (failover) lives with the cluster master: a caught-up
// replica already holds everything through its applied cursor, so
// promoting it is a ReplaySession over the dead primary's log with
// SetHighWater(appliedLSN) — only the delta past the shipping cursor
// replays.
package repl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/readopt"
)

// Config tunes a replica.
type Config struct {
	// LastTS returns the newest timestamp at or below which every write
	// has returned from its append (coord.Service.LowWater). Required:
	// it is the T of the watermark protocol.
	LastTS func() int64
	// Server configures the replica's own tablet server (segment size,
	// caches, auto-compaction...). Replicas usually run without
	// auto-compaction: their log is already the primary's committed
	// stream.
	Server core.Config
}

// pollInterval paces the apply loop's idle ticks (watermark refresh,
// cursor flush).
const pollInterval = time.Millisecond

// cursorFlushEvery is how many applied records may pass between
// durable-cursor flushes (each flush is a small DFS write).
const cursorFlushEvery = 256

// tabletSpec remembers a mirrored tablet so a re-bootstrap can re-add
// it to the fresh server.
type tabletSpec struct {
	tab    partition.Tablet
	groups []string
}

// Replica is one WAL-shipping standby of one primary tablet server.
type Replica struct {
	base    string // stable identity; generations suffix it
	fs      *dfs.DFS
	primary *core.Server
	cfg     Config
	// applyPoint names this replica's fault point in the apply loop
	// ("repl.<base>.apply").
	applyPoint string

	mu    sync.RWMutex
	srv   *core.Server
	feed  *core.RecordFeed
	specs map[string]tabletSpec
	ret   map[string]core.RetentionPolicy // per-table policies, re-applied to a fresh generation
	gen   int

	appliedLSN atomic.Uint64
	watermark  atomic.Int64
	// syncing counts open topology syncs (they gate the public
	// watermark); syncEpoch counts closed ones. wmMu orders a sync's end
	// against a watermark publication, so a (T, E) pair sampled before
	// the sync ended can never be published after it.
	syncing     atomic.Int32
	syncEpoch   atomic.Int64
	wmMu        sync.Mutex
	applied     atomic.Int64 // records applied
	skipped     atomic.Int64 // records outside every mirrored tablet
	reads       atomic.Int64 // reads served from this replica (NoteRead)
	rebootstrap atomic.Int64 // truncation-forced fresh starts
	lastCaught  atomic.Int64 // unix nanos of the last drained observation

	resumeLSN uint64 // durable cursor loaded by New; 0 = fresh
	recovered bool   // Start must Recover the reopened server first

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	runErr atomic.Value // error
}

// New prepares a replica of primary under the stable id base (e.g.
// "ts00.r0"). If a durable cursor exists on fs the replica reopens its
// previous incarnation's server (recovery itself runs in Start, after
// the caller has re-declared tablets via AddTablet). Start begins
// shipping.
func New(fs *dfs.DFS, primary *core.Server, base string, cfg Config) (*Replica, error) {
	if cfg.LastTS == nil {
		return nil, errors.New("repl: Config.LastTS is required")
	}
	r := &Replica{
		base:       base,
		fs:         fs,
		primary:    primary,
		cfg:        cfg,
		specs:      make(map[string]tabletSpec),
		applyPoint: "repl." + base + ".apply",
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	gen, lsn, found, err := r.loadCursor()
	if err != nil {
		return nil, err
	}
	if found {
		r.gen, r.resumeLSN, r.recovered = gen, lsn, true
		r.appliedLSN.Store(lsn)
	}
	srv, err := core.NewServer(fs, r.serverID(r.gen), cfg.Server)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.lastCaught.Store(time.Now().UnixNano())
	return r, nil
}

// serverID derives the generation's server id (and thereby its log
// directory): the base id for generation 0, base.g<n> after n
// truncation re-bootstraps.
func (r *Replica) serverID(gen int) string {
	if gen == 0 {
		return r.base
	}
	return fmt.Sprintf("%s.g%d", r.base, gen)
}

// BaseID returns the replica's stable identity.
func (r *Replica) BaseID() string { return r.base }

// ID returns the current generation's server id.
func (r *Replica) ID() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.srv.ID()
}

// Server returns the replica's current tablet server — the read target.
// A truncation re-bootstrap swaps it; route each read through a fresh
// call.
func (r *Replica) Server() *core.Server {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.srv
}

// Primary returns the replicated-from server.
func (r *Replica) Primary() *core.Server { return r.primary }

// AddTablet declares a mirrored tablet (same specs as on the primary).
// Shipping applies only records that resolve to a declared tablet;
// call it for every tablet the primary serves, and again as splits and
// migrations change the layout.
func (r *Replica) AddTablet(tab partition.Tablet, groups []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.specs[tab.ID] = tabletSpec{tab: tab, groups: append([]string(nil), groups...)}
	r.srv.AddTablet(tab, groups)
}

// SetRetention installs a table's retention policy on the replica's
// server, and remembers it: a truncation re-bootstrap swaps in a fresh
// server, which must vacuum by the same rules as the one it replaces.
func (r *Replica) SetRetention(table string, p core.RetentionPolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ret == nil {
		r.ret = make(map[string]core.RetentionPolicy)
	}
	r.ret[table] = p
	r.srv.SetRetention(table, p)
}

// RemoveTablet stops mirroring a tablet (migrated away from the
// primary).
func (r *Replica) RemoveTablet(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.specs, id)
	r.srv.RemoveTablet(id)
}

// SplitTablet mirrors a primary-side tablet split: the replica's index
// partitions under the same child specs, so reads addressed by child
// tablet id resolve here exactly as on the primary. Records still in
// flight under the parent id resolve to the children by range. A
// mirror failure poisons the replica (MarkFailed) — serving with a
// diverged tablet layout would silently drop shipped records.
func (r *Replica) SplitTablet(parentID string, left, right partition.Tablet) error {
	r.mu.Lock()
	sp, ok := r.specs[parentID]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	delete(r.specs, parentID)
	r.specs[left.ID] = tabletSpec{tab: left, groups: sp.groups}
	r.specs[right.ID] = tabletSpec{tab: right, groups: sp.groups}
	srv := r.srv
	r.mu.Unlock()
	if err := srv.SplitTablet(parentID, left, right); err != nil {
		err = fmt.Errorf("repl: %s mirror split of %s: %w", r.base, parentID, err)
		r.MarkFailed(err)
		return err
	}
	return nil
}

// BeginTopologySync and EndTopologySync bracket a cluster topology
// change that brings a tablet's history from ANOTHER server's log onto
// this replica's primary (failover adoption, live migration). While a
// sync is open the public watermark reads 0, keeping the read router on
// the primary: what the replica applied so far no longer covers every
// mirrored tablet.
func (r *Replica) BeginTopologySync() { r.syncing.Add(1) }

// EndTopologySync closes a BeginTopologySync bracket. The watermark
// restarts from 0: the pre-sync value says nothing about the tablets
// that arrived during the sync, whose replayed history may still be in
// the shipping pipe. It is republished only from a drained log tip
// sampled after this point (refreshWatermark).
func (r *Replica) EndTopologySync() {
	r.wmMu.Lock()
	defer r.wmMu.Unlock()
	r.watermark.Store(0)
	r.syncEpoch.Add(1)
	r.syncing.Add(-1)
}

// MarkFailed poisons the replica: Err returns err and the read router
// skips it. Shipping may continue but the replica never serves reads
// again; used when a topology mirror failed and the replica's layout
// can no longer be trusted.
func (r *Replica) MarkFailed(err error) { r.runErr.Store(err) }

// Detach stops shipping and hands the replica's tablet server to the
// caller WITHOUT closing it — the promotion path: the cluster master
// turns a caught-up replica into a first-class tablet server. A later
// Close is a no-op.
func (r *Replica) Detach() *core.Server {
	r.once.Do(func() {
		r.cancel()
		r.wg.Wait()
		r.flushCursor()
	})
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.srv
}

// Start launches the shipping loop. Call after declaring tablets: a
// restarted replica first recovers its own log into the declared
// tablets, then resumes the feed from its durable cursor.
func (r *Replica) Start() error {
	if r.recovered {
		if _, err := r.srv.Recover(); err != nil {
			return fmt.Errorf("repl: recover %s: %w", r.srv.ID(), err)
		}
		r.recovered = false
	}
	r.wg.Add(1)
	go r.run()
	return nil
}

// Close stops shipping, flushes the durable cursor, and closes the
// replica's server. Idempotent.
func (r *Replica) Close() error {
	r.once.Do(func() {
		r.cancel()
		r.wg.Wait()
		r.flushCursor()
		r.mu.RLock()
		srv := r.srv
		r.mu.RUnlock()
		srv.Close()
	})
	return nil
}

// Err returns the terminal shipping error, if the loop died (nil while
// healthy or cleanly closed).
func (r *Replica) Err() error {
	if v := r.runErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// run is the shipping loop: subscribe and consume, re-bootstrapping
// when the primary truncated the replica's cursor.
func (r *Replica) run() {
	defer r.wg.Done()
	fromLSN := uint64(0)
	if r.resumeLSN > 0 {
		fromLSN = r.resumeLSN + 1
	}
	for r.ctx.Err() == nil {
		feed, err := r.primary.SubscribeRecords(fromLSN)
		if err == nil {
			r.mu.Lock()
			r.feed = feed
			r.mu.Unlock()
			err = r.consume(feed)
			feed.Close()
		}
		if errors.Is(err, cdc.ErrCursorTruncated) {
			// The primary compacted past our cursor (retention policy):
			// the gap is unrecoverable in place. Fresh server, full
			// replay — the retained log reconstructs current state.
			err = r.freshGeneration()
			fromLSN = 0
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			r.runErr.Store(err)
			return
		}
	}
}

// consume applies the feed until it breaks or the replica closes.
func (r *Replica) consume(feed *core.RecordFeed) error {
	r.mu.RLock()
	srv := r.srv
	r.mu.RUnlock()
	sinceFlush := 0
	for {
		ctx, cancel := context.WithTimeout(r.ctx, pollInterval)
		ev, err := feed.Next(ctx)
		cancel()
		if err != nil {
			if r.ctx.Err() != nil {
				return context.Canceled
			}
			if errors.Is(err, context.DeadlineExceeded) {
				// Idle tick: no event, but the stream may have silently
				// caught up (commit-only tail, no writes at all).
				r.refreshWatermark(feed)
				if sinceFlush > 0 {
					r.flushCursor()
					sinceFlush = 0
				}
				continue
			}
			return err
		}
		// Hand-off delay point: tests stall one replica's apply here.
		if err := r.cfg.Server.Faults.FireErr(r.applyPoint); err != nil {
			return err
		}
		applied, err := srv.ApplyReplicated(&ev.Rec)
		if err != nil {
			return err
		}
		if applied {
			r.applied.Add(1)
		} else {
			r.skipped.Add(1)
		}
		r.appliedLSN.Store(ev.Cursor)
		r.refreshWatermark(feed)
		if sinceFlush++; sinceFlush >= cursorFlushEvery {
			r.flushCursor()
			sinceFlush = 0
		}
	}
}

// refreshWatermark runs the T-before-E protocol. Only the shipping
// goroutine calls it (feed.Drained is exact only between Next calls).
func (r *Replica) refreshWatermark(feed *core.RecordFeed) {
	epoch := r.syncEpoch.Load()
	if r.syncing.Load() > 0 {
		return // a tip sampled mid-sync does not cover the sync's tail
	}
	t := r.cfg.LastTS()
	e := r.sourceTip()
	if !feed.Drained(e) {
		return
	}
	// Everything committed at or below T was durably appended before E
	// was observed, and the feed has drained through E: the replica's
	// state covers every snapshot at ts <= T — unless a topology sync
	// began or ended since E was sampled.
	r.wmMu.Lock()
	if r.syncing.Load() == 0 && r.syncEpoch.Load() == epoch && t > r.watermark.Load() {
		r.watermark.Store(t)
	}
	r.wmMu.Unlock()
	r.lastCaught.Store(time.Now().UnixNano())
}

// sourceTip returns the primary log's last assigned LSN.
func (r *Replica) sourceTip() uint64 {
	return r.primary.Log().NextLSN() - 1
}

// WatermarkTS is the snapshot-consistency frontier: reads pinned at
// ts <= WatermarkTS served by this replica return exactly what the
// primary would. 0 means not yet caught up (re-bootstrapping, or a
// topology sync is installing peer history).
func (r *Replica) WatermarkTS() int64 {
	if r.syncing.Load() > 0 {
		return 0
	}
	return r.watermark.Load()
}

// Serves is the replica half of the read-routing rule, shared by the
// embedded and cluster routers: the replica may serve a read pinned at
// ts under ro when it is healthy, its watermark covers ts, and its
// shipping lag is within ro.MaxLag (0 = unbounded). The callers own the
// other half — unpinned (ts <= 0) and ro.Primary reads never route here.
func (r *Replica) Serves(ts int64, ro readopt.Options) bool {
	if r.Err() != nil || r.WatermarkTS() < ts {
		return false
	}
	return ro.MaxLag <= 0 || r.Stats().LagRecords <= uint64(ro.MaxLag)
}

// AppliedLSN returns the shipping cursor (the promotion high-water).
func (r *Replica) AppliedLSN() uint64 { return r.appliedLSN.Load() }

// NoteRead records n reads served from this replica (router-side
// accounting surfaced in Stats).
func (r *Replica) NoteRead(n int64) { r.reads.Add(n) }

// WaitForTS blocks until the watermark reaches ts (snapshot reads at
// ts can then be served here), the timeout passes, or shipping dies.
func (r *Replica) WaitForTS(ts int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.WatermarkTS() < ts {
		if err := r.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: %s watermark %d still below %d after %v",
				r.base, r.WatermarkTS(), ts, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// freshGeneration replaces the replica's server with an empty one under
// a generation-bumped id, for a from-zero replay after truncation.
func (r *Replica) freshGeneration() error {
	r.mu.Lock()
	old := r.srv
	r.gen++
	srv, err := core.NewServer(r.fs, r.serverID(r.gen), r.cfg.Server)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	for _, sp := range r.specs {
		srv.AddTablet(sp.tab, sp.groups)
	}
	for table, p := range r.ret {
		srv.SetRetention(table, p)
	}
	r.srv = srv
	r.mu.Unlock()
	// Readers routed here between the swap and catch-up see watermark 0
	// and go to the primary instead.
	r.watermark.Store(0)
	r.appliedLSN.Store(0)
	r.rebootstrap.Add(1)
	r.flushCursor()
	old.Close()
	return nil
}

// Stats is a point-in-time view of one replica's shipping state.
type Stats struct {
	BaseID   string
	ServerID string
	// Generation counts truncation-forced re-bootstraps.
	Generation int
	// AppliedLSN is the shipping cursor; SourceLSN the primary log tip;
	// LagRecords counts the records through SourceLSN the apply loop has
	// not taken from the shipping feed yet.
	AppliedLSN uint64
	SourceLSN  uint64
	LagRecords uint64
	// LagSeconds is how long the replica has continuously trailed the
	// tip (0 when caught up).
	LagSeconds float64
	// WatermarkTS is the snapshot-consistency frontier.
	WatermarkTS int64
	// Applied/Skipped count shipped records applied vs outside every
	// mirrored tablet; ReadsServed counts reads routed here.
	Applied     int64
	Skipped     int64
	ReadsServed int64
}

// Stats snapshots the replica's shipping state.
func (r *Replica) Stats() Stats {
	r.mu.RLock()
	srv, feed, gen := r.srv, r.feed, r.gen
	r.mu.RUnlock()
	st := Stats{
		BaseID:      r.base,
		ServerID:    srv.ID(),
		Generation:  gen,
		AppliedLSN:  r.appliedLSN.Load(),
		SourceLSN:   r.sourceTip(),
		WatermarkTS: r.WatermarkTS(),
		Applied:     r.applied.Load(),
		Skipped:     r.skipped.Load(),
		ReadsServed: r.reads.Load(),
	}
	st.LagRecords = st.SourceLSN
	if feed != nil {
		st.LagRecords = feed.Lag(st.SourceLSN)
	}
	if st.LagRecords > 0 {
		st.LagSeconds = time.Since(time.Unix(0, r.lastCaught.Load())).Seconds()
	}
	return st
}

// ---- durable cursor ----------------------------------------------------

// cursorPath is the replica's durable-cursor file on the shared DFS.
func (r *Replica) cursorPath() string { return "repl/" + r.base + "/cursor" }

// flushCursor persists (generation, applied cursor). It always runs
// AFTER the records it covers were applied, so a restart's resume can
// only over-replay — and re-applying the overlap is idempotent (same
// keys, same timestamps).
func (r *Replica) flushCursor() {
	// Crash point: records were applied but the cursor flush never
	// lands — a restart resumes from the PREVIOUS durable cursor and
	// re-applies up to cursorFlushEvery records (idempotently).
	if err := r.cfg.Server.Faults.FireErr("crash.repl.pre-cursor-flush"); err != nil {
		return
	}
	r.mu.RLock()
	gen := r.gen
	r.mu.RUnlock()
	line := fmt.Sprintf("v1 %d %d\n", gen, r.appliedLSN.Load())
	// A failed flush leaves the previous cursor: a restart re-applies more.
	_ = r.fs.WriteFile(r.cursorPath(), []byte(line))
}

// loadCursor reads the durable cursor, if any.
func (r *Replica) loadCursor() (gen int, lsn uint64, found bool, err error) {
	buf, err := r.fs.ReadFile(r.cursorPath())
	if errors.Is(err, dfs.ErrNotFound) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(buf)), "v%d %d %d", &v, &gen, &lsn); err != nil || v != 1 {
		return 0, 0, false, fmt.Errorf("repl: bad cursor file %s: %q", r.cursorPath(), buf)
	}
	return gen, lsn, true, nil
}
