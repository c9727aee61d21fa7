package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/readopt"
	"repro/internal/txn"
)

// Client is a routing client: it caches the tablet map and refreshes it
// when stale (paper §3.3 — metadata "cached for later use and hence only
// need to be looked up for the first time or when the cache is stale").
// Clients are cheap; create one per benchmark worker.
type Client struct {
	c *Cluster

	// cached routing state.
	epoch   int64
	routers map[string]*partition.Router
	owners  map[string]*core.Server

	// Refreshes counts metadata cache refreshes (tests observe it).
	Refreshes int

	// span, when set, receives routing annotations (stale retries) for
	// the operation in flight. Point ops carry no context, so the owner
	// parks the active request span here around each call; clients are
	// used by one goroutine at a time, which makes this safe.
	span *obs.Span

	// rng drives backoff jitter. Seeded deterministically per client
	// (cluster-wide sequence), so retry schedules replay under a fixed
	// fault seed; single-goroutine use makes the unlocked source safe.
	rng *rand.Rand
}

// SetSpan parks the active request span for routing annotations; call
// with nil when the operation completes.
func (cl *Client) SetSpan(sp *obs.Span) { cl.span = sp }

// Tracer returns the cluster's slow-op tracer (nil when tracing is
// off).
func (cl *Client) Tracer() *obs.Tracer { return cl.c.tracer }

// NewClient creates a client with a warm metadata cache.
func (c *Cluster) NewClient() *Client {
	cl := &Client{
		c:   c,
		rng: rand.New(rand.NewSource(0x6c6f67 ^ c.clientSeq.Add(1))),
	}
	cl.refresh()
	return cl
}

func (cl *Client) refresh() {
	cl.epoch = cl.c.Epoch()
	cl.routers = make(map[string]*partition.Router)
	cl.owners = make(map[string]*core.Server)
	cl.Refreshes++
}

func (cl *Client) rpc() {
	if d := cl.c.cfg.RPCLatency; d > 0 {
		time.Sleep(d)
	}
}

// route resolves (table, key) to the owning server and tablet id via
// the cached metadata, refreshing once on staleness.
func (cl *Client) route(table string, key []byte) (*core.Server, string, error) {
	for attempt := 0; ; attempt++ {
		r, ok := cl.routers[table]
		if !ok {
			router, err := cl.c.Router(table)
			if err != nil {
				return nil, "", err
			}
			cl.routers[table] = router
			r = router
		}
		tab, ok := r.Lookup(key)
		if !ok {
			return nil, "", errors.New("cluster: key outside table keyspace")
		}
		srv, ok := cl.owners[tab.ID]
		if !ok {
			s, err := cl.c.ServerFor(tab.ID)
			if err != nil {
				return nil, "", err
			}
			cl.owners[tab.ID] = s
			srv = s
		}
		// Stale cache: the tablet moved since we cached its owner.
		if cl.epoch != cl.c.Epoch() && attempt == 0 {
			cl.refresh()
			continue
		}
		return srv, tab.ID, nil
	}
}

// readTarget substitutes a qualifying read replica of the resolved
// primary for a pinned snapshot read (Cluster.replicaFor): watermark
// covers ts, healthy, within any MaxLag bound, breaker admitting.
// Callers only consult it on the first attempt — every retry goes
// straight to the primary, the always-correct fallback. The returned
// note func MUST be called with the read's outcome so the chosen
// target's circuit breaker observes it.
func (cl *Client) readTarget(srv *core.Server, ts int64, ro readopt.Options) (*core.Server, func(error)) {
	if rep := cl.c.replicaFor(srv.ID(), ts, ro); rep != nil {
		target := "replica:" + rep.BaseID()
		return rep.Server(), func(err error) { cl.c.breakers.note(target, err) }
	}
	id := srv.ID()
	return srv, func(err error) { cl.c.breakers.noteServer(id, err) }
}

// retryableRouting reports whether err means "routing metadata is
// stale or about to change": a moved/split tablet, a dead server, or a
// tablet frozen for a migration cutover (ErrTabletFrozen wraps
// ErrUnknownTablet).
func retryableRouting(err error) bool {
	return errors.Is(err, core.ErrUnknownTablet) || errors.Is(err, ErrServerDown)
}

// retryStale runs op under the cluster's unified RetryPolicy,
// refreshing the metadata cache and backing off (exponential,
// jittered) while the op keeps hitting a moved/frozen tablet or a dead
// server. A split or failover invalidates the cache instantly (one
// refresh suffices), but a live-migration cutover has a window where
// the source already rejects mutations (ErrTabletFrozen) and the
// routing flip has not landed yet — backoff rides that window out.
// Each op outcome feeds the owning server's circuit breaker.
func (cl *Client) retryStale(table string, key []byte, op func(srv *core.Server, tablet string) error) error {
	pol := cl.c.retry
	var err error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			cl.refresh()
			cl.c.obsStaleRetries.Inc()
			cl.c.obsRetryAttempts.Inc()
			cl.span.Label("retry", fmt.Sprintf("attempt=%d err=%v", attempt, err))
			pol.sleep(nil, attempt, cl.rng)
		}
		var srv *core.Server
		var tab string
		srv, tab, err = cl.route(table, key)
		if err == nil {
			err = op(srv, tab)
			cl.c.breakers.noteServer(srv.ID(), err)
		}
		if err == nil || !retryableRouting(err) {
			return err
		}
	}
	return err
}

// Put writes a row version into a column group (auto-commit); the
// version timestamp comes from the global timestamp authority.
func (cl *Client) Put(table, group string, key, value []byte) error {
	cl.rpc()
	ts := cl.c.svc.NextTimestamp()
	return cl.retryStale(table, key, func(srv *core.Server, tablet string) error {
		return srv.Write(tablet, group, key, ts, value)
	})
}

// Get reads the latest version of a row in a column group. Thin adapter
// over Read.
func (cl *Client) Get(table, group string, key []byte) (core.Row, error) {
	rows, err := cl.Read(table, group, key, readopt.Options{})
	if err != nil {
		return core.Row{}, err
	}
	return rows[0], nil
}

// Delete removes a row from a column group.
func (cl *Client) Delete(table, group string, key []byte) error {
	cl.rpc()
	ts := cl.c.svc.NextTimestamp()
	return cl.retryStale(table, key, func(srv *core.Server, tablet string) error {
		return srv.Delete(tablet, group, key, ts)
	})
}

// errStopScan signals "fn asked to stop": a clean early end, not a
// failure.
var errStopScan = errors.New("cluster: scan consumer stopped")

// ScanOpts streams the rows of [start, end) matching the push-down
// options across every tablet the range spans. The options are
// evaluated INSIDE each tablet server (core.ReadScanOptions): a
// limited or filtered scan ships only surviving rows, and stops
// issuing log reads once the cross-tablet limit is satisfied.
//
// Row order is ascending key order — descending with ro.Reverse, which
// visits tablets in reverse range order and walks each tablet's index
// backwards. The snapshot is pinned once up front (ro.Snapshot, 0 =
// latest), so the stream is consistent even across stale-routing
// retries: a tablet-start routing error (split/move/failover
// between the router read and the scan) retries the REMAINING
// range with fresh metadata — resuming at the failing tablet's range
// start (its range end for reverse scans), so completed tablets are
// never re-streamed and the limit never double-counts.
func (cl *Client) ScanOpts(ctx context.Context, table, group string, start, end []byte, ro readopt.Options, fn func(core.Row) bool) error {
	cl.rpc()
	ts := ro.Snapshot
	if ts == 0 {
		ts = cl.c.svc.LastTimestamp()
	}
	// Fold the prefix into the routing bounds once; per-server options
	// then re-clamp harmlessly.
	start, end = ro.ClampRange(start, end)
	ro.Prefix = nil
	remaining := ro.Limit
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		router, err := cl.c.Router(table)
		if err != nil {
			return err
		}
		tabs := router.Overlapping(start, end)
		if ro.Reverse {
			slices.Reverse(tabs)
		}
		stale := false
		for _, tab := range tabs {
			perTablet := ro
			perTablet.Limit = remaining
			srv, err := cl.c.ServerFor(tab.ID)
			if err == nil {
				target, note := srv, func(e error) { cl.c.breakers.noteServer(srv.ID(), e) }
				if attempt == 0 {
					// Pinned scans are replica territory; retries stay on
					// the primary.
					target, note = cl.readTarget(srv, ts, ro)
				}
				sent := 0
				err = target.ParallelScan(ctx, tab.ID, group, core.ReadScanOptions(start, end, ts, perTablet), func(rows []core.Row) error {
					for _, r := range rows {
						if !fn(r) {
							return errStopScan
						}
						sent++
					}
					return nil
				})
				note(err)
				if remaining > 0 {
					if remaining -= sent; remaining <= 0 && err == nil {
						return nil
					}
				}
				if err == nil {
					continue
				}
				if errors.Is(err, errStopScan) {
					return nil
				}
			}
			if !retryableRouting(err) || attempt >= pol.MaxAttempts {
				return err
			}
			// Resume from this tablet's slice of the request range:
			// forward scans have fully streamed every tablet before it,
			// reverse scans every tablet above it.
			cl.c.obsScanResumes.Inc()
			cl.c.obsRetryAttempts.Inc()
			obs.FromContext(ctx).Label("resume", fmt.Sprintf("tablet=%s attempt=%d err=%v", tab.ID, attempt, err))
			if ro.Reverse {
				if tab.Range.End != nil && (end == nil || bytes.Compare(tab.Range.End, end) < 0) {
					end = tab.Range.End
				}
			} else if len(tab.Range.Start) > 0 && (len(start) == 0 || bytes.Compare(tab.Range.Start, start) > 0) {
				start = tab.Range.Start
			}
			stale = true
			break
		}
		if !stale {
			return nil
		}
		if err := pol.sleep(ctx, attempt+1, cl.rng); err != nil {
			return err
		}
	}
}

// Aggregate is the cluster half of the statement executor's partial
// strategy (the HTAP path over the distributed deployment): every
// tablet server owning a piece of [f.Start, f.End) folds its own
// tablets under f at the SAME pinned timestamp (query.FoldScan) and the
// mergeable partials are gathered into one exact answer. No row leaves
// a server and the OLTP write path is never blocked — writes that
// commit during the call are newer than the snapshot and invisible.
// ts 0 = latest.
//
// Servers run concurrently and are always joined before returning: the
// first failure, or cancelling ctx, stops every sibling within one scan
// batch. The scatter is side-effect free and pinned, so on a routing
// error (a split, move or failover between the router read and a scan)
// the whole of it re-runs against fresh metadata — first attempts may
// be served by caught-up replicas, re-runs stay on primaries.
func (cl *Client) Aggregate(ctx context.Context, table, group string, ts int64, f query.RelFilter, fold query.Fold) (query.Result, error) {
	cl.rpc()
	if ts == 0 {
		ts = cl.c.svc.LastTimestamp()
	}
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		res, err := cl.aggregateOnce(ctx, table, group, ts, f, fold, attempt == 0)
		if err == nil || !retryableRouting(err) || attempt >= pol.MaxAttempts {
			return res, err
		}
		cl.c.obsScanResumes.Inc()
		cl.c.obsRetryAttempts.Inc()
		obs.FromContext(ctx).Label("resume", fmt.Sprintf("attempt=%d err=%v", attempt, err))
		if err := pol.sleep(ctx, attempt+1, cl.rng); err != nil {
			return res, err
		}
	}
}

// aggregateOnce plans one scatter from the current routing metadata and
// runs it: one query.server span and one FoldScan per server, over that
// server's overlapping tablets.
func (cl *Client) aggregateOnce(ctx context.Context, table, group string, ts int64, f query.RelFilter, fold query.Fold, useReplicas bool) (query.Result, error) {
	router, err := cl.c.Router(table)
	if err != nil {
		return query.Result{}, err
	}
	// Only tablets intersecting the key range participate (the router is
	// the first push-down: whole servers can drop out of the scatter).
	type shard struct {
		target  *core.Server
		note    func(error)
		tablets []string
	}
	byPrimary := make(map[string]*shard)
	var shards []*shard
	for _, tab := range router.Overlapping(f.Start, f.End) {
		srv, err := cl.c.ServerFor(tab.ID)
		if err != nil {
			return query.Result{}, err
		}
		sh := byPrimary[srv.ID()]
		if sh == nil {
			sh = &shard{}
			sh.target, sh.note = cl.readTarget(srv, ts, readopt.Options{Primary: !useReplicas})
			byPrimary[srv.ID()] = sh
			shards = append(shards, sh)
		}
		sh.tablets = append(sh.tablets, tab.ID)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		res      = query.Result{TS: ts}
		firstErr error
		wg       sync.WaitGroup
	)
	run := func(sh *shard) {
		sctx, sp := obs.StartSpan(cctx, "query.server")
		sp.Label("server", sh.target.ID())
		sp.LabelInt("tablets", int64(len(sh.tablets)))
		part, err := query.FoldScan(sctx, sh.target, sh.tablets, group, ts, f, fold)
		sp.Finish()
		sh.note(err)
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			res.Merge(part)
		} else if firstErr == nil {
			// Siblings cancelled below report context.Canceled; the error
			// that triggered the cancellation is the one to return.
			firstErr = err
			cancel()
		}
	}
	for i, sh := range shards {
		if i == len(shards)-1 {
			run(sh) // the caller's goroutine serves the last server
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(sh)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return query.Result{}, err
	}
	if firstErr != nil {
		return query.Result{}, firstErr
	}
	return res, nil
}

// Read is the unified point read evaluated at the owning tablet server
// (core.Server.ReadRow): the visible version at ro.Snapshot, or every
// version with ro.AllVersions, filtered and limited server-side. Reads
// pinned with ro.Snapshot route to a caught-up replica of the owner
// (first attempt only); latest-timestamp reads — ro.Snapshot 0,
// resolved inside the server — always hit the primary.
func (cl *Client) Read(table, group string, key []byte, ro readopt.Options) ([]core.Row, error) {
	cl.rpc()
	var rows []core.Row
	first := true
	err := cl.retryStale(table, key, func(srv *core.Server, tablet string) error {
		if first {
			first = false
			if rep := cl.c.replicaFor(srv.ID(), ro.Snapshot, ro); rep != nil {
				r, rerr := rep.Server().ReadRow(tablet, group, key, ro)
				cl.c.breakers.note("replica:"+rep.BaseID(), rerr)
				if !retryableRouting(rerr) {
					rows = r
					return rerr
				}
			}
		}
		r, err := srv.ReadRow(tablet, group, key, ro)
		rows = r
		return err
	})
	return rows, err
}

// FullScanOpts streams live rows of the table's column group in log
// order per tablet, with the push-down options (snapshot pinning,
// prefix/key/value predicates, limit) evaluated inside each tablet
// server (core.Server.FullScanOpts). The limit is tracked across
// tablets, so the sweep stops as soon as enough surviving rows have
// streamed cluster-wide.
func (cl *Client) FullScanOpts(ctx context.Context, table, group string, ro readopt.Options, fn func(core.Row) bool) error {
	cl.rpc()
	if ro.Snapshot == 0 {
		// Pin now so stale-routing retries replay the same snapshot.
		ro.Snapshot = cl.c.svc.LastTimestamp()
	}
	remaining := ro.Limit
	// Coverage-tracking retry: on a tablet-start routing error the
	// router is re-read, and tablets whose key range is already covered
	// by a completed per-tablet scan are skipped — a tablet that split
	// mid-iteration re-appears as children, which are each contained in
	// (and so deduplicated against) the scanned parent range.
	var done []partition.Range
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		router, err := cl.c.Router(table)
		if err != nil {
			return err
		}
		tablets := router.Tablets()
		sort.Slice(tablets, func(i, j int) bool { return tablets[i].ID < tablets[j].ID })
		stale := false
		for _, tab := range tablets {
			if rangeCovered(done, tab.Range) {
				continue
			}
			perTablet := ro
			perTablet.Limit = remaining
			srv, err := cl.c.ServerFor(tab.ID)
			if err == nil {
				target, note := srv, func(e error) { cl.c.breakers.noteServer(srv.ID(), e) }
				if attempt == 0 {
					target, note = cl.readTarget(srv, ro.Snapshot, ro)
				}
				stop, sent := false, 0
				err = target.FullScanOpts(ctx, tab.ID, group, perTablet, func(r core.Row) bool {
					if !fn(r) {
						stop = true
						return false
					}
					sent++
					return true
				})
				note(err)
				if err == nil {
					if remaining > 0 {
						if remaining -= sent; remaining <= 0 {
							return nil
						}
					}
					if stop {
						return nil
					}
					done = append(done, tab.Range)
					continue
				}
			}
			if !retryableRouting(err) || attempt >= pol.MaxAttempts {
				return err
			}
			cl.c.obsScanResumes.Inc()
			cl.c.obsRetryAttempts.Inc()
			obs.FromContext(ctx).Label("resume", fmt.Sprintf("tablet=%s attempt=%d err=%v", tab.ID, attempt, err))
			stale = true
			break
		}
		if !stale {
			return nil
		}
		if err := pol.sleep(ctx, attempt+1, cl.rng); err != nil {
			return err
		}
	}
}

// rangeCovered reports whether r is contained in one of the covered
// ranges. Topology only changes by splitting and moving, so a fresh
// tablet's range is either contained in a previously scanned range or
// disjoint from it — single-range containment is a complete check.
func rangeCovered(covered []partition.Range, r partition.Range) bool {
	for _, c := range covered {
		startOK := len(c.Start) == 0 || (len(r.Start) > 0 && bytes.Compare(c.Start, r.Start) <= 0)
		endOK := c.End == nil || (r.End != nil && bytes.Compare(r.End, c.End) <= 0)
		if startOK && endOK {
			return true
		}
	}
	return false
}

// LookupSecondary returns rows of a cluster-registered secondary index
// (Cluster.RegisterSecondaryIndex) whose extracted attribute equals
// secKey, in primary-key order. Each tablet's slice of the index lives
// on its owning server; Router.Tablets() returns tablets in key order,
// so concatenating per-tablet results keeps the global order.
func (cl *Client) LookupSecondary(name string, secKey []byte) ([]core.Row, error) {
	cl.rpc()
	reg, err := cl.c.secondaryRegistration(name)
	if err != nil {
		return nil, err
	}
	// The gather restarts on stale routing (a tablet split or moved
	// mid-iteration): per-tablet results are buffered, so a restart
	// never emits duplicates.
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		router, err := cl.c.Router(reg.table)
		if err != nil {
			return nil, err
		}
		var out []core.Row
		stale := false
		for _, tab := range router.Tablets() {
			srv, err := cl.c.ServerFor(tab.ID)
			if err == nil {
				var rows []core.Row
				rows, err = srv.LookupSecondary(tabletIndexName(name, tab.ID), secKey)
				cl.c.breakers.noteServer(srv.ID(), err)
				if err == nil {
					out = append(out, rows...)
					continue
				}
			}
			if !retryableRouting(err) || attempt >= pol.MaxAttempts {
				return nil, err
			}
			stale = true
			break
		}
		if !stale {
			return out, nil
		}
		cl.c.obsRetryAttempts.Inc()
		pol.sleep(nil, attempt+1, cl.rng)
	}
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key) across the whole
// cluster. Per-tablet streams interleave arbitrarily in attribute
// order, so every match in the range is gathered from every tablet and
// sorted before fn sees the first row — an early stop saves the
// remaining callbacks, not the per-tablet scans. Bound the attribute
// range for large indexes.
func (cl *Client) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r core.Row) bool) error {
	cl.rpc()
	reg, err := cl.c.secondaryRegistration(name)
	if err != nil {
		return err
	}
	type secRow struct {
		sec []byte
		row core.Row
	}
	var all []secRow
	// Like LookupSecondary, the gather restarts with fresh metadata on
	// stale routing; rows only reach fn after the full gather, so a
	// restart never duplicates.
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		router, err := cl.c.Router(reg.table)
		if err != nil {
			return err
		}
		all = all[:0]
		stale := false
		for _, tab := range router.Tablets() {
			srv, err := cl.c.ServerFor(tab.ID)
			if err == nil {
				err = srv.ScanSecondaryRange(tabletIndexName(name, tab.ID), start, end, func(sec []byte, r core.Row) bool {
					all = append(all, secRow{sec: append([]byte(nil), sec...), row: r})
					return true
				})
				cl.c.breakers.noteServer(srv.ID(), err)
			}
			if err != nil {
				if !retryableRouting(err) || attempt >= pol.MaxAttempts {
					return err
				}
				stale = true
				break
			}
		}
		if !stale {
			break
		}
		cl.c.obsRetryAttempts.Inc()
		pol.sleep(nil, attempt+1, cl.rng)
	}
	sort.Slice(all, func(i, j int) bool {
		if c := bytes.Compare(all[i].sec, all[j].sec); c != 0 {
			return c < 0
		}
		return bytes.Compare(all[i].row.Key, all[j].row.Key) < 0
	})
	for _, sr := range all {
		if !fn(sr.sec, sr.row) {
			return nil
		}
	}
	return nil
}

// BatchOp is one mutation of a client-side write batch.
type BatchOp struct {
	Table string
	Group string
	Key   []byte
	Value []byte
	// Delete marks an invalidation instead of a write.
	Delete bool
}

// ApplyBatch routes every mutation to its owning tablet server and
// applies them as ONE append sweep per server (core.Server.ApplyBatch)
// — the cluster bulk-load path. Each mutation gets its own timestamp
// from the global authority; there is no cross-server atomicity (use
// transactions for that). On stale routing only the mutations whose
// sub-batches failed are re-routed and retried once — sub-batches that
// already landed are never re-applied (a blanket retry would append
// duplicate versions). On error, the returned indices identify the
// ops (positions in the input slice) that were NOT durably applied,
// so the caller can retry exactly those; nil indices with a nil error
// means everything applied.
func (cl *Client) ApplyBatch(ops []BatchOp) ([]int, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cl.rpc()
	remaining := make([]int, len(ops))
	for i := range ops {
		remaining[i] = i
	}
	pol := cl.c.retry
	for attempt := 0; ; attempt++ {
		byServer := make(map[*core.Server][]core.BatchWrite)
		idxOf := make(map[*core.Server][]int)
		var order []*core.Server
		var failed []int
		var lastErr error
		for _, oi := range remaining {
			op := ops[oi]
			srv, tab, err := cl.route(op.Table, op.Key)
			if err != nil {
				if retryableRouting(err) {
					failed = append(failed, oi)
					lastErr = err
					continue
				}
				// Non-retryable routing error before anything was applied
				// this attempt: all of remaining is still pending.
				return remaining, err
			}
			if _, ok := byServer[srv]; !ok {
				order = append(order, srv)
			}
			byServer[srv] = append(byServer[srv], core.BatchWrite{
				Tablet: tab, Group: op.Group, Key: op.Key, Value: op.Value,
				TS: cl.c.svc.NextTimestamp(), Delete: op.Delete,
			})
			idxOf[srv] = append(idxOf[srv], oi)
		}
		for j, srv := range order {
			err := srv.ApplyBatch(byServer[srv])
			cl.c.breakers.noteServer(srv.ID(), err)
			if err != nil {
				if retryableRouting(err) {
					failed = append(failed, idxOf[srv]...)
					lastErr = err
					continue
				}
				// Non-retryable: this server's ops plus every not-yet-
				// visited server's ops are unapplied.
				for _, s2 := range order[j:] {
					failed = append(failed, idxOf[s2]...)
				}
				sort.Ints(failed)
				return failed, err
			}
		}
		if len(failed) == 0 {
			return nil, nil
		}
		if attempt >= pol.MaxAttempts-1 {
			sort.Ints(failed)
			return failed, lastErr
		}
		cl.refresh()
		cl.c.obsRetryAttempts.Inc()
		pol.sleep(nil, attempt+1, cl.rng)
		sort.Ints(failed)
		remaining = failed
	}
}

// Txn begins a cluster-wide transaction.
func (cl *Client) Txn() *txn.Txn { return cl.c.txns.Begin() }

// RunTxn executes fn transactionally with conflict retries.
func (cl *Client) RunTxn(fn func(*txn.Txn) error) error {
	return cl.c.txns.RunTxn(20, fn)
}

// TabletFor exposes routing for tests and the transaction examples
// (transactions address tablets directly).
func (cl *Client) TabletFor(table string, key []byte) (string, error) {
	_, tab, err := cl.route(table, key)
	return tab, err
}
