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

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/readopt"
	"repro/internal/repl"
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
// Only first attempts may go to a replica: retries set ro.Primary or
// read the primary directly, the always-correct fallback. It returns
// the server to read and the replica behind it (nil for the primary),
// whose outcome the caller MUST report through noteReplica so the
// replica's circuit breaker observes it.
func (cl *Client) readTarget(srv *core.Server, ts int64, ro readopt.Options) (*core.Server, *repl.Replica) {
	if rep := cl.c.replicaFor(srv.ID(), ts, ro); rep != nil {
		return rep.Server(), rep
	}
	return srv, nil
}

// retryableRouting reports whether err means "routing metadata is
// stale or about to change": a moved/split tablet, a dead server, or a
// tablet frozen for a migration cutover (ErrTabletFrozen wraps
// ErrUnknownTablet).
func retryableRouting(err error) bool {
	return errors.Is(err, core.ErrUnknownTablet) || errors.Is(err, ErrServerDown)
}

// retryStale runs op under the cluster's unified retry policy,
// refreshing the metadata cache and backing off (exponential,
// jittered) while the op keeps hitting a moved/frozen tablet or a dead
// server. A split or failover invalidates the cache instantly (one
// refresh suffices), but a live-migration cutover has a window where
// the source already rejects mutations (ErrTabletFrozen) and the
// routing flip has not landed yet — backoff rides that window out.
func (cl *Client) retryStale(table string, key []byte, op func(srv *core.Server, tablet string) error) error {
	pol := cl.c.retry
	var err error
	for attempt := 0; attempt < pol.maxAttempts; attempt++ {
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
		}
		if err == nil || !retryableRouting(err) {
			return err
		}
	}
	return err
}

// Put writes a row version into a column group (auto-commit); the
// version timestamp comes from the global timestamp authority, in
// flight (coord.Service.Issue) until Put returns.
func (cl *Client) Put(table, group string, key, value []byte) error {
	ts := cl.c.svc.Issue()
	defer cl.c.svc.Release(ts)
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
	ts := cl.c.svc.Issue()
	defer cl.c.svc.Release(ts)
	return cl.retryStale(table, key, func(srv *core.Server, tablet string) error {
		return srv.Delete(tablet, group, key, ts)
	})
}

// errStopScan signals "fn asked to stop": a clean early end, not a
// failure.
var errStopScan = errors.New("cluster: scan consumer stopped")

// eachTablet is the one stale-routing loop of every multi-tablet
// operation: it calls visit once for each tablet overlapping
// [start, end), in key order (descending with ro.Reverse), on the
// tablet's owner — or, on the first attempt only, on a qualifying read
// replica of it (readTarget at ts; ts 0 and every later attempt stay
// on the primary). A replica's outcome feeds its circuit breaker.
// errStopScan from visit ends the loop cleanly. On a routing error the
// router is re-read and tablets whose range a finished visit already
// covered are skipped: topology only splits and moves tablets, so a
// split visited tablet re-appears as children contained in its range
// (rangeCovered), and no tablet is visited twice. visit must fail a
// tablet before it emits anything for a resume to be duplicate-free,
// which is what a tablet-start routing error does.
func (cl *Client) eachTablet(ctx context.Context, table string, start, end []byte, ts int64, ro readopt.Options,
	visit func(tab partition.Tablet, target *core.Server) error) error {
	var done []partition.Range
	for attempt := 0; ; attempt++ {
		router, err := cl.c.Router(table)
		if err != nil {
			return err
		}
		tabs := router.Overlapping(start, end)
		if ro.Reverse {
			slices.Reverse(tabs)
		}
		var failed string
		for _, tab := range tabs {
			if rangeCovered(done, tab.Range) {
				continue
			}
			var srv *core.Server
			if srv, err = cl.c.ServerFor(tab.ID); err == nil {
				pick := ro
				pick.Primary = ro.Primary || attempt > 0
				target, rep := cl.readTarget(srv, ts, pick)
				err = visit(tab, target)
				cl.c.noteReplica(rep, err)
			}
			if err != nil {
				failed = tab.ID
				break
			}
			done = append(done, tab.Range)
		}
		switch {
		case err == nil || errors.Is(err, errStopScan):
			return nil
		case !retryableRouting(err) || attempt >= cl.c.retry.maxAttempts:
			return err
		}
		if err := cl.resume(ctx, "tablet="+failed, attempt, err); err != nil {
			return err
		}
	}
}

// resume accounts for one stale-routing resume of a multi-tablet
// operation — the scan-resume and retry-attempt counters, a resume=
// label on the request span (ctx's, else the parked one) — and backs
// off before attempt+1, returning early with ctx's error.
func (cl *Client) resume(ctx context.Context, where string, attempt int, err error) error {
	cl.c.obsScanResumes.Inc()
	cl.c.obsRetryAttempts.Inc()
	label := fmt.Sprintf("attempt=%d err=%v", attempt, err)
	if where != "" {
		label = where + " " + label
	}
	sp := obs.FromContext(ctx)
	if sp == nil {
		sp = cl.span
	}
	sp.Label("resume", label)
	return cl.c.retry.sleep(ctx, attempt+1, cl.rng)
}

// rangeCovered reports whether r is contained in one of the covered
// ranges. Topology only changes by splitting and moving, so a fresh
// tablet's range is either contained in a previously visited range or
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

// ScanOpts streams the rows of [start, end) matching the push-down
// options across every tablet the range spans. The options are
// evaluated INSIDE each tablet server (core.ReadScanOptions): a
// limited or filtered scan ships only surviving rows, and stops
// issuing log reads once the cross-tablet limit is satisfied.
//
// Row order is ascending key order — descending with ro.Reverse, which
// visits tablets in reverse range order and walks each tablet's index
// backwards. The snapshot is pinned once up front (ro.Snapshot, 0 =
// latest), so the stream is consistent across stale-routing resumes
// (eachTablet): completed tablets are never re-streamed and the limit
// never double-counts.
func (cl *Client) ScanOpts(ctx context.Context, table, group string, start, end []byte, ro readopt.Options, fn func(core.Row) bool) error {
	ts := ro.Snapshot
	if ts == 0 {
		ts = cl.c.svc.LastTimestamp()
	}
	// Fold the prefix into the routing bounds once; per-server options
	// then re-clamp harmlessly.
	start, end = ro.ClampRange(start, end)
	ro.Prefix = nil
	remaining := ro.Limit
	return cl.eachTablet(ctx, table, start, end, ts, ro, func(tab partition.Tablet, target *core.Server) error {
		perTablet := ro
		perTablet.Limit = remaining
		sent := 0
		err := target.ParallelScan(ctx, tab.ID, group, core.ReadScanOptions(start, end, ts, perTablet), func(rows []core.Row) error {
			for _, r := range rows {
				if !fn(r) {
					return errStopScan
				}
				sent++
			}
			return nil
		})
		if remaining > 0 {
			if remaining -= sent; remaining <= 0 && err == nil {
				return errStopScan
			}
		}
		return err
	})
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
	if ts == 0 {
		ts = cl.c.svc.LastTimestamp()
	}
	for attempt := 0; ; attempt++ {
		res, err := cl.aggregateOnce(ctx, table, group, ts, f, fold, attempt == 0)
		if err == nil || !retryableRouting(err) || attempt >= cl.c.retry.maxAttempts {
			return res, err
		}
		if err := cl.resume(ctx, "", attempt, err); err != nil {
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
		rep     *repl.Replica
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
			sh.target, sh.rep = cl.readTarget(srv, ts, readopt.Options{Primary: !useReplicas})
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
		cl.c.noteReplica(sh.rep, err)
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
	var rows []core.Row
	first := true
	err := cl.retryStale(table, key, func(srv *core.Server, tablet string) error {
		if first {
			first = false
			if target, rep := cl.readTarget(srv, ro.Snapshot, ro); rep != nil {
				r, rerr := target.ReadRow(tablet, group, key, ro)
				cl.c.noteReplica(rep, rerr)
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
	if ro.Snapshot == 0 {
		// Pin now so stale-routing resumes replay the same snapshot.
		ro.Snapshot = cl.c.svc.LastTimestamp()
	}
	remaining := ro.Limit
	return cl.eachTablet(ctx, table, nil, nil, ro.Snapshot, ro, func(tab partition.Tablet, target *core.Server) error {
		perTablet := ro
		perTablet.Limit = remaining
		stop, sent := false, 0
		err := target.FullScanOpts(ctx, tab.ID, group, perTablet, func(r core.Row) bool {
			sent++
			stop = !fn(r)
			return !stop
		})
		if remaining > 0 {
			remaining -= sent
			stop = stop || remaining <= 0
		}
		if err == nil && stop {
			return errStopScan
		}
		return err
	})
}

// LookupSecondary returns rows of a cluster-registered secondary index
// (Cluster.RegisterSecondaryIndex) whose extracted attribute equals
// secKey, in primary-key order. Each tablet's slice of the index lives
// on its owning primary; tablets are visited in key order, so
// concatenating per-tablet results keeps the global order.
func (cl *Client) LookupSecondary(name string, secKey []byte) ([]core.Row, error) {
	reg, err := cl.c.secondaryRegistration(name)
	if err != nil {
		return nil, err
	}
	var out []core.Row
	err = cl.eachTablet(context.TODO(), reg.table, nil, nil, 0, readopt.Options{Primary: true}, func(tab partition.Tablet, srv *core.Server) error {
		rows, err := srv.LookupSecondary(tabletIndexName(name, tab.ID), secKey)
		out = append(out, rows...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key) across the whole
// cluster. Per-tablet streams interleave arbitrarily in attribute
// order, so every match in the range is gathered from every tablet and
// sorted before fn sees the first row — an early stop saves the
// remaining callbacks, not the per-tablet scans. Bound the attribute
// range for large indexes.
func (cl *Client) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r core.Row) bool) error {
	reg, err := cl.c.secondaryRegistration(name)
	if err != nil {
		return err
	}
	type secRow struct {
		sec []byte
		row core.Row
	}
	var all []secRow
	err = cl.eachTablet(context.TODO(), reg.table, nil, nil, 0, readopt.Options{Primary: true}, func(tab partition.Tablet, srv *core.Server) error {
		return srv.ScanSecondaryRange(tabletIndexName(name, tab.ID), start, end, func(sec []byte, r core.Row) bool {
			all = append(all, secRow{sec: append([]byte(nil), sec...), row: r})
			return true
		})
	})
	if err != nil {
		return err
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
// from the global authority; the first is in flight
// (coord.Service.Issue) until ApplyBatch returns, which keeps every
// later one above the low-water mark too. There is no cross-server
// atomicity (use transactions for that). On stale routing only the
// mutations whose sub-batches failed are re-routed and retried once —
// sub-batches that already landed are never re-applied (a blanket retry
// would append duplicate versions). On error, the returned indices
// identify the ops (positions in the input slice) that were NOT durably
// applied, so the caller can retry exactly those; nil indices with a
// nil error means everything applied.
func (cl *Client) ApplyBatch(ops []BatchOp) ([]int, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	remaining := make([]int, len(ops))
	for i := range ops {
		remaining[i] = i
	}
	first := cl.c.svc.Issue()
	defer cl.c.svc.Release(first)
	issued := false
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
			ts := first
			if issued {
				ts = cl.c.svc.NextTimestamp()
			}
			issued = true
			byServer[srv] = append(byServer[srv], core.BatchWrite{
				Tablet: tab, Group: op.Group, Key: op.Key, Value: op.Value,
				TS: ts, Delete: op.Delete,
			})
			idxOf[srv] = append(idxOf[srv], oi)
		}
		for j, srv := range order {
			err := srv.ApplyBatch(byServer[srv])
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
		if attempt >= pol.maxAttempts-1 {
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
