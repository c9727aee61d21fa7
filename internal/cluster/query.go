package cluster

// Scatter-gather analytics (the HTAP path over the distributed
// deployment): one query fans out to every tablet server owning a
// piece of the table, each server executes it against its own
// multiversion indexes and log at the SAME pinned global timestamp, and
// the mergeable partial aggregates are gathered into one exact answer.
// No data is copied out of the transactional store, and the OLTP write
// path is never blocked — writes that commit during the query are
// simply newer than the snapshot and invisible to it.
//
// Every fan-out takes a context.Context: cancelling it propagates
// through each per-server executor into the shard scan loops, so an
// abandoned cluster query stops doing I/O within one batch boundary on
// every server and leaves no goroutine behind (the gather always joins
// its scatter goroutines before returning).

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/readopt"
)

// QueryAt executes q pinned at snapshot ts: time travel over the whole
// cluster, as cheap as a current-time query because the log keeps every
// version.
func (c *Cluster) QueryAt(ctx context.Context, table, group string, ts int64, q query.Query) (query.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ts == 0 {
		// ts 0 means "latest" on every query surface (a snapshot at
		// literal timestamp 0 sees nothing).
		ts = c.svc.LastTimestamp()
	}
	// A balancer split/migration racing the query invalidates the plan
	// (a tablet id vanishes between the router read and the scan). The
	// whole scatter is side-effect free and pinned at ts, so re-planning
	// with fresh metadata and re-running yields the identical answer.
	var res query.Result
	var err error
	pol := c.retry
	for attempt := 0; ; attempt++ {
		res, err = c.queryAtOnce(ctx, table, group, ts, q, attempt == 0)
		if err == nil || !retryableRouting(err) || attempt >= pol.MaxAttempts {
			return res, err
		}
		// Re-planned attempts show up in the caller's trace as repeated
		// query.server children plus a retry label.
		obs.FromContext(ctx).Label("retry", err.Error())
		c.obsRetryAttempts.Inc()
		if serr := pol.sleep(ctx, attempt+1, nil); serr != nil {
			return res, serr
		}
	}
}

func (c *Cluster) queryAtOnce(ctx context.Context, table, group string, ts int64, q query.Query, useReplicas bool) (query.Result, error) {
	router, err := c.Router(table)
	if err != nil {
		return query.Result{}, err
	}
	// Only tablets intersecting the key range participate (the router is
	// the first push-down: whole servers can drop out of the scatter).
	tabs := router.Overlapping(q.Filter.Start, q.Filter.End)

	type shard struct {
		server  *core.Server
		targets []query.Target
	}
	plan := make(map[string]*shard)
	for _, tab := range tabs {
		srv, err := c.ServerFor(tab.ID)
		if err != nil {
			return query.Result{}, err
		}
		// The query is pinned at ts, so a replica whose watermark covers
		// ts answers identically; re-planned attempts stay on primaries.
		if useReplicas {
			if rep := c.replicaFor(srv.ID(), ts, readopt.Options{}); rep != nil {
				srv = rep.Server()
			}
		}
		sh, ok := plan[srv.ID()]
		if !ok {
			sh = &shard{server: srv}
			plan[srv.ID()] = sh
		}
		sh.targets = append(sh.targets, query.Target{Source: srv, Tablet: tab.ID})
	}

	// Scatter: one executor per server over its local tablets. All
	// goroutines are joined before returning — cancellation makes them
	// finish fast (each shard loop checks ctx per batch), not leak.
	// The first failing server cancels its siblings the same way.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	partials := make([]query.Result, 0, len(plan))
	errs := make([]error, 0, len(plan))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range plan {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sctx, sp := obs.StartSpan(cctx, "query.server")
			sp.Label("server", sh.server.ID())
			sp.LabelInt("tablets", int64(len(sh.targets)))
			defer sp.Finish()
			snap := query.NewSnapshot(ts, sh.targets...)
			res, err := snap.Run(sctx, group, q)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				cancel()
				return
			}
			partials = append(partials, res)
		}(sh)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return query.Result{}, err
	}
	if err := query.JoinFanoutErrs(errs); err != nil {
		return query.Result{}, err
	}

	// Gather: merge the mergeable partials.
	res := query.Result{TS: ts}
	for _, p := range partials {
		res.Merge(p)
	}
	return res, nil
}
