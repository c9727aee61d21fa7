package logbase

// The cluster backend: the client over a simulated multi-server
// deployment. The low-level cluster.Client caches routing metadata and
// is single-goroutine by design ("create one per benchmark worker");
// ClusterClient keeps a pool of them so it is safe for concurrent use
// like *DB.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/txn"
)

// ClusterClient is the Store over a simulated cluster. Every Store
// method and the admin surface come from the embedded client; declared
// here are the backend primitives (routing through a pooled
// cluster.Client, with stale-routing retries) and Cluster. Safe for
// concurrent use.
type ClusterClient struct {
	client
	c    *Cluster
	pool sync.Pool // of *cluster.Client
}

var _ backend = (*ClusterClient)(nil)

// NewClusterClient puts the Store client in front of a cluster.
func NewClusterClient(c *Cluster) *ClusterClient {
	cc := &ClusterClient{c: c}
	cc.client = client{backend: cc, kind: "cluster", tracer: c.Tracer()}
	cc.pool.New = func() any { return c.NewClient() }
	return cc
}

// Cluster returns the underlying deployment (failover controls, stats).
func (cc *ClusterClient) Cluster() *Cluster { return cc.c }

// Metrics returns the registry shared by every tablet server in the
// cluster (series carry a {server: id} label).
func (cc *ClusterClient) Metrics() *obs.Registry { return cc.c.Metrics() }

// routed runs op on a pooled routing client with the request's root
// span parked on it, so stale-routing retries annotate the trace.
func (cc *ClusterClient) routed(ctx context.Context, op func(cl *cluster.Client) error) error {
	cl := cc.pool.Get().(*cluster.Client)
	cl.SetSpan(obs.FromContext(ctx))
	err := op(cl)
	cl.SetSpan(nil)
	cc.pool.Put(cl)
	return err
}

func (cc *ClusterClient) createTable(name string, groups []string) error {
	return cc.c.CreateTable(cluster.TableSpec{Name: name, Groups: groups})
}

func (cc *ClusterClient) lastTS() int64 { return cc.c.Coord().LastTimestamp() }

func (cc *ClusterClient) put(ctx context.Context, table, group string, key, value []byte) error {
	return cc.routed(ctx, func(cl *cluster.Client) error { return cl.Put(table, group, key, value) })
}

func (cc *ClusterClient) del(ctx context.Context, table, group string, key []byte) error {
	return cc.routed(ctx, func(cl *cluster.Client) error { return cl.Delete(table, group, key) })
}

// applyBatch persists ops per owning server; on a partial failure the
// cluster client reports which ops did NOT land, and that subset flows
// back so Flush retries only those.
func (cc *ClusterClient) applyBatch(ctx context.Context, ops []batchOp) (unapplied []int, err error) {
	batch := make([]cluster.BatchOp, len(ops))
	for i, op := range ops {
		batch[i] = cluster.BatchOp{
			Table: op.table, Group: op.group,
			Key: op.key, Value: op.value, Delete: op.delete,
		}
	}
	err = cc.routed(ctx, func(cl *cluster.Client) error {
		unapplied, err = cl.ApplyBatch(batch)
		return err
	})
	return unapplied, err
}

func (cc *ClusterClient) read(ctx context.Context, table, group string, key []byte, ro ReadOptions) (rows []Row, err error) {
	err = cc.routed(ctx, func(cl *cluster.Client) error {
		rows, err = cl.Read(table, group, key, ro)
		return err
	})
	return rows, err
}

func (cc *ClusterClient) scan(ctx context.Context, table, group string, start, end []byte, ro ReadOptions, emit func([]Row) error) error {
	return cc.routed(ctx, func(cl *cluster.Client) error {
		return batched(emit, func(fn func(Row) bool) error {
			return cl.ScanOpts(ctx, table, group, start, end, ro, fn)
		})
	})
}

func (cc *ClusterClient) fullScan(ctx context.Context, table, group string, ro ReadOptions, emit func([]Row) error) error {
	return cc.routed(ctx, func(cl *cluster.Client) error {
		return batched(emit, func(fn func(Row) bool) error {
			return cl.FullScanOpts(ctx, table, group, ro, fn)
		})
	})
}

func (cc *ClusterClient) aggregate(ctx context.Context, table, group string, ts int64, f query.RelFilter, fold query.Fold) (res QueryResult, err error) {
	err = cc.routed(ctx, func(cl *cluster.Client) error {
		res, err = cl.Aggregate(ctx, table, group, ts, f, fold)
		return err
	})
	return res, err
}

func (cc *ClusterClient) watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64, o WatchOptions) (ChangeFeed, error) {
	if fromLSN != 0 {
		return nil, errors.New("logbase: cluster changefeeds are not LSN-addressable; Watch with fromLSN 0 and dedupe by event TS")
	}
	return cc.c.Watch(ctx, table, group, start, end, o)
}

func (cc *ClusterClient) beginTxn() *txn.Txn { return cc.c.TxnManager().Begin() }

func (cc *ClusterClient) tabletFor(table, _ string, key []byte) (tab string, err error) {
	err = cc.routed(context.Background(), func(cl *cluster.Client) error {
		tab, err = cl.TabletFor(table, key)
		return err
	})
	return tab, err
}

func (cc *ClusterClient) tabletsIn(table, _ string, start, end []byte) ([]string, error) {
	router, err := cc.c.Router(table)
	if err != nil {
		return nil, err
	}
	tabs := router.Overlapping(start, end)
	ids := make([]string, len(tabs))
	for i, tab := range tabs {
		ids[i] = tab.ID
	}
	return ids, nil
}

func (cc *ClusterClient) servers() []serverSet {
	ids := cc.c.LiveServers()
	out := make([]serverSet, len(ids))
	for i, id := range ids {
		out[i] = serverSet{srv: cc.c.Server(id), replicas: cc.c.Replicas(id)}
	}
	return out
}

func (cc *ClusterClient) close() error { return cc.c.Close() }

// RegisterSecondaryIndex creates a secondary index over a table's
// column group on every owning tablet server (backfilled); see
// Cluster.RegisterSecondaryIndex.
func (cc *ClusterClient) RegisterSecondaryIndex(name, table, group string, extract Extractor) error {
	return cc.c.RegisterSecondaryIndex(name, table, group, extract)
}

// LookupSecondary returns rows whose extracted attribute equals
// secKey, in primary-key order, gathered from all tablet servers.
func (cc *ClusterClient) LookupSecondary(name string, secKey []byte) (rows []Row, err error) {
	err = cc.routed(context.Background(), func(cl *cluster.Client) error {
		rows, err = cl.LookupSecondary(name, secKey)
		return err
	})
	return rows, err
}

// ScanSecondaryRange streams rows whose extracted attribute falls in
// [start, end), ordered by (attribute, primary key) cluster-wide.
func (cc *ClusterClient) ScanSecondaryRange(name string, start, end []byte, fn func(secKey []byte, r Row) bool) error {
	return cc.routed(context.Background(), func(cl *cluster.Client) error {
		return cl.ScanSecondaryRange(name, start, end, fn)
	})
}
