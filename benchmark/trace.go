package main

// The traced run. This change may not edit the program, so cost is
// attributed from outside: the workload's op stream is replayed once
// per rung of the layer stack, each time through that layer's public
// functions, and every call is recorded as a span. A layer's self time
// is its rung's median inclusive time minus the next rung's.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/readopt"
	"repro/internal/txn"
)

// span is one call into one layer. Parent is the index (in the trace
// file's span array) of the span the rung above recorded for the same
// op, or -1 at the top of the ladder.
type span struct {
	Name    string `json:"name"`
	Rung    string `json:"rung"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	rungs map[string]*rungRec
}

// rungRec is one rung's recorder: where each op's span sits in the
// trace, and the inclusive durations by op kind.
type rungRec struct {
	t     *tracer
	name  string
	names [nOpKinds]string
	above *rungRec
	byOp  []int32 // span index per op id, -1 = none
	dur   [nOpKinds][]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), rungs: map[string]*rungRec{}}
}

// rung opens the recorder of a rung over nOps ops; above names the rung
// whose span for the same op is the parent ("" at the top).
func (t *tracer) rung(name, above string, nOps int) *rungRec {
	r := &rungRec{t: t, name: name, above: t.rungs[above], byOp: make([]int32, nOps)}
	for i := range r.byOp {
		r.byOp[i] = -1
	}
	for k := range r.names {
		r.names[k] = name + "." + opNames[k]
	}
	t.mu.Lock()
	t.rungs[name] = r
	t.mu.Unlock()
	return r
}

// rec records one span. It is called after the op's end time was taken,
// so its own cost never counts as the op's.
func (r *rungRec) rec(kind opKind, opID int, start, end time.Time) {
	t := r.t
	t.mu.Lock()
	parent := -1
	if r.above != nil {
		parent = int(r.above.byOp[opID])
	}
	r.byOp[opID] = int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: r.names[kind], Rung: r.name, Op: opID,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Parent: parent,
	})
	r.dur[kind] = append(r.dur[kind], int64(end.Sub(start)))
	t.mu.Unlock()
}

// medianUS is the median inclusive time of a rung's spans of one kind,
// in µs, and how many there were; 0 when the rung recorded none.
func (t *tracer) medianUS(rung string, kind opKind) (float64, int) {
	r := t.rungs[rung]
	if r == nil || len(r.dur[kind]) == 0 {
		return 0, 0
	}
	return percentileUS(append([]int64(nil), r.dur[kind]...), 0.5), len(r.dur[kind])
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderCfg is the deployment a workload's stream is replayed on below
// the wire: its own server count, read buffer, group commit and client
// count, always on a modelled DFS so disk cost is counted.
type ladderCfg struct {
	servers     int
	cacheBytes  int64
	groupCommit bool
	clients     int
	// compacted replays on sorted segments under an unsorted tail.
	compacted bool
}

// ladderStream picks the op stream and deployment shape of a workload,
// and times the generator while at it.
func ladderStream(w *workload, cfg *runCfg) (*keyspace, []op, ladderCfg, time.Duration) {
	t0 := time.Now()
	ks, streams := workloadOps(w.name, cfg)
	whole := time.Since(t0)
	t0 = time.Now()
	newKeyspace(ks.n, cfg.seed) // the Zipf table and permutation, built once per run
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	gen := max(0, whole-time.Since(t0)) / time.Duration(max(1, n))
	// Interleave the streams so a truncated replay keeps the mix.
	var ops []op
	for i := 0; len(ops) < n; i++ {
		for _, s := range streams {
			if i < len(s) {
				ops = append(ops, s[i])
			}
		}
	}
	if limit := cfg.pick(6000, 400); len(ops) > limit {
		ops = ops[:limit]
	}
	lc := ladderCfg{servers: 1, clients: 1}
	switch w.name {
	case "wire-oltp":
		lc = ladderCfg{servers: 1, cacheBytes: 32 << 20, groupCommit: true, clients: wireClients}
	case "cluster-write":
		lc.servers = 3
	case "scan-mixed":
		lc = ladderCfg{servers: 2, cacheBytes: scanMixedCache, clients: 1, compacted: true}
	}
	return ks, ops, lc, gen
}

// clusterTarget drives the low-level routing client.
type clusterTarget struct {
	cl  *cluster.Client
	ctx context.Context
}

func (t clusterTarget) put(key, value []byte) error {
	return t.cl.Put(tableName, groupName, key, value)
}

func (t clusterTarget) get(key []byte) ([]byte, bool, error) {
	row, err := t.cl.Get(tableName, groupName, key)
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil
	}
	return row.Value, err == nil, err
}

func (t clusterTarget) del(key []byte) error { return t.cl.Delete(tableName, groupName, key) }

func scanOptions(limit int, filter bool) readopt.Options {
	ro := readopt.Options{Limit: limit}
	if filter {
		ro.Value = readopt.Contains([]byte(filterTag))
	}
	return ro
}

func (t clusterTarget) scan(start []byte, limit int, filter bool, fn func(key, value []byte)) error {
	return t.cl.ScanOpts(t.ctx, tableName, groupName, start, nil, scanOptions(limit, filter), func(r core.Row) bool {
		fn(r.Key, r.Value)
		return true
	})
}

func (t clusterTarget) tx(k1, k2 []byte, seen func(int, []byte, bool), v1, v2 []byte) error {
	return t.cl.RunTxn(func(tx *txn.Txn) error {
		var tabs [2]string
		for i, k := range [][]byte{k1, k2} {
			tab, err := t.cl.TabletFor(tableName, k)
			if err != nil {
				return err
			}
			tabs[i] = tab
			v, err := tx.Get(tab, groupName, k)
			if err != nil && !errors.Is(err, core.ErrNotFound) {
				return err
			}
			seen(i, v, err == nil)
		}
		if err := tx.Put(tabs[0], groupName, k1, v1); err != nil {
			return err
		}
		return tx.Put(tabs[1], groupName, k2, v2)
	})
}

func (t clusterTarget) agg(_, _ []byte) (int64, float64, error) { return 0, 0, errUnsupported }

// coreTarget drives tablet servers directly, each op on the server and
// tablet that hold its key: shardOf maps a key id to an index into srvs
// and tabs (nil: one shard), which are in key order.
type coreTarget struct {
	srvs    []*core.Server
	tabs    []string
	shardOf []uint8
	nextTS  func() int64
	ctx     context.Context
}

// newCoreTarget looks up, through the cluster's own routing, where every
// key id of a deployment lives.
func newCoreTarget(d *clusterDeploy, keys int, ctx context.Context) (*coreTarget, error) {
	t := &coreTarget{shardOf: make([]uint8, keys), nextTS: d.c.Coord().NextTimestamp, ctx: ctx}
	rc := d.c.NewClient()
	assign := d.c.Assignments()
	for id := 0; id < keys; id++ {
		tab, err := rc.TabletFor(tableName, keyOf(id))
		if err != nil {
			return nil, err
		}
		if n := len(t.tabs); n == 0 || t.tabs[n-1] != tab {
			srv := d.c.Server(assign[tab])
			if srv == nil {
				return nil, fmt.Errorf("tablet %s has no live server", tab)
			}
			t.srvs, t.tabs = append(t.srvs, srv), append(t.tabs, tab)
		}
		t.shardOf[id] = uint8(len(t.tabs) - 1)
	}
	return t, nil
}

func (t *coreTarget) at(key []byte) (int, *core.Server, string) {
	i := 0
	if t.shardOf != nil {
		i = int(t.shardOf[parseKey(key)])
	}
	return i, t.srvs[i], t.tabs[i]
}

func (t *coreTarget) put(key, value []byte) error {
	_, srv, tab := t.at(key)
	return srv.Write(tab, groupName, key, t.nextTS(), value)
}

func (t *coreTarget) get(key []byte) ([]byte, bool, error) {
	_, srv, tab := t.at(key)
	row, err := srv.Get(tab, groupName, key)
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil
	}
	return row.Value, err == nil, err
}

func (t *coreTarget) del(key []byte) error {
	_, srv, tab := t.at(key)
	return srv.Delete(tab, groupName, key, t.nextTS())
}

// scan starts on the shard of the start key and runs on into the next
// ones until limit rows have come back, as the routing client does.
func (t *coreTarget) scan(start []byte, limit int, filter bool, fn func(key, value []byte)) error {
	first, _, _ := t.at(start)
	ts := t.nextTS()
	for i := first; i < len(t.srvs) && limit > 0; i++ {
		opt := core.ReadScanOptions(start, nil, ts, scanOptions(limit, filter))
		err := t.srvs[i].ParallelScan(t.ctx, t.tabs[i], groupName, opt, func(rows []core.Row) error {
			for _, r := range rows {
				fn(r.Key, r.Value)
			}
			limit -= len(rows)
			return nil
		})
		if err != nil {
			return err
		}
		start = nil
	}
	return nil
}

func (t *coreTarget) tx(_, _ []byte, _ func(int, []byte, bool), _, _ []byte) error {
	return errUnsupported
}

func (t *coreTarget) agg(_, _ []byte) (int64, float64, error) { return 0, 0, errUnsupported }

// supports says which op kinds a rung's target can execute; the others
// are left out of that rung's replay.
type supports [nOpKinds]bool

var (
	// No deletes over the wire: with two sessions, one's delete landing
	// inside the other's scan would make the scan's row set a race.
	wireKinds    = supports{opPut: true, opGet: true, opScan: true}
	storeKinds   = supports{opPut: true, opGet: true, opDelete: true, opScan: true, opScanFilter: true, opTx: true, opAggRange: true, opAggFull: true}
	clusterKinds = supports{opPut: true, opGet: true, opDelete: true, opScan: true, opScanFilter: true, opTx: true}
	coreKinds    = supports{opPut: true, opGet: true, opDelete: true, opScan: true, opScanFilter: true}
)

// drive replays ops on clients, each op going to the client that owns
// its key, and records a span per op when tr is set. It returns the
// wall time of the replay.
func drive(tr *tracer, rung, above string, clients []*client, ops []op, can supports) time.Duration {
	per := make([][]op, len(clients))
	ids := make([][]int, len(clients))
	for i, o := range ops {
		if !can[o.kind] {
			continue
		}
		c := int(o.key) % len(clients)
		per[c] = append(per[c], o)
		ids[c] = append(ids[c], i)
	}
	var rr *rungRec
	if tr != nil {
		rr = tr.rung(rung, above, len(ops))
	}
	for c, cl := range clients {
		cl.opID = 0
		cl.hook = nil
		if rr != nil {
			mine := ids[c]
			cl.hook = func(kind opKind, local int, start, end time.Time) {
				rr.rec(kind, mine[local], start, end)
			}
		}
	}
	r := runRound(clients, per)
	for _, cl := range clients {
		cl.hook = nil
	}
	return r.wall
}

// pickKinds returns up to limit ops of the given kinds, in stream order.
func pickKinds(ops []op, limit int, kinds ...opKind) []op {
	var out []op
	for _, o := range ops {
		for _, k := range kinds {
			if o.kind == k && len(out) < limit {
				out = append(out, o)
			}
		}
	}
	return out
}

// probeOps is a fixed batch of one kind over Zipf keys, for the
// measurements that need a homogeneous run of calls (allocations per
// put, transactions on a workload that has none).
func probeOps(ks *keyspace, seed uint64, kind opKind, n, limit int) []op {
	var m mix
	m.count[kind] = n
	m.scanLimit = limit
	return genOps(ks, newRNG(seed), m, 0, 1)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func errf(rung string, err error) error { return fmt.Errorf("%s rung: %w", rung, err) }
