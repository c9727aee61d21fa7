package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	logbase "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/readopt"
	"repro/internal/simdisk"
	"repro/internal/textproto"
	"repro/internal/wal"
)

// ladder is one traced run: the stream, the span recorder, and the
// report the rungs fill in.
type ladder struct {
	cfg *runCfg
	ks  *keyspace
	ops []op
	lc  ladderCfg
	tr  *tracer
	rep *report
}

func runLadder(w *workload, cfg *runCfg, outDir string) (*report, error) {
	ks, ops, lc, gen := ladderStream(w, cfg)
	L := &ladder{cfg: cfg, ks: ks, ops: ops, lc: lc, tr: newTracer(), rep: newReport(w.name, perLayer)}
	L.rep.add("harness.gen_us_per_op", float64(gen.Nanoseconds())/1e3, len(ops))
	for _, rung := range []func() error{
		L.rungWire, L.rungTextproto, L.rungStore, L.rungMaint,
		L.rungWAL, L.rungIndex, L.rungCache, L.rungQuery,
	} {
		runtime.GC()
		if err := rung(); err != nil {
			return nil, err
		}
	}
	L.selfTimes()
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := L.tr.write(path); err != nil {
		return nil, err
	}
	L.rep.note("%d spans in %s", len(L.tr.spans), path)
	return L.rep, nil
}

func (L *ladder) med(rung string, kind opKind) float64 {
	v, _ := L.tr.medianUS(rung, kind)
	return v
}

// selfTimes turns the rungs' inclusive medians into per-layer self
// times: each rung minus the one below it. Scan times are per row.
func (L *ladder) selfTimes() {
	rows := float64(max(1, int(L.scanLimit())))
	scanRow := func(rung string) float64 {
		return L.med(rung, opScan) / rows
	}
	n := len(L.ops)
	L.rep.add("server.put_self_us", L.med("wire", opPut)-L.med("embedded", opPut), n)
	L.rep.add("server.get_self_us", L.med("wire", opGet)-L.med("embedded", opGet), n)
	L.rep.add("store.put_self_us", L.med("store", opPut)-L.med("cluster", opPut), n)
	L.rep.add("store.get_self_us", L.med("store", opGet)-L.med("cluster", opGet), n)
	L.rep.add("store.scan_row_self_us", scanRow("store")-scanRow("cluster"), n)
	if r := L.tr.rungs["store"]; r != nil {
		L.rep.add("store.put_p99_us", percentileUS(append([]int64(nil), r.dur[opPut]...), 0.99), len(r.dur[opPut]))
		L.rep.add("store.get_p99_us", percentileUS(append([]int64(nil), r.dur[opGet]...), 0.99), len(r.dur[opGet]))
	}
	L.rep.add("cluster.put_self_us", L.med("cluster", opPut)-L.med("core", opPut), n)
	L.rep.add("cluster.get_self_us", L.med("cluster", opGet)-L.med("core", opGet), n)
	L.rep.add("cluster.scan_row_self_us", scanRow("cluster")-scanRow("core"), n)
	L.rep.add("core.write_self_us", L.med("core", opPut)-L.med("wal", opPut), n)
	L.rep.add("core.get_self_us", L.med("core", opGet)-L.med("wal", opGet), n)
	L.rep.add("core.scan_row_self_us", scanRow("core")-scanRow("wal"), n)
	L.rep.add("wal.append_self_us", L.med("wal", opPut)-L.med("dfs", opPut), n)
	L.rep.add("wal.read_us", L.med("wal", opGet), n)
	L.rep.add("wal.readbatch_row_us", scanRow("wal"), n)
	L.rep.add("dfs.write_self_us", L.med("dfs", opPut)-L.med("simdisk", opPut), n)
	L.rep.add("dfs.read_self_us", L.med("dfs", opGet)-L.med("simdisk", opGet), n)
	L.rep.add("simdisk.write_us", L.med("simdisk", opPut), n)
	L.rep.add("simdisk.read_us", L.med("simdisk", opGet), n)
	L.rep.note("put ladder (inclusive median us): wire %.1f | store %.1f > cluster %.1f > core %.1f > wal %.1f > dfs %.1f > simdisk %.1f",
		L.med("wire", opPut), L.med("store", opPut), L.med("cluster", opPut), L.med("core", opPut),
		L.med("wal", opPut), L.med("dfs", opPut), L.med("simdisk", opPut))
	L.rep.note("get ladder (inclusive median us): wire %.1f | store %.1f > cluster %.1f > core %.1f > wal %.1f > dfs %.1f > simdisk %.1f",
		L.med("wire", opGet), L.med("store", opGet), L.med("cluster", opGet), L.med("core", opGet),
		L.med("wal", opGet), L.med("dfs", opGet), L.med("simdisk", opGet))
}

func (L *ladder) scanLimit() int32 {
	for _, o := range L.ops {
		if o.kind == opScan {
			return o.limit
		}
	}
	return 1
}

func (L *ladder) count(clients ...*client) {
	finish(L.rep, clients...)
	for _, c := range clients {
		c.attempted, c.failed = 0, 0
	}
}

// --- wire, embedded, textproto ------------------------------------------

// folded maps the stream onto a keyspace small enough to preload over
// the wire; what these rungs measure is protocol cost per op, which
// does not depend on how many keys there are.
func (L *ladder) folded() (int, []op) {
	keys := min(L.ks.n, wireKeys(L.cfg))
	keys -= keys % wireClients
	out := make([]op, len(L.ops))
	for i, o := range L.ops {
		o.key %= int32(keys)
		o.key2 %= int32(keys)
		out[i] = o
	}
	return keys, out
}

func (L *ladder) rungWire() error {
	keys, ops := L.folded()
	d, err := startWire(L.cfg, keys)
	if err != nil {
		return errf("wire", err)
	}
	defer d.close()
	var sent0, rcvd0 int64
	for _, c := range d.conns {
		sent0 += c.sent
		rcvd0 += c.rcvd
	}
	L.count(d.clients...)
	pid := d.sp.cmd.Process.Pid
	cpu0 := pidCPU(pid)
	drive(L.tr, "wire", "", d.clients, ops, wireKinds)
	cpu := pidCPU(pid) - cpu0
	var moved int64
	for _, c := range d.conns {
		moved += c.sent + c.rcvd
	}
	n := 0
	for _, c := range d.clients {
		n += c.attempted
	}
	L.count(d.clients...)
	L.rep.add("server.wire_bytes_per_op", float64(moved-sent0-rcvd0)/float64(max(1, n)), n)
	L.rep.add("server.cpu_us_per_op", float64(cpu.Microseconds())/float64(max(1, n)), n)
	L.rep.add("server.rss_peak_mb", float64(pidPeakRSS(pid))/(1<<20), 1)

	// The same ops against the store the server embeds, in process, with
	// the server's options: what is left of the round trip is the server.
	dir, err := L.cfg.mkdir("emb")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := logbase.Open(dir, logbase.Options{ReadCacheBytes: 32 << 20, GroupCommit: true})
	if err != nil {
		return errf("embedded", err)
	}
	defer db.Close()
	or := newOracle(keys)
	if err = db.CreateTable(tableName, groupName); err == nil {
		err = bulkLoad(context.Background(), db, or, allIDs(keys), false)
	}
	if err != nil {
		return errf("embedded", err)
	}
	clients := make([]*client, wireClients)
	for c := range clients {
		clients[c] = newClient(c, wireClients, storeTarget{db, context.Background()}, or)
	}
	drive(L.tr, "embedded", "wire", clients, ops, wireKinds)
	L.count(clients...)
	return nil
}

// cannedStore is the store behind the textproto rung: every reply is
// ready-made, so what Serve costs is parsing, formatting and flushing.
type cannedStore struct {
	textproto.Store // the methods the rung never calls
	value           []byte
}

func (s cannedStore) Put(context.Context, string, string, []byte, []byte) error { return nil }

func (s cannedStore) Get(_ context.Context, _, _ string, key []byte) (textproto.Row, error) {
	return textproto.Row{Key: key, TS: 1, Value: s.value}, nil
}

func (s cannedStore) Delete(context.Context, string, string, []byte) error { return nil }

func (s cannedStore) Scan(_ context.Context, _, _ string, start, _ []byte, opt readopt.Options) textproto.Iterator {
	return &cannedIter{left: opt.Limit, row: textproto.Row{Key: start, TS: 1, Value: s.value}}
}

type cannedIter struct {
	left int
	row  textproto.Row
}

func (it *cannedIter) Next() bool         { it.left--; return it.left >= 0 }
func (it *cannedIter) Row() textproto.Row { return it.row }
func (it *cannedIter) Err() error         { return nil }
func (it *cannedIter) Close() error       { return nil }

// countingConn feeds Serve a prepared request stream and counts what it
// writes back.
type countingConn struct {
	io.Reader
	writes, bytes int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return len(p), nil
}

func (L *ladder) rungTextproto() error {
	_, ops := L.folded()
	value := fillValue(make([]byte, valueSize), 0, 1)
	var lines [nOpKinds]bytes.Buffer
	var counts [nOpKinds]int
	for _, o := range ops {
		switch o.kind {
		case opPut:
			fmt.Fprintf(&lines[opPut], "PUT %s %s %s %s\n", tableName, groupName, keyOf(int(o.key)), value)
		case opGet:
			fmt.Fprintf(&lines[opGet], "GET %s %s %s\n", tableName, groupName, keyOf(int(o.key)))
		case opScan:
			fmt.Fprintf(&lines[opScan], "SCAN %s %s %s * LIMIT %d\n", tableName, groupName, keyOf(int(o.key)), o.limit)
		default:
			continue
		}
		counts[o.kind]++
	}
	store := cannedStore{value: value}
	var allocs, n uint64
	serve := func(kind opKind) (perOp float64, conn *countingConn, err error) {
		conn = &countingConn{Reader: bytes.NewReader(lines[kind].Bytes())}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err = textproto.Serve(context.Background(), conn, store)
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		n += uint64(counts[kind])
		return float64(took.Nanoseconds()) / 1e3 / float64(max(1, counts[kind])), conn, err
	}
	put, _, err := serve(opPut)
	if err != nil {
		return errf("textproto", err)
	}
	get, _, err := serve(opGet)
	if err != nil {
		return errf("textproto", err)
	}
	scan, conn, err := serve(opScan)
	if err != nil {
		return errf("textproto", err)
	}
	L.rep.add("textproto.put_us", put, counts[opPut])
	L.rep.add("textproto.get_us", get, counts[opGet])
	L.rep.add("textproto.scan_row_us", scan/float64(L.scanLimit()), counts[opScan])
	L.rep.add("textproto.conn_writes_per_scan", float64(conn.writes)/float64(max(1, counts[opScan])), counts[opScan])
	L.rep.add("textproto.allocs_per_op", float64(allocs)/float64(max(1, n)), int(n))
	L.rep.attempted += int(n)
	return nil
}

// --- store and cluster ---------------------------------------------------

// regSum adds up a registry metric over every label set whose rendered
// labels contain want ("" = all). Histograms contribute their count.
func regSum(reg *obs.Registry, name, want string) float64 {
	var v float64
	for _, m := range reg.Snapshot() {
		if m.Name != name || !strings.Contains(m.Labels, want) {
			continue
		}
		if m.Kind == "histogram" {
			v += float64(m.Hist.Count)
		} else {
			v += m.Value
		}
	}
	return v
}

func (d *clusterDeploy) diskStats() (s simdisk.Stats) {
	for i := 0; i < d.c.FS().NumDataNodes(); i++ {
		ds := d.c.FS().DataNode(i).Disk().Stats()
		s.Seeks += ds.Seeks
		s.ReadOps += ds.ReadOps
		s.WriteOps += ds.WriteOps
		s.BytesRead += ds.BytesRead
		s.BytesWritten += ds.BytesWritten
	}
	return s
}

func (d *clusterDeploy) logReads() (n int64) {
	for _, v := range d.c.StatsViews() {
		n += v.LogReads
	}
	return n
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func gcCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

func (L *ladder) rungStore() error {
	var d *clusterDeploy
	var or *oracle
	var err error
	if L.lc.compacted {
		d, or, err = scanMixedDeploy(L.cfg, L.ks)
	} else {
		d, or, err = loadedCluster(L.cfg, "ld", L.lc.servers, L.lc.cacheBytes, L.lc.groupCommit, L.ks.n)
	}
	if err != nil {
		return errf("store", err)
	}
	defer d.close()
	ctx := context.Background()
	stores := make([]*client, L.lc.clients)
	routers := make([]*client, L.lc.clients)
	for c := range stores {
		stores[c] = newClient(c, L.lc.clients, storeTarget{d.cc, ctx}, or)
		routers[c] = newClient(c, L.lc.clients, clusterTarget{d.c.NewClient(), ctx}, or)
	}
	reg := d.c.Metrics()

	// Untraced pass: the runtime's and the disks' cost per client op.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	disk0, clock0, self0 := d.diskStats(), d.clock.Elapsed(), selfCPU()
	scans0, clustered0 := regSum(reg, "logbase_op_duration_seconds", `op="scan"`), regSum(reg, "logbase_clustered_scans_total", "")
	plain := drive(nil, "", "", stores, L.ops, storeKinds)
	self := selfCPU() - self0
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	disk1, clock1 := d.diskStats(), d.clock.Elapsed()
	n := 0
	for _, c := range stores {
		n += c.attempted
	}
	L.count(stores...)
	ops := float64(max(1, n))
	L.rep.add("runtime.cpu_us_per_op", float64(self.Microseconds())/ops, n)
	L.rep.add("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, n)
	L.rep.add("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops, n)
	L.rep.add("runtime.gc_cpu_frac", (gc1-gc0)/max(cpu1-cpu0, 1e-9), n)
	// PauseNs is a ring: the pause of GC number g sits at (g+255)%256.
	var pause uint64
	for g := m1.NumGC; g > m0.NumGC && g+256 > m1.NumGC; g-- {
		pause = max(pause, m1.PauseNs[(g+255)%256])
	}
	L.rep.add("runtime.gc_pause_max_ms", float64(pause)/1e6, int(m1.NumGC-m0.NumGC))
	L.rep.add("runtime.heap_end_mb", float64(m1.HeapAlloc)/(1<<20), 1)
	L.rep.add("simdisk.disk_us_per_op", float64((clock1-clock0).Microseconds())/ops, n)
	L.rep.add("simdisk.seeks_per_op", float64(disk1.Seeks-disk0.Seeks)/ops, n)
	L.rep.add("simdisk.write_ops_per_op", float64(disk1.WriteOps-disk0.WriteOps)/ops, n)
	L.rep.add("simdisk.bytes_written_per_op", float64(disk1.BytesWritten-disk0.BytesWritten)/ops, n)
	L.rep.add("simdisk.read_ops_per_op", float64(disk1.ReadOps-disk0.ReadOps)/ops, n)
	L.rep.add("simdisk.bytes_read_per_op", float64(disk1.BytesRead-disk0.BytesRead)/ops, n)
	scans := regSum(reg, "logbase_op_duration_seconds", `op="scan"`) - scans0
	L.rep.add("core.clustered_scan_frac", (regSum(reg, "logbase_clustered_scans_total", "")-clustered0)/max(scans, 1), int(scans))

	// Traced passes: the same stream through the Store, then through the
	// routing client underneath it.
	traced := drive(L.tr, "store", "wire", stores, L.ops, storeKinds)
	L.rep.add("harness.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1, n)
	drive(L.tr, "cluster", "store", routers, L.ops, clusterKinds)
	L.count(stores...)
	L.count(routers...)

	// Homogeneous probes on client 0.
	cl := newClient(0, 1, storeTarget{d.cc, ctx}, or)
	puts := probeOps(L.ks, L.cfg.seed+101, opPut, L.cfg.pick(2000, 100), 0)
	w0 := d.diskStats().WriteOps
	runtime.ReadMemStats(&m0)
	cl.run(puts)
	runtime.ReadMemStats(&m1)
	L.rep.add("store.allocs_per_put", float64(m1.Mallocs-m0.Mallocs)/float64(len(puts)), len(puts))
	L.rep.add("store.alloc_bytes_per_put", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(puts)), len(puts))
	L.rep.add("dfs.replica_writes_per_append", float64(d.diskStats().WriteOps-w0)/float64(len(puts)), len(puts))

	scanOps := probeOps(L.ks, L.cfg.seed+102, opScan, L.cfg.pick(100, 10), int(L.scanLimit()))
	cl.rec = &roundRec{}
	runtime.ReadMemStats(&m0)
	cl.run(scanOps)
	runtime.ReadMemStats(&m1)
	L.rep.add("store.alloc_bytes_per_scan_row", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(1, cl.rec.scanRows)), int(cl.rec.scanRows))

	// Rows the servers read from their logs per row (or aggregated row)
	// handed back, over the stream's own scans, filters and aggregates.
	cl.rec = &roundRec{}
	reads0 := d.logReads()
	var results int64
	for _, o := range pickKinds(L.ops, L.cfg.pick(100, 10), opScan, opScanFilter, opAggRange) {
		cl.do(o)
		if o.kind == opAggRange {
			results += int64(len(or.liveFrom(int(o.key), int(o.key2), L.ks.n, false, nil)))
		}
	}
	results += cl.rec.scanRows
	L.rep.add("query.rows_examined_per_result", float64(d.logReads()-reads0)/float64(max(1, results)), int(results))

	txs := probeOps(L.ks, L.cfg.seed+103, opTx, L.cfg.pick(200, 20), 0)
	cl.rec = &roundRec{}
	commits0 := regSum(reg, "logbase_op_duration_seconds", `op="apply_txn"`) + regSum(reg, "logbase_op_duration_seconds", `op="commit_txn"`)
	cl.run(txs)
	commits := regSum(reg, "logbase_op_duration_seconds", `op="apply_txn"`) + regSum(reg, "logbase_op_duration_seconds", `op="commit_txn"`) - commits0
	L.rep.add("txn.commit_p50_us", percentileUS(cl.rec.lat[opTx], 0.5), len(txs))
	// Every attempt that reaches a server commits; a transaction that
	// needed more than one attempt aborted in between.
	L.rep.add("txn.abort_frac", max(0, float64(len(txs))-commits)/float64(len(txs)), len(txs))
	L.count(cl)

	L.rep.add("cluster.stale_retries", regSum(reg, "logbase_client_stale_retries_total", ""), 1)
	L.rep.add("core.clustered_validation_rejects", regSum(reg, "logbase_clustered_validation_rejects_total", ""), 1)
	var hits, misses, used int64
	var sorted, garbage float64
	views := d.c.StatsViews()
	for _, id := range sortedKeys(views) {
		cs := d.c.Server(id).CacheStats()
		hits, misses, used = hits+cs.Hits, misses+cs.Misses, used+cs.Used
		sorted += views[id].SortedFraction / float64(len(views))
		garbage += views[id].GarbageRatio / float64(len(views))
	}
	L.rep.add("cache.hit_rate", float64(hits)/float64(max(1, hits+misses)), int(hits+misses))
	L.rep.add("cache.used_mb", float64(used)/(1<<20), 1)
	L.rep.add("core.sorted_fraction", sorted, len(views))
	L.rep.add("core.garbage_ratio", garbage, len(views))

	// The core rung: the same stream once more, straight into the tablet
	// servers of this very deployment, each op on the server and tablet
	// the routing client would have picked (looked up beforehand). Same
	// indexes, same logs, same process state as the cluster rung: what is
	// left between the two is the routing client.
	ct, err := newCoreTarget(d, L.ks.n, ctx)
	if err != nil {
		return errf("core", err)
	}
	cores := make([]*client, L.lc.clients)
	for c := range cores {
		cores[c] = newClient(c, L.lc.clients, ct, or)
	}
	drive(L.tr, "core", "cluster", cores, L.ops, coreKinds)
	L.count(cores...)
	cl = newClient(0, 1, ct, or)
	cl.rec = &roundRec{}
	reads0 = d.logReads()
	cl.run(pickKinds(L.ops, L.cfg.pick(100, 10), opScan, opScanFilter))
	L.rep.add("core.log_reads_per_row", float64(d.logReads()-reads0)/float64(max(1, cl.rec.scanRows)), int(cl.rec.scanRows))
	L.count(cl)
	return nil
}

// --- core -----------------------------------------------------------------

const coreTablet = tableName + "/0000"

func modelledDFS(dir string, clock *simdisk.Clock) (*dfs.DFS, error) {
	return dfs.New(dir, dfs.Config{
		NumDataNodes: 3, ReplicationFactor: replicas, BlockSize: 4 << 20,
		DiskModel: simdisk.DefaultModel(), Clock: clock,
	})
}

// coreLoad applies (id, seq) mutations to one tablet server through
// ApplyBatch, 1000 a time.
func coreLoad(srv *core.Server, ts *atomic.Int64, or *oracle, ids []int, del bool) error {
	var batch []core.BatchWrite
	var pending []expect
	flush := func() error {
		if err := srv.ApplyBatch(batch); err != nil {
			return err
		}
		for _, e := range pending {
			or.state[e.id].Store(e.seq)
		}
		batch, pending = batch[:0], pending[:0]
		return nil
	}
	for _, id := range ids {
		seq := or.nextSeq()
		w := core.BatchWrite{Tablet: coreTablet, Group: groupName, Key: keyOf(id), TS: ts.Add(1), Delete: del}
		if del {
			seq = -seq
		} else {
			w.Value = fillValue(make([]byte, valueSize), id, seq)
		}
		batch, pending = append(batch, w), append(pending, expect{id, seq})
		if len(batch) == 1000 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// rungMaint measures a tablet server's maintenance on a server of its
// own holding every key: checkpoint, a short uncheckpointed tail,
// restart and recover, then a whole-log compaction.
func (L *ladder) rungMaint() error {
	dir, err := L.cfg.mkdir("core")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	clock := &simdisk.Clock{}
	fs, err := modelledDFS(dir, clock)
	if err != nil {
		return errf("core", err)
	}
	defer closeDFS(fs)
	ccfg := core.Config{ReadCacheBytes: L.lc.cacheBytes, GroupCommit: L.lc.groupCommit}
	srv, err := core.NewServer(fs, "ts00", ccfg)
	if err != nil {
		return errf("core", err)
	}
	defer func() { srv.Close() }()
	spec := partition.Tablet{ID: coreTablet, Table: tableName}
	srv.AddTablet(spec, []string{groupName})
	or := newOracle(L.ks.n)
	ts := &atomic.Int64{}
	if err := coreLoad(srv, ts, or, allIDs(L.ks.n), false); err != nil {
		return errf("core", err)
	}
	ct := &coreTarget{srvs: []*core.Server{srv}, tabs: []string{coreTablet}, nextTS: func() int64 { return ts.Add(1) }, ctx: context.Background()}
	cl := newClient(0, 1, ct, or)

	t0 := time.Now()
	if err := srv.Checkpoint(); err != nil {
		return errf("core", err)
	}
	L.rep.add("core.checkpoint_s", time.Since(t0).Seconds(), 1)
	cl.run(probeOps(L.ks, L.cfg.seed+104, opPut, L.cfg.pick(5000, 100), 0))
	srv.Close()
	if srv, err = core.NewServer(fs, "ts00", ccfg); err != nil {
		return errf("core", err)
	}
	ct.srvs[0] = srv
	srv.AddTablet(spec, []string{groupName})
	clock0 := clock.Elapsed()
	st, err := srv.Recover()
	if err != nil {
		return errf("core", err)
	}
	L.rep.add("core.recover_records_scanned", float64(st.RecordsScanned), 1)
	L.rep.add("core.recover_entries_restored", float64(st.EntriesRestored), 1)
	L.rep.add("core.recover_records_per_s", float64(st.RecordsScanned+st.EntriesRestored)/st.Elapsed.Seconds(), 1)
	L.rep.add("core.recover_disk_ms", float64((clock.Elapsed()-clock0).Microseconds())/1e3, 1)
	sample := everyNth(L.ks.n, max(1, L.ks.n/1000))
	verifyKeys(cl, sample)

	logBytes := srv.Log().Size()
	t0 = time.Now()
	cs, err := srv.Compact()
	if err != nil {
		return errf("core", err)
	}
	L.rep.add("core.compact_mb_per_s", float64(logBytes)/(1<<20)/time.Since(t0).Seconds(), 1)
	L.rep.add("core.compact_records_in", float64(cs.RecordsIn), 1)
	L.rep.add("core.compact_dropped", float64(cs.Dropped), 1)
	L.rep.add("core.compact_bytes_reclaimed", float64(cs.BytesReclaimed), 1)
	L.rep.add("core.compact_stalls", regSum(srv.Metrics(), "logbase_compact_stalls_total", ""), 1)
	verifyKeys(cl, sample)
	L.count(cl)
	return nil
}

// --- wal, dfs, simdisk ------------------------------------------------------

func (L *ladder) record(id int, seq, ts int64) *wal.Record {
	return &wal.Record{
		Kind: wal.KindWrite, Table: tableName, Tablet: coreTablet, Group: groupName,
		Key: keyOf(id), TS: ts, Value: fillValue(make([]byte, valueSize), id, seq),
	}
}

// ioStep is one disk-level step of the stream as the wal rung performed
// it: an append of n bytes, or a read of n bytes at off.
type ioStep struct {
	kind opKind
	op   int
	off  int64
	n    int
}

func (L *ladder) rungWAL() error {
	dir, err := L.cfg.mkdir("wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := modelledDFS(dir, &simdisk.Clock{})
	if err != nil {
		return errf("wal", err)
	}
	defer closeDFS(fs)
	// One segment, so the offsets the dfs and simdisk rungs replay are
	// offsets into one file.
	log, err := wal.Open(fs, "log/ts00", wal.Options{SegmentSize: 1 << 40})
	if err != nil {
		return errf("wal", err)
	}
	ptrs := make([]wal.Ptr, L.ks.n)
	var seq int64
	var preload []int
	for lo := 0; lo < L.ks.n; lo += 1000 {
		var recs []*wal.Record
		for id := lo; id < min(lo+1000, L.ks.n); id++ {
			seq++
			recs = append(recs, L.record(id, seq, seq))
		}
		got, err := log.Append(recs...)
		if err != nil {
			return errf("wal", err)
		}
		size := 0
		for i, p := range got {
			ptrs[lo+i] = p
			size += int(p.Len)
		}
		preload = append(preload, size)
	}

	// Encode and decode, on their own.
	rec := L.record(0, 1, 1)
	const codecN = 20000
	t0 := time.Now()
	var frame []byte
	for i := 0; i < codecN; i++ {
		frame = wal.Encode(rec)
	}
	L.rep.add("wal.encode_us", float64(time.Since(t0).Nanoseconds())/1e3/codecN, codecN)
	t0 = time.Now()
	for i := 0; i < codecN; i++ {
		if _, _, err := wal.Decode(frame); err != nil {
			return errf("wal", err)
		}
	}
	L.rep.add("wal.decode_us", float64(time.Since(t0).Nanoseconds())/1e3/codecN, codecN)

	// The stream: an append per put, a read per get, a batched read per
	// scan (the pointers of the next keys in key order).
	var steps []ioStep
	rr := L.tr.rung("wal", "core", len(L.ops))
	var m0, m1 runtime.MemStats
	var appends int
	runtime.ReadMemStats(&m0)
	for i, o := range L.ops {
		id := int(o.key)
		switch o.kind {
		case opPut:
			seq++
			r := L.record(id, seq, seq)
			t0 := time.Now()
			got, err := log.Append(r)
			t1 := time.Now()
			if err != nil {
				return errf("wal", err)
			}
			rr.rec(opPut, i, t0, t1)
			ptrs[id] = got[0]
			steps = append(steps, ioStep{opPut, i, got[0].Off, int(got[0].Len)})
			appends++
		case opGet:
			t0 := time.Now()
			got, err := log.Read(ptrs[id])
			t1 := time.Now()
			if err != nil || parseKey(got.Key) != id {
				return errf("wal", fmt.Errorf("read %v: key %q, %v", ptrs[id], got.Key, err))
			}
			rr.rec(opGet, i, t0, t1)
			steps = append(steps, ioStep{opGet, i, ptrs[id].Off, int(ptrs[id].Len)})
		case opScan:
			batch := ptrs[id:min(id+int(o.limit), L.ks.n)]
			t0 := time.Now()
			_, err := log.ReadBatch(batch)
			t1 := time.Now()
			if err != nil {
				return errf("wal", err)
			}
			rr.rec(opScan, i, t0, t1)
		}
	}
	runtime.ReadMemStats(&m1)
	L.rep.attempted += len(steps)
	L.rep.add("wal.allocs_per_append", float64(m1.Mallocs-m0.Mallocs)/float64(max(1, len(L.ops))), appends)
	records := seq
	L.rep.add("wal.bytes_per_record", float64(log.Size())/float64(records), int(records))

	// Sequential sweeps: per segment, and over the whole log.
	rows := 0
	t0 = time.Now()
	for _, si := range log.Segments() {
		sc, err := log.OpenSegmentScanner(si.Num, 0)
		if err != nil {
			return errf("wal", err)
		}
		for sc.Next() {
			rows++
		}
		err = sc.Err()
		sc.Close()
		if err != nil {
			return errf("wal", err)
		}
	}
	L.rep.add("wal.segscan_rows_per_s", float64(rows)/time.Since(t0).Seconds(), rows)
	rows = 0
	t0 = time.Now()
	sc := log.NewScanner(wal.Position{})
	for sc.Next() {
		rows++
	}
	if err := sc.Err(); err != nil {
		return errf("wal", err)
	}
	L.rep.add("wal.scanner_rows_per_s", float64(rows)/time.Since(t0).Seconds(), rows)

	// Group commit: two appenders through the batcher, against the
	// direct appends above.
	reg := obs.NewRegistry()
	flushRecords := reg.Histogram("flush_records", "", nil)
	b := wal.NewBatcher(log, 0, 0)
	b.SetMetrics(reg.Histogram("flush_seconds", "", nil), flushRecords)
	per := L.cfg.pick(400, 20)
	lat := make([][]int64, 2)
	var wg sync.WaitGroup
	var berr atomic.Value
	for a := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := L.record((a*per+i)%L.ks.n, 1, int64(a*per+i))
				t0 := time.Now()
				if _, err := b.Append(r); err != nil {
					berr.Store(err)
					return
				}
				lat[a] = append(lat[a], int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	b.Close()
	if err, _ := berr.Load().(error); err != nil {
		return errf("wal", err)
	}
	direct, _ := L.tr.medianUS("wal", opPut)
	L.rep.add("wal.groupcommit_wait_us", percentileUS(append(lat[0], lat[1]...), 0.5)-direct, 2*per)
	L.rep.add("wal.flush_records_mean", flushRecords.Snapshot().Mean(), int(flushRecords.Snapshot().Count))
	L.rep.attempted += 2 * per

	if err := L.rungDFS(preload, steps); err != nil {
		return err
	}
	return L.rungSimdisk(preload, steps)
}

// rungDFS repeats the wal rung's appends and reads, same sizes and
// offsets, against a DFS file.
func (L *ladder) rungDFS(preload []int, steps []ioStep) error {
	dir, err := L.cfg.mkdir("dfs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := modelledDFS(dir, &simdisk.Clock{})
	if err != nil {
		return errf("dfs", err)
	}
	defer closeDFS(fs)
	w, err := fs.Create("log/ts00/seg")
	if err != nil {
		return errf("dfs", err)
	}
	buf := make([]byte, 1<<20)
	// The segment header the log wrote first.
	if _, err := w.Write(buf[:wal.SegmentHeaderSize]); err != nil {
		return errf("dfs", err)
	}
	for _, n := range preload {
		if _, err := w.Write(buf[:n]); err != nil {
			return errf("dfs", err)
		}
	}
	r, err := fs.Open("log/ts00/seg")
	if err != nil {
		return errf("dfs", err)
	}
	rr := L.tr.rung("dfs", "wal", len(L.ops))
	for _, s := range steps {
		t0 := time.Now()
		if s.kind == opPut {
			_, err = w.Write(buf[:s.n])
		} else {
			_, err = r.ReadAt(buf[:s.n], s.off)
		}
		t1 := time.Now()
		if err != nil {
			return errf("dfs", fmt.Errorf("%s %d@%d: %w", opNames[s.kind], s.n, s.off, err))
		}
		rr.rec(s.kind, s.op, t0, t1)
	}
	L.rep.attempted += len(steps)
	return nil
}

// rungSimdisk repeats them once more against bare simulated disks: a
// write goes to one file on each of the three, a read to one.
func (L *ladder) rungSimdisk(preload []int, steps []ioStep) error {
	dir, err := L.cfg.mkdir("disk")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	clock := &simdisk.Clock{}
	var files []*simdisk.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for i := 0; i < replicas; i++ {
		disk, err := simdisk.New(filepath.Join(dir, "dn"+strconv.Itoa(i)), simdisk.DefaultModel(), clock)
		if err != nil {
			return errf("simdisk", err)
		}
		f, err := disk.Create("seg")
		if err != nil {
			return errf("simdisk", err)
		}
		files = append(files, f)
	}
	buf := make([]byte, 1<<20)
	off := int64(0)
	write := func(n int) error {
		for _, f := range files {
			if _, err := f.WriteAt(buf[:n], off); err != nil {
				return err
			}
		}
		off += int64(n)
		return nil
	}
	if err := write(wal.SegmentHeaderSize); err != nil {
		return errf("simdisk", err)
	}
	for _, n := range preload {
		if err := write(n); err != nil {
			return errf("simdisk", err)
		}
	}
	rr := L.tr.rung("simdisk", "dfs", len(L.ops))
	for _, s := range steps {
		t0 := time.Now()
		if s.kind == opPut {
			err = write(s.n)
		} else {
			_, err = files[0].ReadAt(buf[:s.n], s.off)
		}
		t1 := time.Now()
		if err != nil {
			return errf("simdisk", err)
		}
		rr.rec(s.kind, s.op, t0, t1)
	}
	L.rep.attempted += len(steps)
	return nil
}

// --- side rungs: index, cache, readopt and query ---------------------------

// us is d spread over n calls, in µs per call.
func us(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(1, n)) }

func (L *ladder) rungIndex() error {
	tree := index.New()
	var seq int64
	entry := func(id int) index.Entry {
		seq++
		return index.Entry{Key: keyOf(id), TS: seq, Ptr: wal.Ptr{Seg: 1, Off: seq * 300, Len: 300}, LSN: uint64(seq)}
	}
	for id := 0; id < L.ks.n; id++ {
		tree.Put(entry(id))
	}
	var put, latest, ranged time.Duration
	var puts, latests, entries int
	for _, o := range L.ops {
		id := int(o.key)
		switch o.kind {
		case opPut:
			e := entry(id)
			t0 := time.Now()
			tree.Put(e)
			put += time.Since(t0)
			puts++
		case opGet:
			k := keyOf(id)
			t0 := time.Now()
			_, ok := tree.LatestAt(k, seq)
			latest += time.Since(t0)
			latests++
			if !ok {
				return errf("index", fmt.Errorf("LatestAt(%s) found nothing", k))
			}
		case opScan:
			left := int(o.limit)
			t0 := time.Now()
			tree.RangeLatest(keyOf(id), nil, seq, func(index.Entry) bool {
				entries++
				left--
				return left > 0
			})
			ranged += time.Since(t0)
		}
	}
	L.rep.add("index.put_us", us(put, puts), puts)
	L.rep.add("index.latest_us", us(latest, latests), latests)
	L.rep.add("index.range_entry_us", us(ranged, entries), entries)
	L.rep.add("index.mem_bytes_per_entry", float64(tree.MemBytes())/float64(tree.Len()), tree.Len())
	L.rep.attempted += puts + latests

	all := make([]index.Entry, 0, tree.Len())
	tree.Ascend(func(e index.Entry) bool {
		all = append(all, e)
		return true
	})
	t0 := time.Now()
	bulk := index.Bulk(all)
	L.rep.add("index.bulk_entries_per_s", float64(len(all))/time.Since(t0).Seconds(), len(all))
	if bulk.Len() != len(all) {
		return errf("index", fmt.Errorf("Bulk kept %d of %d entries", bulk.Len(), len(all)))
	}

	dir, err := L.cfg.mkdir("idx")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := modelledDFS(dir, &simdisk.Clock{})
	if err != nil {
		return errf("index", err)
	}
	defer closeDFS(fs)
	t0 = time.Now()
	n, err := tree.Flush(fs, "idx/file")
	took := time.Since(t0)
	if err != nil {
		return errf("index", err)
	}
	size, _ := fs.Size("idx/file")
	L.rep.add("index.flush_mb_per_s", float64(size)/(1<<20)/took.Seconds(), n)
	t0 = time.Now()
	loaded, err := index.Load(fs, "idx/file")
	if err != nil {
		return errf("index", err)
	}
	L.rep.add("index.load_entries_per_s", float64(loaded.Len())/time.Since(t0).Seconds(), loaded.Len())
	return nil
}

func (L *ladder) rungCache() error {
	// The workload's read-buffer size; where it runs without one, the
	// smallest buffer any workload uses, so the calls still cost what
	// they would.
	capacity := L.lc.cacheBytes
	if capacity == 0 {
		capacity = scanMixedCache
	}
	c := cache.New(capacity, nil)
	value := fillValue(make([]byte, valueSize), 0, 1)
	var get, put, inv time.Duration
	var gets, puts, invs int
	for _, o := range L.ops {
		key := tableName + "\x00" + groupName + "\x00" + string(keyOf(int(o.key)))
		switch o.kind {
		case opGet:
			t0 := time.Now()
			_, ok := c.Get(key)
			get += time.Since(t0)
			gets++
			if !ok {
				c.Put(key, value)
			}
		case opPut:
			t0 := time.Now()
			c.Put(key, value)
			put += time.Since(t0)
			puts++
		case opDelete, opScan:
			// A scan invalidates nothing in the program; it stands in here
			// so that every workload's stream exercises Invalidate.
			t0 := time.Now()
			c.Invalidate(key)
			inv += time.Since(t0)
			invs++
		}
	}
	L.rep.add("cache.get_us", us(get, gets), gets)
	L.rep.add("cache.put_us", us(put, puts), puts)
	L.rep.add("cache.invalidate_us", us(inv, invs), invs)
	L.rep.attempted += gets + puts + invs
	return nil
}

func (L *ladder) rungQuery() error {
	const n = 50000
	rows := make([]core.Row, 256)
	for i := range rows {
		id := L.ks.zipf(newRNG(uint64(i)))
		rows[i] = core.Row{Key: keyOf(id), TS: 1, Value: fillValue(make([]byte, valueSize), id, int64(i+1))}
	}
	pred := readopt.Contains([]byte(filterTag))
	matched := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if pred.Match(rows[i%len(rows)].Value) {
			matched++
		}
	}
	L.rep.add("readopt.pred_eval_ns", float64(time.Since(t0).Nanoseconds())/n, n)
	if matched == 0 || matched == n {
		return errf("query", fmt.Errorf("value filter matched %d of %d rows", matched, n))
	}
	seqField := query.ValField(1)
	var st query.AggState
	t0 = time.Now()
	for i := 0; i < n; i++ {
		v, ok := seqField.Eval(rows[i%len(rows)])
		if !ok {
			return errf("query", fmt.Errorf("no field 1 in %q", rows[i%len(rows)].Value))
		}
		f, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			return errf("query", err)
		}
		st.Add(f)
	}
	L.rep.add("query.agg_rows_per_s", n/time.Since(t0).Seconds(), n)
	L.rep.attempted += 2 * n
	return nil
}
