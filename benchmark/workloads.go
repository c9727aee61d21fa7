package main

// The four workloads. Each is a closed loop from one process with at
// most two client goroutines, measured in a fixed number of stationary
// rounds: every round replays the same seeded op sequence from the same
// logical state. Every timing metric is computed per round and the run
// reports the best round, with the spread of the rounds beside it.

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	logbase "repro"
)

type runCfg struct {
	seed    uint64
	seconds float64
	tiny    bool
	// serverBin is a built cmd/logbase-server.
	serverBin string
	// tmp is the directory data dirs are created (and removed) under.
	tmp string
	// corrupt falsifies one oracle entry after set-up: the run must then
	// report failures and exit non-zero (the checker's own test).
	corrupt bool
	// place is where the server subprocess is started (see affinity.go).
	place placement
}

// rounds is how many measured rounds a workload runs: full of them at
// the benchmark's own --seconds (BENCHMARK.json's run_seconds), scaled
// with the argument otherwise. The count depends on the argument alone,
// never on how fast the rounds turn out to be.
func (cfg *runCfg) rounds(full int) int {
	if cfg.tiny {
		return 2
	}
	return max(2, int(math.Round(float64(full)*cfg.seconds/runSeconds)))
}

func (cfg *runCfg) pick(full, tiny int) int {
	if cfg.tiny {
		return tiny
	}
	return full
}

func (cfg *runCfg) mkdir(name string) (string, error) {
	return os.MkdirTemp(cfg.tmp, name+"-")
}

type workload struct {
	name string
	why  string
	run  func(cfg *runCfg) (*report, error)
}

var workloads = []workload{
	{
		name: "wire-oltp",
		why:  "the only path a remote user sees: logbase-server over 2 TCP connections, group commit on, data fits the read buffer",
		run:  runWireOLTP,
	},
	{
		name: "cluster-write",
		why:  "the paper's sustained-write path: 3-server cluster on a modelled DFS, no group commit or cache, then a server failure",
		run:  runClusterWrite,
	},
	{
		name: "scan-mixed",
		why:  "range scans, filters and aggregates beside updates on data 3x the read buffer, sorted segments under an unsorted tail",
		run:  runScanMixed,
	},
	{
		name: "recover-maint",
		why:  "the paper's recovery claim: checkpoint plus log-tail redo after restart, cold reads, then compaction and full scans",
		run:  runRecoverMaint,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// workloadOps is the seeded op streams a workload replays every round
// (golden_test.go pins their heads): one per client for wire-oltp, one
// for the cluster workloads, the write tail and the cold reads for
// recover-maint.
func workloadOps(name string, cfg *runCfg) (*keyspace, [][]op) {
	seed := cfg.seed * 1000
	switch name {
	case "wire-oltp":
		ks := newKeyspace(wireKeys(cfg), cfg.seed)
		ops := make([][]op, wireClients)
		for c := range ops {
			ops[c] = genOps(ks, newRNG(seed+uint64(c)+1), wireMix(cfg), c, wireClients)
		}
		return ks, ops
	case "cluster-write":
		ks := newKeyspace(clusterWriteKeys(cfg), cfg.seed)
		return ks, [][]op{genOps(ks, newRNG(seed+11), clusterWriteMix(cfg), 0, 1)}
	case "scan-mixed":
		ks := newKeyspace(scanMixedKeys(cfg), cfg.seed)
		return ks, [][]op{genOps(ks, newRNG(seed+22), scanMixedMix(cfg), 0, 1)}
	case "recover-maint":
		ks := newKeyspace(recoverKeys(cfg), cfg.seed)
		return ks, [][]op{
			genOps(ks, newRNG(seed+31), recoverTailMix(cfg), 0, 1),
			genOps(ks, newRNG(seed+32), recoverReadMix(cfg), 0, 1),
		}
	}
	return nil, nil
}

// userBytes is what a client's acknowledged mutations of a round carry:
// key and value per put (two of each per transaction), key per delete.
func userBytes(m mix) int64 {
	kv := int64(keyLen + valueSize)
	return int64(m.count[opPut])*kv + int64(m.count[opTx])*2*kv + int64(m.count[opDelete])*keyLen
}

func liveBytes(or *oracle) int64 {
	var n int64
	for i := range or.state {
		if or.state[i].Load() > 0 {
			n += keyLen + valueSize
		}
	}
	return n
}

// round is what one round measured: each client's record, and the wall
// time from the first op issued to the last reply checked.
type round struct {
	recs []*roundRec
	wall time.Duration
	// stolen is how long the hypervisor kept this guest's CPUs from
	// running while they had work, during the round (see stolenTime).
	stolen time.Duration
}

// runRound drives every client through its ops (concurrently when
// there are several) and returns what it measured.
func runRound(clients []*client, ops [][]op) *round {
	r := &round{recs: make([]*roundRec, len(clients))}
	for i, c := range clients {
		c.rec = &roundRec{}
		r.recs[i] = c.rec
	}
	stolen0 := stolenTime()
	t0 := time.Now()
	if len(clients) == 1 {
		clients[0].run(ops[0])
	} else {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(ops[i])
			}()
		}
		wg.Wait()
	}
	r.wall = time.Since(t0)
	r.stolen = stolenTime() - stolen0
	return r
}

// addRound records one round as one sample of every timing metric it
// holds ops for: throughput over the round's wall time, latency
// percentiles over every op of the kind in the round (tail events
// included), scan rate over the time spent inside scan ops.
func (rep *report) addRound(r *round) {
	all := &roundRec{}
	for _, rec := range r.recs {
		all.merge(rec)
	}
	ops := all.ops()
	rep.measured += r.wall
	rep.stolen += r.stolen
	if verbose {
		rep.note("round: %d ops in %.3f s, %.0f ms stolen", ops, r.wall.Seconds(), float64(r.stolen.Milliseconds()))
	}
	rep.add("ops_per_s", float64(ops)/r.wall.Seconds(), ops)
	if put := all.lat[opPut]; len(put) > 0 {
		rep.add("write_p50_us", percentileUS(put, 0.50), len(put))
		if verbose {
			rep.note("round: Put p99 %.1f us (not gated: see CALIBRATION.md)", percentileUS(put, 0.99))
		}
	}
	if get := all.lat[opGet]; len(get) > 0 {
		rep.add("read_p50_us", percentileUS(get, 0.50), len(get))
	}
	if all.scanRows > 0 {
		rep.add("scan_rows_per_s", float64(all.scanRows)/(float64(all.scanNS)/1e9), int(all.scanRows))
	}
}

func finish(rep *report, clients ...*client) {
	for _, c := range clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
	}
}

// sabotage falsifies the oracle's record of the first live key that no
// op of the streams writes: a rewritten key would put the record right
// again before anything read it.
func sabotage(or *oracle, streams [][]op) {
	written := make(map[int32]bool)
	for _, ops := range streams {
		for _, o := range ops {
			switch o.kind {
			case opPut, opDelete:
				written[o.key] = true
			case opTx:
				written[o.key], written[o.key2] = true, true
			}
		}
	}
	for i := range or.state {
		if seq := or.state[i].Load(); seq > 0 && !written[int32(i)] {
			or.state[i].Store(seq + 1)
			return
		}
	}
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// everyNth lists every step-th id below n.
func everyNth(n, step int) []int {
	var ids []int
	for i := 0; i < n; i += step {
		ids = append(ids, i)
	}
	return ids
}

func zipfIDs(ks *keyspace, r *rng, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = ks.zipf(r)
	}
	return ids
}

func uniformIDs(ks *keyspace, r *rng, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = r.intn(ks.n)
	}
	return ids
}

// --- wire-oltp ---------------------------------------------------------

const (
	wireClients = 2
	// wireRounds, and the other workloads' round counts, size the measured
	// phase to about run_seconds on the box the benchmark was calibrated on.
	wireRounds = 6
)

func wireMix(cfg *runCfg) mix {
	m := mix{scanLimit: 50}
	m.count[opPut] = cfg.pick(2000, 60)
	m.count[opGet] = cfg.pick(1800, 54)
	m.count[opScan] = cfg.pick(200, 6)
	return m
}

func wireKeys(cfg *runCfg) int { return cfg.pick(3000, 200) }

// wireDeploy is a started server with its two sessions and a preloaded
// keyspace.
type wireDeploy struct {
	sp      *serverProc
	conns   []*wireConn
	clients []*client
	or      *oracle
}

func (d *wireDeploy) close() {
	for _, c := range d.conns {
		c.close()
	}
	d.sp.stop()
}

// startWire spawns the server, opens the two sessions, creates the table
// and loads every key, each session loading the keys it will later be
// the writer of; the last key written is read back and verified.
func startWire(cfg *runCfg, keys int) (*wireDeploy, error) {
	dir, err := cfg.mkdir("wire")
	if err != nil {
		return nil, err
	}
	sp, err := startServer(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &wireDeploy{sp: sp, or: newOracle(keys)}
	for c := 0; c < wireClients; c++ {
		conn, err := dialWire(sp.addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, conn)
		d.clients = append(d.clients, newClient(c, wireClients, conn, d.or))
	}
	if err := d.conns[0].create(); err != nil {
		d.close()
		return nil, err
	}
	var wg sync.WaitGroup
	for c, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := c; id < keys; id += wireClients {
				cl.do(op{kind: opPut, key: int32(id)})
			}
		}()
	}
	wg.Wait()
	verifyKeys(d.clients[0], []int{keys - 1})
	return d, nil
}

func runWireOLTP(cfg *runCfg) (*report, error) {
	rep := newReport("wire-oltp", endToEnd)
	ks, ops := workloadOps("wire-oltp", cfg)
	keys, m := ks.n, wireMix(cfg)

	// Half the ops are updates and the server keeps every version, so a
	// round leaves the instance slower than it found it (scans walk twice
	// the versions): every round gets a fresh server.
	//
	// The shipped server keeps its DFS namespace in memory: a killed
	// server restarts empty, and what restores service for a wire user is
	// starting it again and loading the data again. Set-up and recovery
	// are the same work here, so one interval gives a sample of each:
	// every instance's start-and-load is a set-up, and for every instance
	// after the first the clock of recover_s starts earlier, at the kill
	// of its predecessor.
	var d *wireDeploy
	for r := 0; r < cfg.rounds(wireRounds); r++ {
		killed := time.Now()
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startWire(cfg, keys); err != nil {
			return nil, err
		}
		rep.add("setup_s", time.Since(t0).Seconds(), keys)
		if r > 0 {
			rep.add("recover_s", time.Since(killed).Seconds(), keys)
		}
		if cfg.corrupt && r == 0 {
			sabotage(d.or, ops)
		}
		dir0 := dirBytes(d.sp.dir)
		runtime.GC()
		rep.addRound(runRound(d.clients, ops))
		dir1 := dirBytes(d.sp.dir)
		rep.add("write_amp", float64(dir1-dir0)/float64(wireClients*userBytes(m)), 1)
		rep.add("space_amp", float64(dir1)/replicas/float64(liveBytes(d.or)), 1)
		if r == 0 {
			verifyKeys(d.clients[0], allIDs(keys))
		}
		finish(rep, d.clients...)
	}
	d.close()
	return rep, nil
}

// --- cluster-write -----------------------------------------------------

func clusterWriteMix(cfg *runCfg) mix {
	m := mix{scanLimit: 50}
	m.count[opPut] = cfg.pick(42000, 1680)
	m.count[opDelete] = cfg.pick(2500, 100)
	m.count[opGet] = cfg.pick(2500, 100)
	m.count[opTx] = cfg.pick(2500, 100)
	m.count[opScan] = cfg.pick(1000, 20)
	return m
}

const clusterWriteRounds = 10

func clusterWriteKeys(cfg *runCfg) int { return cfg.pick(60000, 2000) }

// loadedCluster builds a cluster whose servers each own a share of the
// key range and bulk-loads every key through WriteBatch.
func loadedCluster(cfg *runCfg, name string, servers int, cacheBytes int64, groupCommit bool, keys int) (*clusterDeploy, *oracle, error) {
	dir, err := cfg.mkdir(name)
	if err != nil {
		return nil, nil, err
	}
	d, err := newClusterDeploy(dir, servers, cacheBytes, groupCommit)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	or := newOracle(keys)
	ctx := context.Background()
	// A few thousand seed rows give the splits enough index leaves to
	// find population midpoints. Every key, seed rows included, is then
	// written under the final topology: a whole-log Compact keeps only
	// records that carry the id of a tablet its server still serves, so
	// a row whose only version predates the split (and carries the
	// parent's id) would be vacuumed away.
	err = bulkLoad(ctx, d.cc, or, everyNth(keys, max(1, keys/4000)), false)
	if err == nil {
		err = d.spread()
	}
	if err == nil {
		err = bulkLoad(ctx, d.cc, or, allIDs(keys), false)
	}
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, or, nil
}

// failoverSample is the key ids a failover must make readable again
// (those of them the dead server owned).
func failoverSample(keys int) []int { return everyNth(keys, max(1, keys/1024)) }

func runClusterWrite(cfg *runCfg) (*report, error) {
	rep := newReport("cluster-write", endToEnd)
	ks, ops := workloadOps("cluster-write", cfg)
	keys, m := ks.n, clusterWriteMix(cfg)

	// Write-dominated, so every round is a fresh cluster: set-up (and
	// the failover that ends the round) repeat once per round.
	for round := 0; round < cfg.rounds(clusterWriteRounds); round++ {
		runtime.GC()
		t0 := time.Now()
		d, or, err := loadedCluster(cfg, "cw", 3, 0, false, keys)
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", time.Since(t0).Seconds(), keys)
		if cfg.corrupt && round == 0 {
			sabotage(or, ops)
		}
		cl := newClient(0, 1, storeTarget{d.cc, context.Background()}, or)
		dir0 := dirBytes(d.dir)
		rep.addRound(runRound([]*client{cl}, ops))
		dir1 := dirBytes(d.dir)
		rep.add("write_amp", float64(dir1-dir0)/float64(userBytes(m)), 1)
		rep.add("space_amp", float64(dir1)/replicas/float64(liveBytes(or)), 1)

		took, err := d.failover("ts01", failoverSample(keys), or, cl)
		if err != nil {
			d.close()
			return nil, err
		}
		rep.add("recover_s", took.Seconds(), 1)
		if round == 0 {
			verifyKeys(cl, allIDs(keys))
		}
		finish(rep, cl)
		d.close()
	}
	return rep, nil
}

// --- scan-mixed --------------------------------------------------------

const (
	scanMixedCache  = 4 << 20
	scanMixedRounds = 8
)

func scanMixedMix(cfg *runCfg) mix {
	m := mix{scanLimit: 100, aggSpan: cfg.pick(1200, 100)}
	m.count[opPut] = cfg.pick(2000, 70)
	m.count[opScan] = cfg.pick(200, 20)
	m.count[opScanFilter] = cfg.pick(50, 5)
	m.count[opGet] = cfg.pick(1000, 50)
	m.count[opAggRange] = cfg.pick(50, 5)
	m.count[opAggFull] = 1
	return m
}

func scanMixedKeys(cfg *runCfg) int { return cfg.pick(60000, 2500) }

// scanMixedDeploy loads, updates and deletes, compacts everything into
// sorted segments, then updates again so about a fifth of the records
// sit in an unsorted tail over the sorted segments.
func scanMixedDeploy(cfg *runCfg, ks *keyspace) (*clusterDeploy, *oracle, error) {
	d, or, err := loadedCluster(cfg, "sm", 2, scanMixedCache, false, ks.n)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	r := newRNG(cfg.seed*1000 + 21)
	err = bulkLoad(ctx, d.cc, or, zipfIDs(ks, r, ks.n*3/10), false)
	if err == nil {
		err = bulkLoad(ctx, d.cc, or, uniformIDs(ks, r, ks.n/20), true)
	}
	if err == nil {
		err = d.c.CompactAll()
	}
	if err == nil {
		err = bulkLoad(ctx, d.cc, or, zipfIDs(ks, r, ks.n/5), false)
	}
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, or, nil
}

func runScanMixed(cfg *runCfg) (*report, error) {
	rep := newReport("scan-mixed", endToEnd)
	ks, ops := workloadOps("scan-mixed", cfg)
	keys, m := ks.n, scanMixedMix(cfg)

	// Three identical set-ups: the first two end in a server failure
	// (the recover_s samples), the third is the measured instance.
	var d *clusterDeploy
	var or *oracle
	var cl *client
	for s := 0; s < 3; s++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, or, err = scanMixedDeploy(cfg, ks); err != nil {
			return nil, err
		}
		rep.add("setup_s", time.Since(t0).Seconds(), keys)
		cl = newClient(0, 1, storeTarget{d.cc, context.Background()}, or)
		if s < 2 {
			took, err := d.failover("ts01", failoverSample(keys), or, cl)
			if err == nil && s == 0 {
				verifyKeys(cl, allIDs(keys))
			}
			finish(rep, cl)
			d.close()
			if err != nil {
				return nil, err
			}
			rep.add("recover_s", took.Seconds(), 1)
		}
	}
	defer d.close()
	if cfg.corrupt {
		sabotage(or, ops)
	}

	// One untimed round first: it fills the read buffer (the first round's
	// gets are three times slower than any later round's) and is checked
	// like the others.
	runRound([]*client{cl}, ops)
	dir0 := dirBytes(d.dir)
	rounds := cfg.rounds(scanMixedRounds)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		rep.addRound(runRound([]*client{cl}, ops))
		if r == 0 {
			// After the first measured round, so the ratio does not depend
			// on the number of rounds (every version is kept).
			rep.add("space_amp", float64(dirBytes(d.dir))/replicas/float64(liveBytes(or)), 1)
		}
	}
	dir1 := dirBytes(d.dir)
	rep.add("write_amp", float64(dir1-dir0)/float64(int64(rounds)*userBytes(m)), rounds)
	// One more failure, on the measured instance (its log is a few
	// percent longer by now), then the whole oracle through the survivor.
	took, err := d.failover("ts01", failoverSample(keys), or, cl)
	if err != nil {
		return nil, err
	}
	rep.add("recover_s", took.Seconds(), 1)
	verifyKeys(cl, allIDs(keys))
	finish(rep, cl)
	return rep, nil
}

// --- recover-maint -----------------------------------------------------

const (
	recoverRounds = 12
	// fullScans is how many times the compacted table is scanned in full.
	fullScans = 10
)

func recoverKeys(cfg *runCfg) int { return cfg.pick(100000, 3000) }

func recoverTailMix(cfg *runCfg) mix {
	var m mix
	m.count[opPut] = cfg.pick(27000, 540)
	m.count[opDelete] = cfg.pick(3000, 60)
	return m
}

func recoverReadMix(cfg *runCfg) mix {
	m := mix{scanLimit: 100}
	m.count[opGet] = cfg.pick(20000, 400)
	m.count[opScan] = cfg.pick(200, 8)
	return m
}

// life is one recover-maint round's instance.
type life struct {
	db  *logbase.DB
	dir string
	or  *oracle
	cl  *client
}

func (l *life) close() {
	l.db.Close()
	os.RemoveAll(l.dir)
}

// recoverRound is a whole life: load and checkpoint (set-up), a tail of
// uncheckpointed writes, a restart, cold reads. It runs on a fresh data
// dir so every round starts from the same state.
func recoverRound(cfg *runCfg, rep *report, ks *keyspace, tail, reads [][]op, first bool) (*life, error) {
	ctx := context.Background()
	keys := ks.n
	dir, err := cfg.mkdir("rm")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	db, err := logbase.Open(dir, logbase.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l := &life{db: db, dir: dir, or: newOracle(keys)}
	r := newRNG(cfg.seed*1000 + 33)
	if err = db.CreateTable(tableName, groupName); err == nil {
		err = bulkLoad(ctx, db, l.or, allIDs(keys), false)
	}
	if err == nil {
		err = bulkLoad(ctx, db, l.or, zipfIDs(ks, r, keys/5), false)
	}
	if err == nil {
		err = bulkLoad(ctx, db, l.or, uniformIDs(ks, r, keys/20), true)
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		l.close()
		return nil, err
	}
	loaded := int64(keys+keys/5)*(keyLen+valueSize) + int64(keys/20)*keyLen
	rep.add("setup_s", time.Since(t0).Seconds(), keys)
	if cfg.corrupt && first {
		sabotage(l.or, tail)
	}

	l.cl = newClient(0, 1, storeTarget{db, ctx}, l.or)
	rA := runRound([]*client{l.cl}, tail)
	rep.add("write_amp", float64(dirBytes(dir))/float64(loaded+userBytes(recoverTailMix(cfg))), 1)

	// Restart: drop every in-memory structure, reopen over the same
	// storage, recover, and read one key back.
	probe := l.or.liveFrom(0, 0, 1, false, nil)[0].id
	t0 = time.Now()
	if l.db, err = db.Reopen(); err != nil {
		l.close()
		return nil, err
	}
	db.Close()
	if err = l.db.CreateTable(tableName, groupName); err == nil {
		_, err = l.db.Recover()
	}
	if err != nil {
		l.close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	l.cl.tgt = storeTarget{l.db, ctx}
	verifyKeys(l.cl, []int{probe})
	rep.add("recover_s", time.Since(t0).Seconds(), 1)

	rB := runRound([]*client{l.cl}, reads)
	// One round: the tail's ops, then the cold reads', the restart between
	// them excluded. (The LIMIT scans count as ops; scan_rows_per_s is the
	// post-compaction FullScan.)
	rB.recs[0].scanRows = 0
	rA.recs = append(rA.recs, rB.recs...)
	rA.wall += rB.wall
	rA.stolen += rB.stolen
	rep.addRound(rA)
	if first {
		// Durability in full: every acknowledged write readable, no
		// deleted key resurrected, after restart and recovery.
		verifyKeys(l.cl, allIDs(keys))
	}
	return l, nil
}

func runRecoverMaint(cfg *runCfg) (*report, error) {
	rep := newReport("recover-maint", endToEnd)
	ks, ops := workloadOps("recover-maint", cfg)
	keys, tail, reads := ks.n, ops[:1], ops[1:]

	var l *life
	for round := 0; round < cfg.rounds(recoverRounds); round++ {
		if l != nil {
			finish(rep, l.cl)
			l.close()
		}
		runtime.GC()
		var err error
		if l, err = recoverRound(cfg, rep, ks, tail, reads, round == 0); err != nil {
			return nil, err
		}
	}
	defer l.close()
	defer func() { finish(rep, l.cl) }()

	// Maintenance, once, on the last instance: compact, the full scans, and
	// the whole oracle again.
	ctx := context.Background()
	if _, err := l.db.Compact(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	rep.add("space_amp", float64(dirBytes(l.dir))/replicas/float64(liveBytes(l.or)), 1)
	live := len(l.or.liveFrom(0, 0, keys, false, nil))
	for i := 0; i < fullScans; i++ {
		rows := 0
		t0 := time.Now()
		it := l.db.FullScan(ctx, tableName, groupName)
		for it.Next() {
			row := it.Row()
			rows++
			if id := parseKey(row.Key); i == 0 && id >= 0 && id < keys {
				// A deleted key's oracle entry is negative: no seq matches it.
				l.cl.checkValue("FULLSCAN row", row.Key, row.Value, expect{id, l.or.state[id].Load()})
			} else if i == 0 {
				l.cl.fail("FULLSCAN row: key %q", row.Key)
			}
		}
		took := time.Since(t0)
		l.cl.attempted++
		if err := it.Close(); err != nil {
			l.cl.fail("FULLSCAN: %v", err)
		} else if rows != live {
			l.cl.fail("FULLSCAN: %d rows, oracle %d", rows, live)
		}
		rep.add("scan_rows_per_s", float64(rows)/took.Seconds(), rows)
	}
	verifyKeys(l.cl, allIDs(keys))
	return rep, nil
}
