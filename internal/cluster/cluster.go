// Package cluster assembles LogBase's distributed architecture (paper
// §3.3) in one process: N tablet servers over a shared DFS, the master's
// duties — tablet assignment, failover of a dead server's tablets to
// its promoted replica or the survivors, load balancing — as Cluster
// methods, and clients that route by key through cached metadata. It is
// the one deployment: the embedded logbase.DB is a cluster of one.
//
// The in-process substitution keeps the interactions a client can
// observe — tablet assignment, log-split failover, stale routing caches,
// commit timestamps and MVOCC locks from the coordination service —
// while replacing RPC with method calls. Liveness is the server table's
// alive flag, and there is one master, so nothing registers with the
// coordination service or elects. StartReplica adds a WAL-shipping read
// replica to a server at runtime (Config.Replicas does the same at
// startup). Reopen is a crash-restart of the whole deployment over the
// same live DFS: a fresh coordination service, the same server ids
// reopening their logs; Recover then rebuilds every server's indexes
// from its checkpoint and log tail, advances the timestamp oracle past
// them, and restarts the configured replicas from their durable cursors.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/repl"
	"repro/internal/simdisk"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TableSpec declares a table with its column groups and tablet count.
type TableSpec struct {
	Name    string
	Groups  []string
	Tablets int // zero = one per server
}

// Config configures a simulated cluster.
type Config struct {
	// NumServers is the number of tablet servers (the paper's 3–24).
	NumServers int
	// Tables created at startup.
	Tables []TableSpec
	// Server is applied to every tablet server.
	Server core.Config
	// DFS overrides the file-system geometry; NumDataNodes defaults to
	// NumServers (each machine runs a datanode and a tablet server,
	// §4.1) and BlockSize to 4 MB.
	DFS dfs.Config
	// Replicas is the number of WAL-shipping read replicas per tablet
	// server (internal/repl). Pinned snapshot reads whose timestamp a
	// replica's watermark covers are served by the replica instead of
	// the primary; a dead primary's most caught-up replica is promoted
	// to first-class tablet server on failover. 0 disables replication.
	Replicas int
	// Metrics is the registry shared by every tablet server (each
	// registers under its own {server: tsNN} label). Nil creates one;
	// Server.Metrics, when set, takes precedence so callers can inject
	// the registry either way.
	Metrics *obs.Registry
	// SlowOpLog enables request tracing: client operations mint trace
	// trees spanning the scatter-gather, and completed roots taking at
	// least SlowOpThreshold are rendered to this sink (threshold 0 =
	// every traced op).
	SlowOpLog       func(tree string)
	SlowOpThreshold time.Duration
}

// ErrServerDown is returned for operations routed to a killed server.
var ErrServerDown = errors.New("cluster: tablet server down")

// Cluster is a running simulated LogBase deployment.
type Cluster struct {
	cfg Config
	fs  *dfs.DFS
	svc *coord.Service

	// topoMu serialises topology changes — server failover, tablet
	// split, live migration — against each other. It is held for the
	// whole multi-step operation (lock order: topoMu, then failMu, then
	// mu) and never taken by readers.
	topoMu sync.Mutex

	// failMu is write-held for the full duration of a server failover
	// (reassignment AND log recovery). Assignments and Epoch take it
	// shared, so callers never observe routing that points at heirs
	// still replaying the dead server's log.
	failMu sync.RWMutex

	mu          sync.RWMutex
	servers     map[string]*serverState
	assignments map[string]string            // tabletID -> serverID
	tabletSpecs map[string]partition.Tablet  // tabletID -> spec
	tableGroups map[string][]string          // table -> column groups
	routers     map[string]*partition.Router // table -> router
	tabletSeq   map[string]int               // table -> next tablet number (split children)
	epoch       int64                        // bumped on reassignment; invalidates client caches

	txns   *txn.Manager
	replRR atomic.Uint32 // round-robin cursor for replica reads
	// replicasDue marks a reopened cluster whose Config.Replicas start
	// at the end of Recover.
	replicasDue bool

	metrics *obs.Registry
	tracer  *obs.Tracer
	// scatter-gather client counters (shared by all clients).
	obsStaleRetries  *obs.Counter
	obsScanResumes   *obs.Counter
	obsRetryAttempts *obs.Counter

	// retry is the client retry policy; breakers the shared read-replica
	// circuit-breaker table; clientSeq seeds each client's jitter rng.
	retry     retryPolicy
	breakers  *breakers
	clientSeq atomic.Int64

	secMu     sync.RWMutex
	secondary map[string]secondaryReg // index name -> registration
}

// secondaryReg records a cluster-wide secondary index registration so
// clients can resolve the table it covers.
type secondaryReg struct {
	table   string
	group   string
	extract core.Extractor
}

type serverState struct {
	srv      *core.Server
	alive    bool
	replicas []*repl.Replica
	// replicaSeq numbers the server's replicas (<server>.r<seq>); it
	// only grows, so a replica that failed to start leaves its id unused.
	replicaSeq int
}

// New builds and starts a cluster under dir.
func New(dir string, cfg Config) (*Cluster, error) {
	if cfg.NumServers <= 0 {
		return nil, errors.New("cluster: need at least one server")
	}
	dcfg := cfg.DFS
	if dcfg.NumDataNodes == 0 {
		dcfg.NumDataNodes = cfg.NumServers
	}
	if dcfg.BlockSize == 0 {
		dcfg.BlockSize = 4 << 20
	}
	fs, err := dfs.New(dir, dcfg)
	if err != nil {
		return nil, err
	}
	c, err := start(fs, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.startReplicas(); err != nil {
		return nil, err
	}
	return c, nil
}

// Reopen simulates a crash-restart of the whole deployment over the
// same DFS: every in-memory structure is discarded, and a fresh
// coordination service comes up with the configured servers
// (same ids, so each reopens its own log) and Config.Tables. Tables
// created later must be declared again; then call Recover, which also
// restarts Config.Replicas: each resumes shipping from its durable
// cursor, which only a recovered primary's log reaches past. Splits,
// moves and failovers are not recorded, so the restart has the
// configured topology. The old cluster is left as it is: Close it.
func (c *Cluster) Reopen() (*Cluster, error) {
	r, err := start(c.fs, c.cfg)
	if err != nil {
		return nil, err
	}
	r.replicasDue = true
	return r, nil
}

// start brings up a cluster over fs.
func start(fs *dfs.DFS, cfg Config) (*Cluster, error) {
	c := &Cluster{
		cfg:         cfg,
		fs:          fs,
		svc:         coord.New(),
		servers:     make(map[string]*serverState),
		assignments: make(map[string]string),
		tabletSpecs: make(map[string]partition.Tablet),
		tableGroups: make(map[string][]string),
		routers:     make(map[string]*partition.Router),
		tabletSeq:   make(map[string]int),
		retry:       defaultRetryPolicy,
		breakers:    newBreakers(breakerThreshold, breakerProbeAfter),
	}
	// One registry for the whole cluster: servers distinguish their
	// series with a {server} label, and the client-side counters live
	// beside them.
	c.metrics = cmp.Or(cfg.Server.Metrics, cfg.Metrics)
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	c.obsStaleRetries = c.metrics.Counter("logbase_client_stale_retries_total",
		"client operations retried on stale routing (split/move/failover)", nil)
	c.obsScanResumes = c.metrics.Counter("logbase_client_scan_resumes_total",
		"multi-tablet operations resumed after a routing change", nil)
	c.obsRetryAttempts = c.metrics.Counter("logbase_retry_attempts_total",
		"client attempts retried under the unified backoff policy", nil)
	c.metrics.GaugeFunc("logbase_breaker_open", "circuit breakers currently open or probing", nil,
		func() float64 { return float64(c.breakers.openCount()) })
	if cfg.SlowOpLog != nil {
		c.tracer = &obs.Tracer{
			Threshold: cfg.SlowOpThreshold,
			Sink:      cfg.SlowOpLog,
			SlowOps:   c.metrics.Counter("logbase_slow_ops_total", "trace trees emitted to the slow-op log", nil),
		}
	}
	for i := 0; i < cfg.NumServers; i++ {
		id := fmt.Sprintf("ts%02d", i)
		srv, err := core.NewServer(fs, id, c.serverConfig())
		if err != nil {
			return nil, err
		}
		c.servers[id] = &serverState{srv: srv, alive: true}
	}
	for _, ts := range cfg.Tables {
		if err := c.CreateTable(ts); err != nil {
			return nil, err
		}
	}
	c.txns = txn.NewManager(c.svc, txn.ResolverFunc(c.ServerFor))
	return c, nil
}

// serverConfig is Config.Server with the cluster's shared registry.
func (c *Cluster) serverConfig() core.Config {
	sc := c.cfg.Server
	sc.Metrics = c.metrics
	return sc
}

// Recover rebuilds every live server's in-memory state after Reopen:
// the indexes of its last checkpoint plus a redo of its log tail. The
// returned stats are summed over the servers (MaxTS is their maximum),
// and the timestamp oracle is advanced past every restored commit, so
// "latest" snapshot reads see the recovered data immediately. The first
// Recover after Reopen then starts Config.Replicas.
func (c *Cluster) Recover() (core.RecoveryStats, error) {
	var sum core.RecoveryStats
	for _, id := range c.LiveServers() {
		st, err := c.Server(id).Recover()
		if err != nil {
			return sum, err
		}
		sum.UsedCheckpoint = sum.UsedCheckpoint || st.UsedCheckpoint
		sum.IndexesLoaded += st.IndexesLoaded
		sum.RecordsScanned += st.RecordsScanned
		sum.EntriesRestored += st.EntriesRestored
		sum.MaxTS = max(sum.MaxTS, st.MaxTS)
		sum.Elapsed += st.Elapsed
	}
	c.svc.AdvanceTo(sum.MaxTS)
	// A replica resumes from its durable cursor: started before its
	// primary knew the end of its log, it would skip the records past
	// the cursor.
	if c.replicasDue {
		c.replicasDue = false
		return sum, c.startReplicas()
	}
	return sum, nil
}

// FS returns the cluster's DFS.
func (c *Cluster) FS() *dfs.DFS { return c.fs }

// Coord returns the coordination service (timestamp authority etc.).
func (c *Cluster) Coord() *coord.Service { return c.svc }

// TxnManager returns the cluster-wide transaction manager.
func (c *Cluster) TxnManager() *txn.Manager { return c.txns }

// Clock returns the shared virtual disk clock, if one was configured.
func (c *Cluster) Clock() *simdisk.Clock { return c.cfg.DFS.Clock }

// Metrics returns the registry shared by the cluster's servers and
// clients.
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }

// Tracer returns the cluster's slow-op tracer (nil unless
// Config.SlowOpLog was set).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// StatsViews returns each live server's mutually-consistent counter
// snapshot (core.Server.StatsView), keyed by server id.
func (c *Cluster) StatsViews() map[string]core.StatsView {
	out := make(map[string]core.StatsView)
	for _, id := range c.LiveServers() {
		out[id] = c.Server(id).StatsView()
	}
	return out
}

// CreateTable declares a table and assigns its tablets round-robin over
// live servers (the master's metadata duty, §3.3). Idempotent: a table
// that already exists with the same column groups is a no-op (the
// check runs under the cluster lock, so concurrent CreateTable races —
// e.g. two protocol sessions — are safe); declaring it with different
// groups is an error.
func (c *Cluster) CreateTable(ts TableSpec) error {
	n := ts.Tablets
	if n <= 0 {
		n = c.cfg.NumServers
	}
	tablets := partition.MakeTablets(ts.Name, partition.SplitUniform(n))

	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.tableGroups[ts.Name]; ok {
		if len(existing) == len(ts.Groups) {
			same := true
			for i, g := range existing {
				if ts.Groups[i] != g {
					same = false
					break
				}
			}
			if same {
				return nil
			}
		}
		return fmt.Errorf("cluster: table %s exists with different column groups", ts.Name)
	}
	c.tableGroups[ts.Name] = append([]string(nil), ts.Groups...)
	c.routers[ts.Name] = partition.NewRouter(tablets)
	c.tabletSeq[ts.Name] = len(tablets)
	live := c.liveServerIDsLocked()
	if len(live) == 0 {
		return errors.New("cluster: no live servers")
	}
	for i, tab := range tablets {
		owner := live[i%len(live)]
		c.tabletSpecs[tab.ID] = tab
		c.assignments[tab.ID] = owner
		c.servers[owner].srv.AddTablet(tab, ts.Groups)
		// Mirror to the owner's replicas in the same critical section:
		// the router installs below, so no record for this tablet can
		// ship before the replicas have it declared.
		for _, rep := range c.servers[owner].replicas {
			rep.AddTablet(tab, ts.Groups)
		}
	}
	c.epoch++
	return nil
}

func (c *Cluster) liveServerIDsLocked() []string {
	var ids []string
	for id, st := range c.servers {
		if st.alive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// LiveServers returns the ids of live tablet servers.
func (c *Cluster) LiveServers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.liveServerIDsLocked()
}

// Server returns the named server (nil if unknown), dead or alive —
// benches inspect stats on dead servers too.
func (c *Cluster) Server(id string) *core.Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if st, ok := c.servers[id]; ok {
		return st.srv
	}
	return nil
}

// ServerFor resolves the live server owning a tablet; the transaction
// manager and clients route through this.
func (c *Cluster) ServerFor(tablet string) (*core.Server, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	owner, ok := c.assignments[tablet]
	if !ok {
		// Wrap ErrUnknownTablet: an id a caller learned from a stale
		// router legitimately vanishes when its tablet splits, and
		// clients must treat that as retryable stale routing.
		return nil, fmt.Errorf("cluster: tablet %s unassigned: %w", tablet, core.ErrUnknownTablet)
	}
	st := c.servers[owner]
	if !st.alive {
		return nil, fmt.Errorf("%w: %s (tablet %s)", ErrServerDown, owner, tablet)
	}
	return st.srv, nil
}

// Router returns the key router for a table.
func (c *Cluster) Router(table string) (*partition.Router, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.routers[table]
	if !ok {
		return nil, fmt.Errorf("cluster: no table %s", table)
	}
	return r, nil
}

// Groups returns the column groups of a table.
func (c *Cluster) Groups(table string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.tableGroups[table]...)
}

// Epoch returns the routing epoch; it changes whenever assignments do.
// It blocks while a server failover is mid-flight (failMu), so the
// returned epoch never describes routing whose heirs are still
// replaying the dead server's log.
func (c *Cluster) Epoch() int64 {
	c.failMu.RLock()
	defer c.failMu.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Assignments returns a copy of tablet -> server routing. Like Epoch it
// waits out an in-flight failover, so the snapshot never names a heir
// that has not yet recovered its adopted tablets.
func (c *Cluster) Assignments() map[string]string {
	m, _ := c.RoutingSnapshot()
	return m
}

// RoutingSnapshot returns the assignments and the epoch they belong to
// as one consistent pair (the two single-value accessors can tear
// across a concurrent reassignment).
func (c *Cluster) RoutingSnapshot() (map[string]string, int64) {
	c.failMu.RLock()
	defer c.failMu.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]string, len(c.assignments))
	for k, v := range c.assignments {
		out[k] = v
	}
	return out, c.epoch
}

// tabletIndexName is the per-tablet slice of a cluster-wide secondary
// index: each server indexes only the tablets it serves, under a name
// derived from the logical index name.
func tabletIndexName(name, tabletID string) string { return name + "@" + tabletID }

// RegisterSecondaryIndex creates a secondary index over a table's
// column group on every tablet server owning a piece of the table
// (backfilling existing rows), closing the embedded-vs-cluster feature
// gap: clients then use LookupSecondary / ScanSecondaryRange exactly
// like the embedded DB. Tablets reassigned by a later failover are not
// re-indexed automatically; re-register after KillServer.
func (c *Cluster) RegisterSecondaryIndex(name, table, group string, extract core.Extractor) error {
	router, err := c.Router(table)
	if err != nil {
		return err
	}
	for _, tab := range router.Tablets() {
		srv, err := c.ServerFor(tab.ID)
		if err != nil {
			return err
		}
		if err := srv.RegisterSecondaryIndex(tabletIndexName(name, tab.ID), tab.ID, group, extract); err != nil {
			return err
		}
	}
	c.secMu.Lock()
	if c.secondary == nil {
		c.secondary = make(map[string]secondaryReg)
	}
	c.secondary[name] = secondaryReg{table: table, group: group, extract: extract}
	c.secMu.Unlock()
	return nil
}

func (c *Cluster) secondaryRegistration(name string) (secondaryReg, error) {
	c.secMu.RLock()
	defer c.secMu.RUnlock()
	reg, ok := c.secondary[name]
	if !ok {
		return secondaryReg{}, fmt.Errorf("cluster: no secondary index %q", name)
	}
	return reg, nil
}

// KillServer simulates a tablet-server machine failure: routing stops
// resolving to the server at once, and its tablets fail over — to its
// most caught-up replica, or reassigned and recovered from the shared
// DFS (handleServerFailure). The co-located datanode is NOT killed (the
// paper treats those failures separately; use FS().KillDataNode for
// that).
func (c *Cluster) KillServer(id string) error {
	// Serialise against splits, migrations and other failovers.
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	c.mu.Lock()
	st, ok := c.servers[id]
	if !ok || !st.alive {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no live server %s", id)
	}
	st.alive = false
	c.mu.Unlock()
	return c.handleServerFailure(id)
}

// Close releases every tablet server's background resources (auto-
// compaction loops, changefeeds, replicas). The cluster is not usable
// afterwards.
func (c *Cluster) Close() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, st := range c.servers {
		for _, rep := range st.replicas {
			rep.Close()
		}
		st.srv.Close()
	}
	return nil
}

// CompactAll runs whole-log compaction on every live server.
func (c *Cluster) CompactAll() error {
	for _, id := range c.LiveServers() {
		if _, err := c.Server(id).Compact(); err != nil {
			return err
		}
	}
	return nil
}

// AutoCompactTick runs one incremental compaction pass on every live
// server — the deterministic form of the background loop that
// Config.Server.AutoCompactInterval starts on each tablet server.
func (c *Cluster) AutoCompactTick() error {
	for _, id := range c.LiveServers() {
		if _, _, err := c.Server(id).AutoCompactTick(); err != nil {
			return err
		}
	}
	return nil
}

// handleServerFailure reassigns a dead server's tablets across the
// survivors and recovers their data by scanning the dead server's log
// in the shared DFS (paper §3.8 failover). The caller holds topoMu;
// failMu is write-held for the WHOLE failover — reassignment and log
// recovery — so Assignments/Epoch readers never observe routing whose
// heirs have not finished replaying.
func (c *Cluster) handleServerFailure(deadID string) error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	// A dead server with a usable replica is not scattered at all: the
	// replica already holds (nearly) everything in its own log and
	// indexes, so it is promoted and replays only the unshipped delta
	// (see promoteReplica).
	if done, err := c.promoteReplica(deadID); done {
		return err
	}
	c.mu.Lock()
	var orphans []string
	for tab, owner := range c.assignments {
		if owner == deadID {
			orphans = append(orphans, tab)
		}
	}
	sort.Strings(orphans)
	live := c.liveServerIDsLocked()
	if len(live) == 0 {
		c.mu.Unlock()
		return errors.New("cluster: no survivors to adopt tablets")
	}
	// Plan: orphan i goes to survivor i%len(live).
	plan := make(map[string][]string) // heirID -> tablets
	for i, tab := range orphans {
		heir := live[i%len(live)]
		plan[heir] = append(plan[heir], tab)
		c.assignments[tab] = heir
	}
	c.epoch++
	specs := make(map[string]partition.Tablet, len(orphans))
	groupsOf := make(map[string][]string, len(orphans))
	for _, tab := range orphans {
		spec := c.tabletSpecs[tab]
		specs[tab] = spec
		groupsOf[tab] = c.tableGroups[spec.Table]
	}
	c.mu.Unlock()

	for heirID, tabs := range plan {
		heir := c.Server(heirID)
		// Declare the adopted tablets on the heir's replicas FIRST: they
		// need no replay of their own, because RecoverTablets re-appends
		// the dead log's history to the heir's log, which ships it to
		// them like any write — but a record arriving before its tablet
		// declaration would be skipped for good. The open topology sync
		// holds each replica's public watermark at 0 until it is closed
		// below, and closing it restarts the watermark from 0 until that
		// history has drained.
		heirReps := c.Replicas(heirID)
		for _, rep := range heirReps {
			rep.BeginTopologySync()
			for _, tab := range tabs {
				rep.AddTablet(specs[tab], groupsOf[tab])
			}
		}
		for _, tab := range tabs {
			heir.AddTablet(specs[tab], groupsOf[tab])
		}
		_, err := heir.RecoverTablets(deadID, wal.Position{}, tabs)
		for _, rep := range heirReps {
			rep.EndTopologySync()
		}
		if err != nil {
			return fmt.Errorf("cluster: recover tablets from %s on %s: %w", deadID, heirID, err)
		}
	}
	return nil
}
