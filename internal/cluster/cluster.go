// Package cluster assembles LogBase's distributed architecture (paper
// §3.3) in one process: N tablet servers over a shared DFS, a master
// (elected through the coordination service) that assigns tablets and
// handles tablet-server failures by reassigning and recovering their
// tablets, and clients that route by key through cached metadata.
//
// The in-process substitution keeps every architectural interaction —
// registration via ephemeral nodes, master election, tablet assignment,
// log-split failover, stale routing caches — while replacing RPC with
// method calls plus an injectable per-call latency.
package cluster

import (
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
	// RPCLatency, when > 0, is slept on every client call to model the
	// network hop.
	RPCLatency time.Duration
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
	// Retry is the unified client retry policy (stale-routing retries,
	// scan resumes, batch re-routes). Zero fields take the defaults in
	// retry.go.
	Retry RetryPolicy
	// BreakerThreshold and BreakerProbeAfter tune the client circuit
	// breaker: after BreakerThreshold consecutive routing failures a
	// server/replica stops receiving traffic for BreakerProbeAfter,
	// then one probe decides whether it reopens. Zero = defaults.
	BreakerThreshold  int
	BreakerProbeAfter time.Duration
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
	master      *Master

	txns     *txn.Manager
	balancer *Balancer
	replRR   atomic.Uint32 // round-robin cursor for replica reads

	metrics *obs.Registry
	tracer  *obs.Tracer
	// scatter-gather client counters (shared by all clients).
	obsStaleRetries  *obs.Counter
	obsScanResumes   *obs.Counter
	obsRetryAttempts *obs.Counter

	// retry is the resolved client retry policy; breakers the shared
	// circuit-breaker table; clientSeq seeds each client's jitter rng.
	retry     RetryPolicy
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
	sess     *coord.Session
	alive    bool
	replicas []*replicaState
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
	// One registry for the whole cluster: servers distinguish their
	// series with a {server} label, and the client-side counters live
	// beside them.
	if cfg.Server.Metrics == nil {
		if cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}
		cfg.Server.Metrics = cfg.Metrics
	} else {
		cfg.Metrics = cfg.Server.Metrics
	}
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
	}
	c.metrics = cfg.Metrics
	c.obsStaleRetries = c.metrics.Counter("logbase_client_stale_retries_total",
		"client operations retried on stale routing (split/move/failover)", nil)
	c.obsScanResumes = c.metrics.Counter("logbase_client_scan_resumes_total",
		"scatter-gather scans resumed by range after a routing change", nil)
	c.obsRetryAttempts = c.metrics.Counter("logbase_retry_attempts_total",
		"client attempts retried under the unified backoff policy", nil)
	c.retry = cfg.Retry.withDefaults()
	c.breakers = newBreakers(cfg.BreakerThreshold, cfg.BreakerProbeAfter)
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
		srv, err := core.NewServer(fs, id, cfg.Server)
		if err != nil {
			return nil, err
		}
		sess := c.svc.NewSession()
		if err := sess.CreateEphemeral("/servers/"+id, []byte(id)); err != nil {
			return nil, err
		}
		c.servers[id] = &serverState{srv: srv, sess: sess, alive: true}
	}
	// Replicas exist before the initial tables (CreateTable mirrors
	// tablet specs to them) but start shipping after, so no record ever
	// precedes its tablet declaration.
	if cfg.Replicas > 0 {
		if err := c.newReplicas(); err != nil {
			return nil, err
		}
	}
	c.master = newMaster(c)
	if err := c.master.start(); err != nil {
		return nil, err
	}
	for _, ts := range cfg.Tables {
		if err := c.CreateTable(ts); err != nil {
			return nil, err
		}
	}
	if cfg.Replicas > 0 {
		if err := c.startReplicas(); err != nil {
			return nil, err
		}
	}
	c.txns = txn.NewManager(c.svc, txn.ResolverFunc(c.ServerFor))
	return c, nil
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
		for _, rp := range c.servers[owner].replicas {
			rp.rep.AddTablet(tab, ts.Groups)
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
		c.breakers.failure("server:" + owner)
		return nil, fmt.Errorf("%w: %s (tablet %s)", ErrServerDown, owner, tablet)
	}
	// An open breaker sheds routing to a server that kept failing even
	// though it is nominally alive, until a probe attempt succeeds.
	if !c.breakers.allow("server:" + owner) {
		return nil, fmt.Errorf("%w: %s (circuit open, tablet %s)", ErrServerDown, owner, tablet)
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

// KillServer simulates a tablet-server machine failure: the server's
// session expires (its ephemeral node vanishes, waking the master) and
// the master reassigns and recovers its tablets from the shared DFS.
// The co-located datanode is NOT killed (the paper treats those
// failures separately; use FS().KillDataNode for that).
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
	sess := st.sess
	master := c.master
	c.mu.Unlock()
	sess.Close() // fires the master's watch in real deployments
	return master.handleServerFailure(id)
}

// Close releases every tablet server's background resources (auto-
// compaction loops, changefeeds) and stops the balancer if one is
// running. The cluster is not usable afterwards.
func (c *Cluster) Close() error {
	c.mu.Lock()
	b := c.balancer
	c.balancer = nil
	c.mu.Unlock()
	if b != nil {
		b.Stop()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, st := range c.servers {
		for _, rp := range st.replicas {
			rp.rep.Close()
			rp.sess.Close()
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
// Config.Server.AutoCompact.Interval starts on each tablet server.
func (c *Cluster) AutoCompactTick() error {
	for _, id := range c.LiveServers() {
		if _, _, err := c.Server(id).AutoCompactTick(); err != nil {
			return err
		}
	}
	return nil
}

// Master is the cluster's metadata/failover authority. Multiple
// instances can run; one wins the election and the rest stand by
// (paper §3.3).
type Master struct {
	c      *Cluster
	sess   *coord.Session
	leader bool
}

func newMaster(c *Cluster) *Master {
	return &Master{c: c, sess: c.svc.NewSession()}
}

func (m *Master) start() error {
	won, err := m.sess.Elect("/master", []byte("master"))
	if err != nil {
		return err
	}
	m.leader = won
	return nil
}

// IsLeader reports whether this master won the election.
func (m *Master) IsLeader() bool { return m.leader }

// handleServerFailure reassigns a dead server's tablets across the
// survivors and recovers their data by scanning the dead server's log
// in the shared DFS (paper §3.8 failover). The caller holds topoMu;
// failMu is write-held for the WHOLE failover — reassignment and log
// recovery — so Assignments/Epoch readers never observe routing whose
// heirs have not finished replaying.
func (m *Master) handleServerFailure(deadID string) error {
	c := m.c
	c.failMu.Lock()
	defer c.failMu.Unlock()
	// A dead server with a usable replica is not scattered at all: the
	// replica already holds (nearly) everything in its own log and
	// indexes, so the master promotes it and replays only the unshipped
	// delta (see promoteReplica).
	if done, err := m.promoteReplica(deadID); done {
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
		// Declare the adopted tablets on the heir's replicas FIRST: once
		// the heir serves them, every write ships, and a record arriving
		// before its tablet declaration would be skipped for good. The
		// open topology sync holds each replica's public watermark at 0
		// until the dead log's history is installed below.
		heirReps := c.replicasOf(heirID)
		for _, rp := range heirReps {
			rp.rep.BeginTopologySync()
			for _, tab := range tabs {
				rp.rep.AddTablet(specs[tab], groupsOf[tab])
			}
		}
		for _, tab := range tabs {
			heir.AddTablet(specs[tab], groupsOf[tab])
		}
		if _, err := heir.RecoverTablets(deadID, wal.Position{}, tabs); err != nil {
			return fmt.Errorf("cluster: recover tablets from %s on %s: %w", deadID, heirID, err)
		}
		// The replicas adopt the same history from the dead log; the
		// foreign mark pins them to it (no re-bootstrap can rebuild it
		// from the heir's log alone).
		for _, rp := range heirReps {
			if _, err := rp.rep.Server().RecoverTablets(deadID, wal.Position{}, tabs); err != nil {
				rp.rep.MarkFailed(fmt.Errorf("cluster: replica adoption of %v from %s: %w", tabs, deadID, err))
			} else {
				rp.rep.MarkForeign()
			}
			rp.rep.EndTopologySync()
		}
	}
	return nil
}

// FailoverMaster simulates the active master dying: a standby master is
// created, notices the vacancy, and wins the election.
func (c *Cluster) FailoverMaster() *Master {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	c.mu.Lock()
	old := c.master
	c.mu.Unlock()
	old.sess.Close()
	standby := newMaster(c)
	standby.start() //nolint:errcheck // election on fresh session cannot fail here
	c.mu.Lock()
	c.master = standby
	c.mu.Unlock()
	return standby
}

// Master returns the current (possibly failed-over) master.
func (c *Cluster) Master() *Master {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.master
}
