// Command logbase-server runs a LogBase deployment behind the minimal
// line-oriented TCP protocol in internal/textproto, so the engine can
// be poked from logbase-cli or netcat:
//
//	CREATE <table> <group> [group...]
//	PUT <table> <group> <key> <value>
//	GET <table> <group> <key>
//	GETAT <table> <group> <key> <ts>
//	VERSIONS <table> <group> <key>
//	DEL <table> <group> <key>
//	SCAN <table> <group> <start|*> <end|*> [LIMIT <n>] [REVERSE] [AT <ts>]
//	     [PREFIX <p>] [FILTER KEY|VAL PREFIX|CONTAINS <op>]
//	     [FILTER KEY|VAL RANGE <lo|*> <hi|*>] [PRIMARY] [MAXLAG <n>]
//	QUERY <table> <group> [FROM <k>] [TO <k>] [FILTER KEY|VAL <pred>]
//	      [JOIN <table> <group> ON <ltable> <lexpr> <rexpr> [VIA <index>]
//	           [FROM <k>] [TO <k>] [FILTER KEY|VAL <pred>]]
//	      [AT <ts>] [BY <table> <expr> <prefix>]
//	      AGG <COUNT|SUM|MIN|MAX|AVG> <table> <expr|*> [AGG ...]
//	WATCH <table> <group|*> <start|*> <end|*> [FROM <lsn>] [LIMIT <n>]
//	MVIEW CREATE <name> <table> <group> <agg[,agg...]> [start|*] [end|*] [BY <prefix>]
//	MVIEW QUERY <name>
//	MVIEW STATS <name>
//	STATS | SCRUB | COMPACT | CHECKPOINT | QUIT
//
// SCAN options ride the wire to the tablet servers: limits, reverse
// order, snapshot pinning, and the serializable filter predicates are
// all evaluated remotely (push-down), so only surviving rows stream
// back.
//
// The server is written once against the logbase.Store contract and
// the admin surface of logbase.ClusterClient: -servers 0 serves an
// embedded DB (a one-server cluster), -servers N>0 an in-process
// N-server cluster, through the exact same code path. Only the DB's
// WATCH ... FROM resumes by LSN: it has one log.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"time"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/readopt"
	"repro/internal/textproto"
)

// backend is what the server needs of a deployment: the Store contract
// plus the uniform admin surface. *logbase.ClusterClient provides it,
// and *logbase.DB through the ClusterClient it embeds, with its own
// LSN-resumable Watch.
type backend interface {
	logbase.Store
	Checkpoint() error
	Compact() (core.CompactionStats, error)
	Scrub() ([]logbase.ScrubReport, error)
	Stats() []core.StatsView
	ReplicaStats() map[string][]logbase.ReplicaStats
	Metrics() *obs.Registry
}

// storeAdapter is a backend as a textproto.Store. The two speak the
// same methods; the only difference is that the wire hands Read and
// Scan an already-decoded option set, which injects wholesale and is
// pushed down to the tablet servers by the Store layer.
type storeAdapter struct{ backend }

func (a storeAdapter) Read(ctx context.Context, table, group string, key []byte, opt readopt.Options) ([]textproto.Row, error) {
	return a.backend.Read(ctx, table, group, key, logbase.WithReadOptions(opt))
}

func (a storeAdapter) Scan(ctx context.Context, table, group string, start, end []byte, opt readopt.Options) textproto.Iterator {
	return a.backend.Scan(ctx, table, group, start, end, logbase.WithReadOptions(opt))
}

// serverConfig is everything startServer needs; main fills it from
// flags, tests fill it directly.
type serverConfig struct {
	addr    string
	dir     string
	cache   int64
	servers int
	// replicas is the number of WAL-shipping read replicas per tablet
	// server (0 disables replication), embedded DB included.
	replicas int
	// metricsAddr, when non-empty, serves Prometheus-text /metrics and
	// net/http/pprof on its own listener (":0" picks a free port).
	metricsAddr string
	// slowOps < 0 disables the slow-op log; >= 0 logs every traced op
	// whose root span took at least this long.
	slowOps time.Duration
}

// server is a running logbase-server: the protocol listener, its accept
// loop, and the optional metrics endpoint. Close tears all of it down.
type server struct {
	st      backend
	ln      net.Listener
	metrics *obs.MetricsServer
}

func startServer(cfg serverConfig) (*server, error) {
	var slowLog func(string)
	if cfg.slowOps >= 0 {
		slowLog = func(tree string) { log.Printf("slow-op\n%s", tree) }
	}
	var st backend
	if cfg.servers > 0 {
		// Same knobs as the embedded path, applied to every tablet
		// server: the two deployments must behave alike behind one flag.
		c, err := logbase.NewCluster(cfg.dir, logbase.ClusterConfig{
			NumServers:      cfg.servers,
			Replicas:        cfg.replicas,
			Server:          core.Config{ReadCacheBytes: cfg.cache, GroupCommit: true},
			SlowOpLog:       slowLog,
			SlowOpThreshold: cfg.slowOps,
		})
		if err != nil {
			return nil, err
		}
		st = logbase.NewClusterClient(c)
		log.Printf("serving a %d-server cluster (%d replicas per server)", cfg.servers, cfg.replicas)
	} else {
		db, err := logbase.Open(cfg.dir, logbase.Options{
			ReadCacheBytes:  cfg.cache,
			GroupCommit:     true,
			SlowOpLog:       slowLog,
			SlowOpThreshold: cfg.slowOps,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.replicas; i++ {
			if _, err := db.StartReplica(); err != nil {
				db.Close()
				return nil, err
			}
		}
		st = db
		log.Printf("serving an embedded DB (%d replicas)", cfg.replicas)
	}

	srv := &server{st: st}
	if cfg.metricsAddr != "" {
		ms, err := obs.ListenAndServeMetrics(cfg.metricsAddr, st.Metrics())
		if err != nil {
			st.Close()
			return nil, err
		}
		srv.metrics = ms
		log.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)", ms.Addr())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	srv.ln = ln
	log.Printf("logbase-server listening on %s (data in %s)", ln.Addr(), cfg.dir)
	go srv.acceptLoop()
	return srv, nil
}

func (s *server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			defer conn.Close()
			if err := textproto.Serve(context.Background(), conn, storeAdapter{s.st}); err != nil {
				log.Printf("session: %v", err)
			}
		}()
	}
}

// Addr returns the protocol listener's bound address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr returns the metrics endpoint's address ("" when disabled).
func (s *server) MetricsAddr() string {
	if s.metrics == nil {
		return ""
	}
	return s.metrics.Addr()
}

func (s *server) Close() error {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.metrics != nil {
		s.metrics.Close()
	}
	return s.st.Close()
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	dir := flag.String("dir", "./logbase-data", "data directory")
	cache := flag.Int64("cache", 32<<20, "read buffer bytes (0 disables)")
	servers := flag.Int("servers", 0, "tablet servers; 0 = embedded single-server DB")
	replicas := flag.Int("replicas", 0, "WAL-shipping read replicas per tablet server (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics + pprof on this address (empty disables)")
	slowOps := flag.Duration("slow-ops", -1, "log trace trees for ops at least this slow (0 logs every op; negative disables)")
	flag.Parse()

	srv, err := startServer(serverConfig{
		addr: *addr, dir: *dir, cache: *cache, servers: *servers, replicas: *replicas,
		metricsAddr: *metricsAddr, slowOps: *slowOps,
	})
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	defer srv.Close()
	select {} // serve until killed
}
