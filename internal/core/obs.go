package core

// Server-side observability wiring: every tablet server owns a
// serverObs holding its latency histograms and planner/compaction
// counters, registered into an obs.Registry under a `server` label so
// a whole cluster can share one registry. The existing ServerStats /
// cache / compaction atomics are exposed through GaugeFuncs — they are
// read at scrape time only, so surfacing them costs the hot paths
// nothing. Latency recording is guarded by the enabled flag
// (Config.DisableMetrics): when off, timer starts return the zero
// time.Time and the observe helpers no-op, leaving one branch per
// operation on the hot path.

import (
	"time"

	"repro/internal/obs"
)

// serverObs bundles a server's registered metrics.
type serverObs struct {
	enabled bool
	reg     *obs.Registry

	// Per-operation latency histograms (logbase_op_duration_seconds).
	put, get, del, read   *obs.Histogram
	scan, fullscan        *obs.Histogram
	applyBatch, applyTxn  *obs.Histogram
	prepareTxn, commitTxn *obs.Histogram
	compact               *obs.Histogram
	walAppend             *obs.Histogram

	// Clustered-scan counters.
	clusteredScans    *obs.Counter
	clusteredSegments *obs.Counter
	overlayRows       *obs.Counter

	// Compaction counters beyond the ServerStats atomics.
	compactRepoints *obs.Counter
	compactStalls   *obs.Counter

	// Changefeed counters (events/sec derives from the counter at
	// scrape time; feed count and lag are scrape-time gauges). Rereads
	// counts feeds that fell off the log's in-memory tail: each reads its
	// gap from the segments (or meets cdc.ErrCursorTruncated if
	// compaction took it).
	cdcEvents  *obs.Counter
	cdcRereads *obs.Counter

	// Scrub repairs (corrupt replica blocks rewritten from a healthy
	// peer).
	scrubRepaired *obs.Counter
}

// newServerObs registers the server's metrics into cfg.Metrics (or a
// private registry) under labels {server: id}.
func newServerObs(s *Server) *serverObs {
	reg := s.cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &serverObs{enabled: !s.cfg.DisableMetrics, reg: reg}
	id := s.id

	opHist := func(op string) *obs.Histogram {
		return reg.Histogram("logbase_op_duration_seconds", "per-operation latency",
			obs.Labels{"server": id, "op": op})
	}
	o.put = opHist("put")
	o.get = opHist("get")
	o.del = opHist("delete")
	o.read = opHist("read")
	o.scan = opHist("scan")
	o.fullscan = opHist("fullscan")
	o.applyBatch = opHist("apply_batch")
	o.applyTxn = opHist("apply_txn")
	o.prepareTxn = opHist("prepare_txn")
	o.commitTxn = opHist("commit_txn")
	o.compact = opHist("compact")
	o.walAppend = reg.Histogram("logbase_wal_append_seconds", "durable log append latency",
		obs.Labels{"server": id})

	sl := obs.Labels{"server": id}
	o.clusteredScans = reg.Counter("logbase_clustered_scans_total", "scans that read rows through sorted-segment windows", sl)
	o.clusteredSegments = reg.Counter("logbase_clustered_segments_total", "sorted segments read through forward windows by clustered scans", sl)
	o.overlayRows = reg.Counter("logbase_clustered_overlay_rows_total", "rows resolved outside sorted-segment windows", sl)
	o.compactRepoints = reg.Counter("logbase_compact_repoints_total", "index entries repointed by compaction", sl)
	o.compactStalls = reg.Counter("logbase_compact_stalls_total", "compaction ticks stalled waiting for index recovery", sl)
	o.cdcEvents = reg.Counter("logbase_cdc_events_total", "changefeed events delivered to consumers", sl)
	o.cdcRereads = reg.Counter("logbase_cdc_feed_rereads_total", "changefeeds that fell off the in-memory tail and read segments", sl)
	o.scrubRepaired = reg.Counter("logbase_scrub_repaired_total", "corrupt replica blocks repaired by scrub", sl)
	if s.cfg.Faults != nil {
		// The fault registry is shared across the layers it is wired into
		// (DFS, WAL, crash points); the gauge reports its cumulative
		// injection count at scrape time.
		faults := s.cfg.Faults
		reg.GaugeFunc("logbase_faults_injected_total", "faults injected by the deterministic registry", sl,
			func() float64 { return float64(faults.Injected()) })
	}

	// Existing atomics surfaced as scrape-time gauges: zero hot-path
	// cost, so these register even when latency recording is disabled.
	gauge := func(name, help string, fn func() float64) { reg.GaugeFunc(name, help, sl, fn) }
	gauge("logbase_server_writes", "cumulative write operations", func() float64 { return float64(s.stats.Writes.Load()) })
	gauge("logbase_server_reads", "cumulative read operations", func() float64 { return float64(s.stats.Reads.Load()) })
	gauge("logbase_server_deletes", "cumulative delete operations", func() float64 { return float64(s.stats.Deletes.Load()) })
	gauge("logbase_server_log_reads", "cumulative log record reads", func() float64 { return float64(s.stats.LogReads.Load()) })
	gauge("logbase_cache_hits", "read-buffer hits", func() float64 { return float64(s.readCache.Stats().Hits) })
	gauge("logbase_cache_misses", "read-buffer misses", func() float64 { return float64(s.readCache.Stats().Misses) })
	gauge("logbase_cache_used_bytes", "read-buffer bytes in use", func() float64 { return float64(s.readCache.Stats().Used) })
	gauge("logbase_compactions", "compaction runs", func() float64 { return float64(s.stats.Compactions.Load()) })
	gauge("logbase_compact_dropped_records", "records vacuumed by compaction", func() float64 { return float64(s.stats.CompactDropped.Load()) })
	gauge("logbase_compact_reclaimed_bytes", "log bytes reclaimed by compaction", func() float64 { return float64(s.stats.CompactReclaimed.Load()) })
	gauge("logbase_log_bytes", "total log size", func() float64 { return float64(s.logBytes()) })
	gauge("logbase_log_segments", "log segment count", func() float64 { return float64(len(s.log.Segments())) })
	gauge("logbase_sorted_fraction", "fraction of log bytes in sorted segments", func() float64 { return s.SortedFraction() })
	gauge("logbase_garbage_ratio", "garbage bytes / log bytes", func() float64 { return s.CompactionInfo().GarbageRatio })
	gauge("logbase_index_mem_bytes", "in-memory index bytes", func() float64 { return float64(s.IndexMemBytes()) })
	gauge("logbase_cdc_feeds", "open changefeed subscriptions", func() float64 { n, _ := s.feeds.lag(0); return float64(n) })
	gauge("logbase_cdc_feed_lag_lsns", "most LSNs through the log tip any open feed has not taken",
		func() float64 { _, lag := s.feeds.lag(s.log.NextLSN() - 1); return float64(lag) })
	gauge("logbase_cdc_prune_horizon", "highest LSN at or below which compaction reclaimed records",
		func() float64 { return float64(s.pruneHorizon.Load()) })
	return o
}

// start returns the operation start time, or the zero time when latency
// recording is disabled — the paired observe helpers treat zero as
// "skip".
func (o *serverObs) start() time.Time {
	if o == nil || !o.enabled {
		return time.Time{}
	}
	return time.Now()
}

// since records t0's elapsed time into h (no-op for a zero t0).
func (o *serverObs) since(h *obs.Histogram, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

func (s *Server) logBytes() int64 {
	var n int64
	for _, si := range s.log.Segments() {
		n += si.Size
	}
	return n
}

// Metrics returns the registry this server's metrics live in (shared
// across servers when Config.Metrics was set).
func (s *Server) Metrics() *obs.Registry { return s.obs.reg }

// StatsView is one mutually-consistent snapshot of the server's
// cumulative counters: it is taken under compactMu, so the compaction
// triple (Runs / Dropped / Reclaimed) and the segment-derived layout
// numbers can never be observed mid-tick — half-applied counter
// updates from a concurrent compaction run are impossible.
type StatsView struct {
	Server                 string // id of the snapshotted tablet server
	Writes, Reads, Deletes int64
	CacheHits, CacheMisses int64
	LogReads               int64
	Compactions            int64
	CompactDropped         int64
	BytesReclaimed         int64
	SortedFraction         float64
	GarbageRatio           float64
	LogBytes               int64
	Segments               int
}

// StatsView snapshots every cumulative counter in one pass. Op
// counters (writes/reads/...) are individually atomic and monotone;
// the compaction counters and layout numbers are read while holding
// compactMu so they are consistent with each other.
func (s *Server) StatsView() StatsView {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	cs := s.readCache.Stats()
	info := s.CompactionInfo()
	return StatsView{
		Server:         s.id,
		Writes:         s.stats.Writes.Load(),
		Reads:          s.stats.Reads.Load(),
		Deletes:        s.stats.Deletes.Load(),
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		LogReads:       s.stats.LogReads.Load(),
		Compactions:    info.Runs,
		CompactDropped: info.RecordsDropped,
		BytesReclaimed: info.BytesReclaimed,
		SortedFraction: info.SortedFraction,
		GarbageRatio:   info.GarbageRatio,
		LogBytes:       info.LogBytes,
		Segments:       len(info.Segments),
	}
}
