// Package bench is the reproduction harness for the paper's evaluation
// (§4): one experiment function per figure, each returning a Table with
// the same rows/series the paper plots, plus ablation benches for the
// design choices DESIGN.md calls out and the A/B experiments whose shape
// is an invariant of this engine (instrumentation and fault hooks cost
// no disk, push-down ships only the limit, the clustered scan, the
// greedy join plan, replica offload, the changefeed tail). A Table's
// Hold IS its experiment's invariant; TestDeterministicShapesHold
// asserts every one that is stated in modelled disk time or in counts.
//
// Measurements report two numbers: wall-clock time of the in-process
// run, and modelled disk time from the simdisk virtual clock (seek +
// transfer charges for every DFS access). The virtual clock is the one
// to compare against the paper's shapes: it is deterministic and
// reflects the spinning-disk cost model the paper's arguments rest on,
// while wall time on a modern machine compresses seek effects.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/hbase"
	"repro/internal/lrs"
	"repro/internal/lsm"
	"repro/internal/partition"
	"repro/internal/simdisk"
)

// Scale shrinks the paper's workloads to laptop size. Factor 1 is the
// default benchmark scale; the full-paper scale is Factor ~50 (1M rows
// per node) and takes correspondingly longer.
type Scale struct {
	// Rows is the base row count per node ("1M" in the paper).
	Rows int
	// Ops is the number of operations per mixed-workload run.
	Ops int
	// ValueSize is the record payload (1 KB in the paper).
	ValueSize int
	// Nodes are the cluster sizes swept (3/6/12/24 in the paper).
	Nodes []int
	// Workers is the client parallelism per run.
	Workers int
}

// DefaultScale keeps every figure under a few seconds.
func DefaultScale() Scale {
	return Scale{Rows: 20_000, Ops: 8_000, ValueSize: 1024, Nodes: []int{3, 6, 12, 24}, Workers: 4}
}

// SmallScale is used by testing.B wrappers.
func SmallScale() Scale {
	return Scale{Rows: 2_000, Ops: 1_000, ValueSize: 256, Nodes: []int{2, 4}, Workers: 2}
}

// Table is one reproduced figure.
type Table struct {
	ID     string // e.g. "fig06"
	Title  string
	Header []string
	Rows   [][]string
	// Shape states the qualitative claim this table should reproduce;
	// Hold is whether it did in this run.
	Shape string
	Hold  bool
}

// Render formats the table for terminal output.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	held := "HELD"
	if !t.Hold {
		held = "NOT HELD"
	}
	fmt.Fprintf(&b, "shape: %s [%s]\n", t.Shape, held)
	return b.String()
}

// Markdown formats the table as one section of EXPERIMENTS.md.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n| %s |\n|%s\n", t.ID, t.Title,
		strings.Join(t.Header, " | "), strings.Repeat(" --- |", len(t.Header)))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	held := "**held**"
	if !t.Hold {
		held = "**not held**"
	}
	fmt.Fprintf(&b, "\nPaper shape: %s — %s in this run.\n\n", t.Shape, held)
	return b.String()
}

// Experiment is one registered figure reproduction.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Scale) (Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig06", "Sequential write: LogBase vs HBase", Fig06SequentialWrite},
		{"fig07", "Random read without cache: LogBase vs HBase", Fig07RandomReadNoCache},
		{"fig08", "Random read with cache: LogBase vs HBase", Fig08RandomReadCache},
		{"fig09", "Sequential scan: LogBase vs HBase", Fig09SequentialScan},
		{"fig10", "Range scan: LogBase pre/post-compaction vs HBase", Fig10RangeScan},
		{"fig11", "YCSB parallel load time vs cluster size", Fig11YCSBLoad},
		{"fig12", "YCSB mixed throughput (75%/95% update)", Fig12MixedThroughput},
		{"fig13", "YCSB update latency", Fig13UpdateLatency},
		{"fig14", "YCSB read latency", Fig14ReadLatency},
		{"fig15", "TPC-W transaction latency", Fig15TPCWLatency},
		{"fig16", "TPC-W transaction throughput", Fig16TPCWThroughput},
		{"fig17", "Checkpoint write/reload cost", Fig17Checkpoint},
		{"fig18", "Recovery time with/without checkpoint", Fig18Recovery},
		{"fig19", "Sequential write: LogBase vs LRS", Fig19LRSWrite},
		{"fig20", "Random read: LogBase vs LRS", Fig20LRSRead},
		{"fig21", "Sequential scan: LogBase vs LRS", Fig21LRSScan},
		{"fig22", "Throughput across nodes: LogBase vs LRS", Fig22LRSThroughput},
		{"abl-log-per-group", "Ablation: single log vs log per column group", AblationLogPerGroup},
		{"abl-cache-policy", "Ablation: read-buffer replacement policy", AblationCachePolicy},
		{"abl-group-commit", "Ablation: group commit batch size", AblationGroupCommit},
		{"abl-bloom", "Ablation: bloom filters on baseline store files", AblationBloomFilter},
		{"abl-vertical", "Ablation: workload-driven vertical partitioning", AblationVerticalPartition},
		{"analytic-scan", "Analytic scan: serial FullScan vs snapshot-parallel aggregate", AnalyticScan},
		{"analytic-mix", "YCSB-style scan-heavy mix on serial vs parallel scan path", AnalyticScanMix},
		{"bulk-load", "Bulk load: per-record Put vs WriteBatch append sweeps", BulkLoad},
		{"elastic-hotrange", "Elasticity: balancer splits/migrates a hot key-range tablet", ElasticHotRange},
		{"scan-pushdown", "Scan push-down: LIMIT + key predicate at the tablet servers vs client-side filtering", ScanPushdown},
		{"scan-clustered", "Clustered scan fast path vs index-driven path on a compacted log", ScanClustered},
		{"autocompact", "Background incremental compaction holds SortedFraction under churn", AutoCompactChurn},
		{"obs-overhead", "Observability overhead: instrumented vs disabled Put/Scan", ObsOverhead},
		{"fault-overhead", "Fault-injection overhead: wired-but-disarmed registry vs nil", FaultOverhead},
		{"cdc-tail", "Changefeed: historical catch-up vs live tail off the log", CDCTail},
		{"join-greedy", "Three-table equi-join: greedy planned vs worst-order naive", JoinGreedy},
		{"replica-scan", "Read replicas: pinned scan offload vs primary scan under writes", ReplicaScan},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ms renders a duration as milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }

// f2 renders a per-op figure to two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// benchDiskModel is the spinning-disk model used by all micro-benches:
// the paper's testbed disks (commodity 7200 RPM).
func benchDiskModel() simdisk.Model { return simdisk.DefaultModel() }

// fixture bundles one engine instance on its own modelled DFS.
type fixture struct {
	fs    *dfs.DFS
	clock *simdisk.Clock
}

func newFixture(dir string) (*fixture, error) {
	clock := &simdisk.Clock{}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes:      3,
		ReplicationFactor: 3,
		BlockSize:         4 << 20,
		DiskModel:         benchDiskModel(),
		Clock:             clock,
	})
	if err != nil {
		return nil, err
	}
	return &fixture{fs: fs, clock: clock}, nil
}

// sample is one measured run.
type sample struct {
	ops      int64         // operations (rows, events, tuples) the run performed
	disk     time.Duration // modelled disk time charged to the clock
	wall     time.Duration
	logReads int64 // records the watched servers fetched from their logs
}

func (m sample) diskUS() float64 {
	return float64(m.disk) / float64(time.Microsecond) / float64(m.ops)
}

func (m sample) wallUS() float64 {
	return float64(m.wall) / float64(time.Microsecond) / float64(m.ops)
}

// over is the fractional modelled-disk cost of m above base: the number
// every "adds at most 5%" shape is stated in.
func (m sample) over(base sample) float64 { return (m.diskUS() - base.diskUS()) / base.diskUS() }

// measured is the one place a modelled-disk clock is reset around a
// closure: it runs fn and reports the disk time charged to clock, the
// wall time, and the records the watched servers read from their logs
// meanwhile. Allocations are not sampled here; the benchmark of
// record's ladder reports them per layer.
func measured(clock *simdisk.Clock, ops int64, fn func() error, watch ...*core.Server) (sample, error) {
	logReads := func() (n int64) {
		for _, srv := range watch {
			n += srv.Stats().LogReads.Load()
		}
		return n
	}
	before := logReads()
	clock.Reset()
	start := time.Now()
	err := fn()
	return sample{ops: ops, disk: clock.Elapsed(), wall: time.Since(start), logReads: logReads() - before}, err
}

// timed runs fn and returns (wall, virtual-disk) elapsed time.
func (f *fixture) timed(fn func() error) (time.Duration, time.Duration, error) {
	f.resetStats()
	m, err := measured(f.clock, 1, fn)
	return m.wall, m.disk, err
}

// resetStats zeroes per-datanode I/O counters.
func (f *fixture) resetStats() {
	for i := 0; i < f.fs.NumDataNodes(); i++ {
		f.fs.DataNode(i).Disk().ResetStats()
	}
}

// bytesRead sums bytes read across all datanodes since the last reset.
func (f *fixture) bytesRead() int64 {
	var n int64
	for i := 0; i < f.fs.NumDataNodes(); i++ {
		n += f.fs.DataNode(i).Disk().Stats().BytesRead
	}
	return n
}

// newLogBase builds a single LogBase tablet server on the fixture.
func (f *fixture) newLogBase(cacheBytes int64) (*core.Server, error) {
	srv, err := core.NewServer(f.fs, "lb", core.Config{
		SegmentSize:    16 << 20,
		ReadCacheBytes: cacheBytes,
	})
	if err != nil {
		return nil, err
	}
	srv.AddTablet(benchTablet(), []string{benchGroup})
	return srv, nil
}

const (
	benchTable    = "bench"
	benchTabletID = "bench/0000"
	benchGroup    = "cg"
)

func benchTablet() partition.Tablet {
	return partition.Tablet{ID: benchTabletID, Table: benchTable}
}

// newHBase builds one HBase region store on the fixture. The memtable
// threshold scales with the workload so flushes happen a handful of
// times per run (as 64 MB does against 1 GB in the paper).
func (f *fixture) newHBase(dataBytes int64, blockCache int64) (*hbase.Store, error) {
	memtable := dataBytes / 16
	if memtable < 64<<10 {
		memtable = 64 << 10
	}
	return hbase.Open(f.fs, "hb", hbase.Config{
		MemtableBytes:   memtable,
		BlockSize:       64 << 10,
		BlockCacheBytes: blockCache,
		SegmentSize:     16 << 20,
	})
}

// newHBaseWithBloom is newHBase with a small memtable (many store
// files) and configurable bloom filters, for the bloom ablation.
func (f *fixture) newHBaseWithBloom(dataBytes int64, bloomBits int) (*hbase.Store, error) {
	memtable := dataBytes / 8
	if memtable < 32<<10 {
		memtable = 32 << 10
	}
	return hbase.Open(f.fs, "hb-bloom", hbase.Config{
		MemtableBytes:   memtable,
		BlockSize:       64 << 10,
		MaxStoreFiles:   32, // keep files un-merged so multi-file reads happen
		BloomBitsPerKey: bloomBits,
		SegmentSize:     16 << 20,
	})
}

// newLRS builds one LRS store with a deliberately small index memtable
// so the index spills to disk runs (the "memory is scarce" scenario of
// §4.6).
func (f *fixture) newLRS(dataBytes int64) (*lrs.Store, error) {
	return lrs.Open(f.fs, "lrs", lrs.Config{
		SegmentSize: 16 << 20,
		Index:       lrsIndexOptions(dataBytes),
	})
}

func lrsIndexOptions(dataBytes int64) (o lsm.Options) {
	// The paper keeps LevelDB's 4 MB write buffer against 1 GB/node of
	// data, so the index spills to disk runs. At bench scale the same
	// absolute buffer would hold the whole index in memory and erase
	// the very cost LRS exists to measure; scale it with the data to
	// preserve the spill ratio.
	o.MemtableBytes = dataBytes / 64
	if o.MemtableBytes < 32<<10 {
		o.MemtableBytes = 32 << 10
	}
	o.BlockSize = 8 << 10
	// The paper's LRS keeps LevelDB's read buffer ("4 MB and 8 MB
	// respectively", §4.6): index blocks are cached, so lookups touch
	// disk only for cold blocks.
	o.BlockCache = cache.New(8<<20, nil)
	return o
}

// key renders row i as a fixed-width key.
func key(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// value builds a payload of the scale's record size.
func value(size int, seed byte) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = seed + byte(i%31)
	}
	return v
}
