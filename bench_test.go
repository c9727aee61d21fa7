package logbase_test

// BenchmarkExperiments runs every experiment of the internal/bench
// registry (one sub-benchmark per id: the paper's figures of §4, the
// ablations and the A/B groups) at SmallScale so `go test -bench=.`
// stays tractable. cmd/logbase-bench runs the same experiments at full
// scale and prints the paper-style series.
//
// A reported metric "shape_held" of 1 means the run reproduced the
// experiment's qualitative claim (who wins, roughly by how much).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	logbase "repro"
	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	s := bench.SmallScale()
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			held := 0
			for i := 0; i < b.N; i++ {
				tab, err := e.Run(s)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if tab.Hold {
					held++
				}
			}
			b.ReportMetric(float64(held)/float64(b.N), "shape_held")
		})
	}
}

// Per-operation microbenchmarks on the public API (real allocations,
// real file I/O, no disk model).

func benchDB(b *testing.B) *logbase.DB {
	b.Helper()
	db, err := logbase.Open(b.TempDir(), logbase.Options{ReadCacheBytes: 8 << 20, SegmentSize: 32 << 20})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	if err := db.CreateTable("t", "g"); err != nil {
		b.Fatalf("CreateTable: %v", err)
	}
	return db
}

func BenchmarkOpPut1K(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(bg, "t", "g", []byte(fmt.Sprintf("user%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1024)
}

// BenchmarkOpBatchPut1K is BenchmarkOpPut1K through the WriteBatch
// bulk path: same rows, flushed as one append sweep per 256 records.
// Compare ns/op directly against BenchmarkOpPut1K.
func BenchmarkOpBatchPut1K(b *testing.B) {
	db := benchDB(b)
	val := make([]byte, 1024)
	batch := db.Batch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Put("t", "g", []byte(fmt.Sprintf("user%012d", i)), val)
		if batch.Len() >= 256 {
			if err := batch.Flush(bg); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := batch.Flush(bg); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
}

func BenchmarkOpGetCached(b *testing.B) {
	db := benchDB(b)
	key := []byte("hot")
	db.Put(bg, "t", "g", key, make([]byte, 1024))
	db.Get(bg, "t", "g", key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(bg, "t", "g", key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpGetLongTail(b *testing.B) {
	// The paper's long-tail read: dense index + one log read, no cache.
	db, err := logbase.Open(b.TempDir(), logbase.Options{SegmentSize: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	db.CreateTable("t", "g")
	const n = 10000
	val := make([]byte, 1024)
	for i := 0; i < n; i++ {
		db.Put(bg, "t", "g", []byte(fmt.Sprintf("user%012d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("user%012d", (i*7919)%n))
		if _, err := db.Get(bg, "t", "g", key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpTxnCommit(b *testing.B) {
	db := benchDB(b)
	db.Put(bg, "t", "g", []byte("a"), []byte("0"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := logbase.RunTx(bg, db, func(tx logbase.Tx) error {
			v, err := tx.Get(bg, "t", "g", []byte("a"))
			if err != nil {
				return err
			}
			return tx.Put("t", "g", []byte("a"), v)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpScan100(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < 1000; i++ {
		db.Put(bg, "t", "g", []byte(fmt.Sprintf("user%012d", i)), make([]byte, 256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		start := []byte(fmt.Sprintf("user%012d", (i*37)%900))
		end := []byte(fmt.Sprintf("user%012d", (i*37)%900+100))
		if err := each(db.Scan(bg, "t", "g", start, end), func(logbase.Row) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != 100 {
			b.Fatalf("scan saw %d rows", n)
		}
	}
}

// Analytic-scan benchmarks: the query subsystem's acceptance check. A
// 100k-row table is scanned once per iteration, serially through
// FullScan (log order, every record decoded) and through the
// snapshot-parallel aggregation pipeline (sharded index scan, batched
// log reads). Compare ns/op directly: same table, same aggregate.

const analyticRows = 100_000

var (
	analyticOnce sync.Once
	analyticDB   *logbase.DB
	analyticErr  error
)

func analyticFixture(b *testing.B) *logbase.DB {
	b.Helper()
	analyticOnce.Do(func() {
		dir, err := os.MkdirTemp("", "logbase-analytic-")
		if err != nil {
			analyticErr = err
			return
		}
		db, err := logbase.Open(dir, logbase.Options{ReadCacheBytes: 64 << 20, SegmentSize: 64 << 20})
		if err != nil {
			analyticErr = err
			return
		}
		if err := db.CreateTable("t", "g"); err != nil {
			analyticErr = err
			return
		}
		// 15-digit values stay inside strconv's fast float path, so the
		// benchmark measures the scan, not decimal conversion.
		val := func(i int) []byte { return []byte(fmt.Sprintf("%015d", i%1000)) }
		for i := 0; i < analyticRows; i++ {
			if err := db.Put(bg, "t", "g", []byte(fmt.Sprintf("user%012d", i)), val(i)); err != nil {
				analyticErr = err
				return
			}
		}
		// Update a third of the rows (same value, so the expected sum
		// stays closed-form): the log now carries stale versions that
		// FullScan must decode and discard, while the index-driven
		// snapshot scan fetches live data only.
		for i := 0; i < analyticRows; i += 3 {
			if err := db.Put(bg, "t", "g", []byte(fmt.Sprintf("user%012d", i)), val(i)); err != nil {
				analyticErr = err
				return
			}
		}
		analyticDB = db
	})
	if analyticErr != nil {
		b.Fatalf("analytic fixture: %v", analyticErr)
	}
	return analyticDB
}

const analyticWantSum = float64(analyticRows/1000) * (999 * 1000 / 2) // sum of i%1000

func BenchmarkAnalyticFullScan100k(b *testing.B) {
	db := analyticFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		var rows int64
		err := each(db.FullScan(bg, "t", "g"), func(r logbase.Row) {
			rows++
			if v, err := strconv.ParseFloat(string(r.Value), 64); err == nil {
				sum += v
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows != analyticRows || sum != analyticWantSum {
			b.Fatalf("rows=%d sum=%g, want %d/%g", rows, sum, analyticRows, analyticWantSum)
		}
	}
}

func BenchmarkAnalyticParallelQuery100k(b *testing.B) {
	db := analyticFixture(b)
	q := logbase.Q("t").Group("g").AggOf(logbase.Sum, "t", logbase.ValExpr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(bg, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != analyticRows || res.Value(0, logbase.Sum) != analyticWantSum {
			b.Fatalf("rows=%d sum=%g, want %d/%g", res.Rows, res.Value(0, logbase.Sum), analyticRows, analyticWantSum)
		}
	}
}

func BenchmarkAnalyticGroupBy100k(b *testing.B) {
	db := analyticFixture(b)
	q := logbase.Q("t").Group("g").GroupBy(len("user00000001")).
		Agg(logbase.Count).AggOf(logbase.Avg, "t", logbase.ValExpr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(bg, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != analyticRows {
			b.Fatalf("rows = %d", res.Rows)
		}
	}
}
