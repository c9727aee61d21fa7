package bench

// The join-planner experiment for the CI perf gate (cmd/benchgate) and
// the registry: one TPC-W-ish three-table equi-join statement
// (lineitems over a narrow order range ⋈ customers ⋈ items) executed
// twice on the same deterministic modelled-disk cluster — once by the
// real engine (greedy join order, set-predicate broadcast, select
// push-down) and once as the worst-order naive plan (forced
// customers × items cartesian first, full scans, every filter applied
// client-side). Both runs must produce identical results; the harness
// additionally asserts the greedy plan stays >= 2x cheaper in modelled
// disk time, so planner-order or broadcast regressions fail the gate
// even before the baseline tolerance trips.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/simdisk"
)

// joinFixture loads the three relations: every lineitem references its
// customer (value field 0) and item (value field 1).
func joinFixture(s Scale) (*cluster.Cluster, string, int64, error) {
	dir, err := tempDir("joinops")
	if err != nil {
		return nil, "", 0, err
	}
	c, err := cluster.New(dir, cluster.Config{
		NumServers: 2,
		Tables: []cluster.TableSpec{
			{Name: "lineitems", Groups: []string{"ref"}},
			{Name: "customers", Groups: []string{"info"}},
			{Name: "items", Groups: []string{"price"}},
		},
		Server: core.Config{SegmentSize: 16 << 20},
		// Small DFS blocks so the fact table spans many blocks: the
		// experiment measures which plan moves fewer log blocks, which a
		// single-block fixture cannot distinguish.
		DFS: dfs.Config{BlockSize: 64 << 10, DiskModel: benchDiskModel(), Clock: &simdisk.Clock{}},
	})
	if err != nil {
		return nil, dir, 0, err
	}
	st := logbase.NewClusterClient(c)
	ctx := context.Background()
	lineitems := int64(s.Rows)
	customers := lineitems / 40
	if customers < 4 {
		customers = 4
	}
	const items = 16
	b := st.Batch()
	for i := int64(0); i < customers; i++ {
		b.Put("customers", "info", []byte(fmt.Sprintf("c%05d", i)), []byte(fmt.Sprint(10+i%90)))
	}
	for i := int64(0); i < items; i++ {
		b.Put("items", "price", []byte(fmt.Sprintf("i%02d", i)), []byte(fmt.Sprint(5*(i+1))))
	}
	// Fact rows carry the reference pair plus payload padding to
	// s.ValueSize (extra comma-separated fields are ignored by the join
	// exprs), so full scans pay real transfer.
	pad := value(s.ValueSize, 11)
	for i := int64(0); i < lineitems; i++ {
		ref := fmt.Sprintf("c%05d,i%02d,%s", i%customers, i%items, pad)
		b.Put("lineitems", "ref", []byte(fmt.Sprintf("o%08d", i)), []byte(ref))
		if b.Len() >= 1024 {
			if err := b.Flush(ctx); err != nil {
				return nil, dir, 0, err
			}
		}
	}
	if err := b.Flush(ctx); err != nil {
		return nil, dir, 0, err
	}
	return c, dir, customers, nil
}

// joinStatement is the gated statement: a ~5% slice of the lineitems
// keyspace joined to both dimension tables, counting tuples and
// summing item prices. span is the number of qualifying lineitems.
func joinStatement(s Scale) (*logbase.Statement, int64) {
	span := int64(s.Rows) / 20
	if span < 8 {
		span = 8
	}
	stmt := logbase.Q("lineitems").Group("ref").
		Range([]byte("o00000000"), []byte(fmt.Sprintf("o%08d", span))).
		Join("customers", "info", logbase.On{Left: logbase.ValField(0), Right: logbase.KeyExpr()}).
		Join("items", "price", logbase.On{LeftTable: "lineitems", Left: logbase.ValField(1), Right: logbase.KeyExpr()}).
		Agg(logbase.Count).
		AggOf(logbase.Sum, "items", logbase.ValExpr())
	return stmt, span
}

// joinKeyOpsPair measures the gated pair and checks both plans agree
// row for row.
func joinKeyOpsPair(s Scale) (greedy, naive KeyOp, err error) {
	c, dir, _, err := joinFixture(s)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return KeyOp{}, KeyOp{}, err
	}
	defer c.Close()
	st := logbase.NewClusterClient(c)
	ctx := context.Background()

	logReads := func() int64 {
		var n int64
		for _, id := range c.LiveServers() {
			n += c.Server(id).Stats().LogReads.Load()
		}
		return n
	}

	var results []logbase.QueryResult
	measure := func(name string, span int64, run func() (logbase.QueryResult, error)) (KeyOp, error) {
		c.Clock().Reset()
		before := logReads()
		am := startAllocMeter()
		start := time.Now()
		res, err := run()
		if err != nil {
			return KeyOp{}, fmt.Errorf("%s: %w", name, err)
		}
		if res.Rows != span {
			return KeyOp{}, fmt.Errorf("%s joined %d tuples, want %d", name, res.Rows, span)
		}
		results = append(results, res)
		wall := time.Since(start)
		allocs, bytes := am.perOp(span)
		disk := c.Clock().Elapsed()
		return KeyOp{
			Name:        name,
			Ops:         span,
			DiskUSPerOp: float64(disk) / float64(time.Microsecond) / float64(span),
			WallUSPerOp: float64(wall) / float64(time.Microsecond) / float64(span),
			RowsShipped: logReads() - before,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
		}, nil
	}

	stmt, span := joinStatement(s)
	if greedy, err = measure("join-greedy", span, func() (logbase.QueryResult, error) {
		return st.Exec(ctx, stmt)
	}); err != nil {
		return
	}
	// The worst-order naive plan: the cartesian product of both
	// dimension tables first, the fact table last, nothing pushed down,
	// nothing broadcast — the data movement a statistics-free planner
	// risks without the bound-attribute ordering rule.
	stmt, span = joinStatement(s)
	if naive, err = measure("join-naive", span, func() (logbase.QueryResult, error) {
		return st.ExecWith(ctx, stmt, logbase.ExecOptions{
			Order: []int{1, 2, 0}, NoBroadcast: true, NoPushdown: true,
		})
	}); err != nil {
		return
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		return greedy, naive, fmt.Errorf("greedy and naive plans disagree: %+v vs %+v", results[0], results[1])
	}
	return greedy, naive, nil
}

// JoinKeyOps runs the gated pair and enforces the acceptance floor:
// the greedy plan must cost at most half the worst-order naive plan's
// modelled disk time. The floor is only enforced at scales where the
// fact table dwarfs the joined slice — tiny smoke scales still
// measure, they just don't gate the ratio.
func JoinKeyOps(s Scale) ([]KeyOp, error) {
	greedy, naive, err := joinKeyOpsPair(s)
	if err != nil {
		return nil, err
	}
	if s.Rows >= 1000 && greedy.DiskUSPerOp*2 > naive.DiskUSPerOp {
		return nil, fmt.Errorf("greedy join not >=2x cheaper: greedy %.2f vs naive %.2f disk us/op",
			greedy.DiskUSPerOp, naive.DiskUSPerOp)
	}
	return []KeyOp{greedy, naive}, nil
}

// JoinGreedy is the registry experiment form of the gated pair.
func JoinGreedy(s Scale) (Table, error) {
	t := Table{
		ID:     "join-greedy",
		Title:  "Three-table equi-join: greedy planned vs worst-order naive",
		Header: []string{"tuples", "greedy disk µs/tuple", "naive disk µs/tuple", "greedy shipped", "naive shipped", "speedup"},
		Shape:  "greedy order + broadcast push-down >= 2x cheaper modelled disk than worst-order naive",
	}
	greedy, naive, err := joinKeyOpsPair(s)
	if err != nil {
		return t, err
	}
	speedup := 0.0
	if greedy.DiskUSPerOp > 0 {
		speedup = naive.DiskUSPerOp / greedy.DiskUSPerOp
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(greedy.Ops),
		fmt.Sprintf("%.2f", greedy.DiskUSPerOp),
		fmt.Sprintf("%.2f", naive.DiskUSPerOp),
		fmt.Sprint(greedy.RowsShipped),
		fmt.Sprint(naive.RowsShipped),
		fmt.Sprintf("%.1fx", speedup),
	})
	t.Hold = speedup >= 2
	return t, nil
}
