package bench

// join-greedy: one TPC-W-ish three-table equi-join statement
// (lineitems over a narrow order range ⋈ customers ⋈ items) executed
// twice on the same deterministic modelled-disk cluster — once by the
// real engine (greedy join order, set-predicate broadcast, select
// push-down) and once as the worst-order naive plan (forced
// customers × items cartesian first, full scans, every filter applied
// client-side).

import (
	"context"
	"fmt"
	"os"
	"reflect"

	logbase "repro"
	"repro/internal/cluster"
)

// joinFixture loads the three relations: every lineitem references its
// customer (value field 0) and item (value field 1).
func joinFixture(s Scale) (*cluster.Cluster, string, error) {
	c, dir, err := newBenchCluster("join", func(cfg *cluster.Config) {
		cfg.Tables = []cluster.TableSpec{
			{Name: "lineitems", Groups: []string{"ref"}},
			{Name: "customers", Groups: []string{"info"}},
			{Name: "items", Groups: []string{"price"}},
		}
		// Small DFS blocks so the fact table spans many blocks: the
		// experiment measures which plan moves fewer log blocks, which a
		// single-block fixture cannot distinguish.
		cfg.DFS.BlockSize = 64 << 10
	})
	if err != nil {
		return nil, dir, err
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
				return nil, dir, err
			}
		}
	}
	if err := b.Flush(ctx); err != nil {
		return nil, dir, err
	}
	return c, dir, nil
}

// joinStatement is the measured statement: a ~5% slice of the lineitems
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

// JoinGreedy is the registry experiment: both plans must join the same
// span tuples to identical results, and the shape holds when the greedy
// plan costs at most half the naive plan's modelled disk time. The ratio
// needs a fact table that dwarfs the joined slice: from about 1000
// lineitems up.
func JoinGreedy(s Scale) (Table, error) {
	t := Table{
		ID:     "join-greedy",
		Title:  "Three-table equi-join: greedy planned vs worst-order naive",
		Header: []string{"tuples", "greedy disk µs/tuple", "naive disk µs/tuple", "greedy shipped", "naive shipped", "speedup"},
		Shape:  "greedy order + broadcast push-down >= 2x cheaper modelled disk than worst-order naive, identical results",
	}
	c, dir, err := joinFixture(s)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return t, err
	}
	defer c.Close()
	st := logbase.NewClusterClient(c)
	ctx := context.Background()

	run := func(name string, opts *logbase.ExecOptions) (sample, logbase.QueryResult, error) {
		stmt, span := joinStatement(s)
		var res logbase.QueryResult
		m, err := measured(c.Clock(), span, func() (err error) {
			if opts == nil {
				res, err = st.Exec(ctx, stmt)
			} else {
				res, err = st.ExecWith(ctx, stmt, *opts)
			}
			return err
		}, clusterServers(c)...)
		if err == nil && res.Rows != span {
			err = fmt.Errorf("%s joined %d tuples, want %d", name, res.Rows, span)
		}
		return m, res, err
	}
	greedy, gres, err := run("join-greedy", nil)
	if err != nil {
		return t, err
	}
	// The worst-order naive plan: the cartesian product of both
	// dimension tables first, the fact table last, nothing pushed down,
	// nothing broadcast — the data movement a statistics-free planner
	// risks without the bound-attribute ordering rule.
	naive, nres, err := run("join-naive", &logbase.ExecOptions{
		Order: []int{1, 2, 0}, NoBroadcast: true, NoPushdown: true,
	})
	if err != nil {
		return t, err
	}
	if !reflect.DeepEqual(gres, nres) {
		return t, fmt.Errorf("greedy and naive plans disagree: %+v vs %+v", gres, nres)
	}
	speedup := naive.diskUS() / greedy.diskUS()
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(greedy.ops),
		f2(greedy.diskUS()),
		f2(naive.diskUS()),
		fmt.Sprint(greedy.logReads),
		fmt.Sprint(naive.logReads),
		fmt.Sprintf("%.1fx", speedup),
	})
	t.Hold = speedup >= 2
	return t, nil
}
