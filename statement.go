package logbase

// The composable query-statement API: one serializable statement form
// — Q(table).Range(...).Join(other, On{...}).GroupBy(n).Agg(Count) —
// the one way to ask an analytical question, executed identically by
// both backends and the textproto QUERY command, by one executor
// (internal/query) at one pinned snapshot. A join-free statement is the
// one-step plan: every tablet server aggregates its own piece and only
// mergeable partials come back (it is answered from a matching
// materialized view when one is registered); joins run greedy-ordered,
// broadcasting the small side's matched keys as a set push-down, with
// relation fetches on the routed scan path. Both re-resolve routing
// when the cluster splits or migrates tablets mid-statement.

import (
	"context"
	"errors"

	"repro/internal/query"
)

// Statement is the serializable composable query form; build it with Q
// and the chaining methods (Group, Range, FilterKey, FilterValue, At,
// Join, GroupBy, GroupByExpr, Agg, AggOf), then run it with Store.Exec.
type Statement = query.Statement

// On is one equi-join condition (left expr on an earlier relation ==
// right expr on the joined relation; Via names a secondary index).
type On = query.On

// Expr projects a join/grouping/aggregation attribute out of a row.
type Expr = query.Expr

// StatementFilter is the serializable per-relation select push-down.
type StatementFilter = query.RelFilter

// Q starts a query statement over table:
//
//	res, err := st.Exec(ctx, logbase.Q("orders").Group("g").
//	    Range(lo, hi).
//	    Join("customers", "g", logbase.On{Left: logbase.ValField(0), Right: logbase.KeyExpr()}).
//	    GroupBy(4).Agg(logbase.Count))
func Q(table string) *Statement { return query.NewStatement(table) }

// Expr constructors: the whole key/value, or one comma-separated field
// of either.
var (
	KeyExpr  = query.KeyExpr
	KeyField = query.KeyField
	ValExpr  = query.ValExpr
	ValField = query.ValField
)

// Exec executes a composable query statement (build with Q): a
// statement a registered materialized view maintains is answered from
// the view; everything else is planned and run by the one statement
// executor over a snapshot pinned once for every relation (timestamps
// are issued globally, so one ts is consistent across tables).
func (c *client) Exec(ctx context.Context, stmt *Statement) (QueryResult, error) {
	return c.exec(ctx, stmt, ExecOptions{}, true)
}

// ExecOptions tune statement execution: a forced join order and
// switches disabling the set-predicate broadcast and the select
// push-down. The zero value is the real engine; the overrides exist so
// benchmarks and oracle tests can run the worst-case naive plan
// through the identical machinery.
type ExecOptions = query.ExecOptions

// ExecWith executes a statement with explicit options, bypassing the
// materialized-view matcher (Exec is the normal entry point).
func (c *client) ExecWith(ctx context.Context, stmt *Statement, opts ExecOptions) (QueryResult, error) {
	return c.exec(ctx, stmt, opts, false)
}

// exec is the one body behind Exec and ExecWith; views puts the
// materialized-view matcher in front of the executor.
func (c *client) exec(ctx context.Context, stmt *Statement, opts ExecOptions, views bool) (QueryResult, error) {
	if err := ctxErr(ctx); err != nil {
		return QueryResult{}, err
	}
	if err := stmt.Validate(); err != nil {
		return QueryResult{}, err
	}
	if views {
		if res, ok := c.views.serveStmt(stmt); ok {
			return res, nil
		}
	}
	ctx, sp := c.root(ctx, "store.exec", stmt.Base.Table)
	defer sp.Finish()
	sf := &relFetcher{c: c, rels: stmt.Rels(), ts: c.pinTS(stmt.AtTS)}
	return query.ExecStatement(ctx, stmt, sf.ts, sf, opts)
}

// relFetcher is the statement executor's Fetcher over the client's
// backend: every relation is fetched — as rows through the routed scan
// primitive, or as partial aggregates — pinned at the SAME statement
// timestamp, so a fetch that lands mid-split resumes against the new
// topology exactly like a plain Scan.
type relFetcher struct {
	c    *client
	rels []query.Rel
	ts   int64
}

func (sf *relFetcher) Fetch(ctx context.Context, rel int, f query.RelFilter) ([]Row, error) {
	r := sf.rels[rel]
	ro := ReadOptions{Snapshot: sf.ts, Key: f.Key, Value: f.Value}
	var rows []Row
	err := sf.c.scan(ctx, r.Table, r.Group, f.Start, f.End, ro, func(batch []Row) error {
		rows = append(rows, batch...)
		return nil
	})
	return rows, err
}

func (sf *relFetcher) FetchPartial(ctx context.Context, rel int, f query.RelFilter, fold query.Fold) (QueryResult, error) {
	r := sf.rels[rel]
	return sf.c.aggregate(ctx, r.Table, r.Group, sf.ts, f, fold)
}

// FetchSecondary fetches join partners by registered secondary-index
// lookups. Lookups serve the latest committed versions; rows newer
// than the statement snapshot are re-read at the pinned timestamp, and
// the executor re-verifies the join condition and the relation's own
// filter on everything returned.
func (sf *relFetcher) FetchSecondary(ctx context.Context, rel int, index string, vals [][]byte) ([]Row, error) {
	r := sf.rels[rel]
	seen := map[string]bool{}
	var rows []Row
	for _, v := range vals {
		got, err := sf.c.LookupSecondary(index, v)
		if err != nil {
			return nil, err
		}
		for _, row := range got {
			if row.TS > sf.ts {
				pinned, err := sf.c.read(ctx, r.Table, r.Group, row.Key, ReadOptions{Snapshot: sf.ts})
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					return nil, err
				}
				row = pinned[0]
			}
			if !seen[string(row.Key)] {
				seen[string(row.Key)] = true
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// serveStmt answers a join-free statement from a matching registered
// materialized view, so every caller of Exec (the wire QUERY included)
// gets view answering without choosing it. A statement matches when it has
// exactly the shape a view maintains: one aggregate over the base
// relation (COUNT(*) or an aggregate of the whole value), no
// predicates, and key-prefix grouping or none.
func (vs *viewSet) serveStmt(stmt *Statement) (QueryResult, bool) {
	if len(stmt.Joins) != 0 || len(stmt.Aggs) != 1 {
		return QueryResult{}, false
	}
	f := stmt.Base.Filter
	if f.Key != nil || f.Value != nil {
		return QueryResult{}, false
	}
	a := stmt.Aggs[0]
	if a.Table != stmt.Base.Table {
		return QueryResult{}, false
	}
	if a.Kind == Count {
		// A Count with a projection counts only rows whose projection
		// parses numerically — not the view's row count.
		if !a.Expr.IsZero() {
			return QueryResult{}, false
		}
	} else if !a.Expr.WholeValue() {
		return QueryResult{}, false
	}
	prefix := 0
	if stmt.By != nil {
		if stmt.By.Table != stmt.Base.Table || stmt.By.Expr != KeyExpr() || stmt.By.Prefix <= 0 {
			return QueryResult{}, false
		}
		prefix = stmt.By.Prefix
	}
	return vs.serve(stmt.Base.Table, stmt.Base.Group, a.Kind, f.Start, f.End, stmt.AtTS, prefix)
}
