package query

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/readopt"
)

// Fold is the serializable group/aggregate tail of a statement: what
// the partial strategy ships, with the relation's RelFilter, to every
// tablet server holding a piece of the relation. Workers is the
// in-process cap on one tablet's shard fan-out (0 = GOMAXPROCS); it
// does not cross the wire.
type Fold struct {
	By      *GroupSpec
	Aggs    []AggSpec
	Workers int
}

// folder accumulates tuples into per-group partial aggregates.
type folder struct {
	fold   Fold
	byRel  int
	aggRel []int
	rows   int64
	// Without GROUP BY every tuple lands in the "" group; skip the map.
	single GroupResult
	groups map[string]*GroupResult
}

// newFolder resolves the fold's table references through relIndex; nil
// resolves every one to relation 0 (plain rows of a single relation).
func newFolder(fold Fold, relIndex func(table string) int) *folder {
	f := &folder{fold: fold, aggRel: make([]int, len(fold.Aggs))}
	if relIndex != nil {
		for i, a := range fold.Aggs {
			f.aggRel[i] = relIndex(a.Table)
		}
	}
	if fold.By == nil {
		f.single.Aggs = make([]AggState, len(fold.Aggs))
		return f
	}
	f.groups = make(map[string]*GroupResult)
	if relIndex != nil {
		f.byRel = relIndex(fold.By.Table)
	}
	return f
}

// add is the aggregation kernel — the one place a tuple (rows indexed
// by statement relation) becomes group state: the group key is the By
// expr truncated to its prefix ("" when the projection is missing),
// COUNT(*)-shaped aggregates take every tuple, and an aggregate whose
// projection is missing or non-numeric skips the tuple (SQL NULL).
func (f *folder) add(t []core.Row) {
	g := &f.single
	if by := f.fold.By; by != nil {
		v, _ := by.Expr.Eval(t[f.byRel])
		if by.Prefix > 0 && len(v) > by.Prefix {
			v = v[:by.Prefix]
		}
		var ok bool
		if g, ok = f.groups[string(v)]; !ok {
			g = &GroupResult{Key: string(v), Aggs: make([]AggState, len(f.fold.Aggs))}
			f.groups[g.Key] = g
		}
	}
	g.Rows++
	f.rows++
	for i := range f.fold.Aggs {
		expr := f.fold.Aggs[i].Expr
		if expr.IsZero() {
			g.Aggs[i].Add(0)
			continue
		}
		if v, ok := expr.Eval(t[f.aggRel[i]]); ok {
			if n, ok := Number(v); ok {
				g.Aggs[i].Add(n)
			}
		}
	}
}

// addRows feeds plain rows of a single relation to the kernel; each
// row is its own one-relation tuple, so nothing is allocated per row.
func (f *folder) addRows(rows []core.Row) {
	for i := range rows {
		f.add(rows[i : i+1])
	}
}

// result finalises the accumulated groups, sorted by key (nil when no
// tuple arrived).
func (f *folder) result(ts int64) Result {
	res := Result{TS: ts, Rows: f.rows}
	if f.rows == 0 {
		return res
	}
	if f.groups == nil {
		res.Groups = []GroupResult{f.single}
		return res
	}
	res.Groups = make([]GroupResult, 0, len(f.groups))
	for _, g := range f.groups {
		res.Groups = append(res.Groups, *g)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	return res
}

// FoldRows folds already-fetched rows of a single relation — the
// client-side twin of FoldScan for storage fakes.
func FoldRows(rows []core.Row, ts int64, fold Fold) Result {
	f := newFolder(fold, nil)
	f.addRows(rows)
	return f.result(ts)
}

// FoldScan is the tablet-server half of the partial strategy: it scans
// the named tablets of srv at snapshot ts under the push-down filter
// and folds every surviving row inside the scan's emit, returning one
// mergeable Result. Shard parallelism is core.ParallelScan's: each
// tablet's keyspace fans out over fold.Workers goroutines whose batches
// arrive serialised. Cancelling ctx aborts within one batch boundary.
func FoldScan(ctx context.Context, srv *core.Server, tablets []string, group string, ts int64, f RelFilter, fold Fold) (Result, error) {
	opt := core.ReadScanOptions(f.Start, f.End, ts, readopt.Options{Key: f.Key, Value: f.Value})
	if opt.Workers = fold.Workers; opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	acc := newFolder(fold, nil)
	emit := func(rows []core.Row) error {
		acc.addRows(rows)
		return nil
	}
	for _, tab := range tablets {
		if err := srv.ParallelScan(ctx, tab, group, opt, emit); err != nil {
			return Result{TS: ts}, err
		}
	}
	return acc.result(ts), nil
}
