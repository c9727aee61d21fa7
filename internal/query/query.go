// Package query is LogBase's snapshot-consistent analytical executor
// (the HTAP read path): because the log is the only data repository and
// every committed version stays addressable through the multiversion
// index, a consistent snapshot at any timestamp is free — no copy, no
// ETL, no lock against the OLTP write path. A Statement (statement.go)
// is planned (planner.go) and run by ONE executor, ExecStatement
// (join.go), pinned at one timestamp: every relation is fetched by the
// strategy its plan step names, and everything that survives is folded
// by one aggregation kernel (fold.go).
//
// Aggregate results are mergeable partials (count/sum/min/max carry
// enough state to combine), which is what lets the partial strategy
// ship a statement's grouping and aggregates to every tablet server at
// a single global timestamp and gather the partial results into one
// exact answer.
package query

import (
	"fmt"
	"sort"
	"strconv"
)

// AggKind enumerates the aggregation operators.
type AggKind int

const (
	Count AggKind = iota
	Sum
	Min
	Max
	Avg
)

// String names the operator (COUNT, SUM, ...).
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// ParseAggKind maps an operator name (any case handled by caller;
// expects upper) back to its kind.
func ParseAggKind(s string) (AggKind, error) {
	for _, k := range []AggKind{Count, Sum, Min, Max, Avg} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("query: unknown aggregate %q", s)
}

// Number reads an attribute as a decimal ASCII number — the one numeric
// encoding aggregates (and the materialized views mirroring them)
// understand. ok=false behaves like SQL NULL: the row is skipped.
func Number(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// AggState is a mergeable partial aggregate: enough state to produce
// any AggKind and to combine with a partial computed elsewhere (another
// shard, another tablet server).
type AggState struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds one value into the partial.
func (a *AggState) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Merge folds another partial into this one.
func (a *AggState) Merge(b AggState) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.Count == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// Value finalises the partial as kind. Min/Max/Avg over zero
// participating rows return 0 (check Count to distinguish).
func (a AggState) Value(kind AggKind) float64 {
	switch kind {
	case Count:
		return float64(a.Count)
	case Sum:
		return a.Sum
	case Min:
		return a.Min
	case Max:
		return a.Max
	case Avg:
		if a.Count == 0 {
			return 0
		}
		return a.Sum / float64(a.Count)
	}
	return 0
}

// GroupResult is one output group: its key, the number of rows that
// fell into it, and one partial per statement aggregate.
type GroupResult struct {
	Key  string
	Rows int64
	Aggs []AggState
}

// Result is a completed (or partial, pre-merge) query result.
type Result struct {
	// TS is the pinned snapshot timestamp the result is consistent at.
	TS int64
	// Rows is the total number of rows aggregated.
	Rows int64
	// Groups is sorted by Key; a statement without GROUP BY has exactly
	// one group with key "" (when any row matched).
	Groups []GroupResult
}

// Group returns the group with the given key.
func (r Result) Group(key string) (GroupResult, bool) {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return r.Groups[i], true
	}
	return GroupResult{}, false
}

// Value returns aggregate i of the single-group result (key ""); zero
// if no rows matched.
func (r Result) Value(i int, kind AggKind) float64 {
	g, ok := r.Group("")
	if !ok || i >= len(g.Aggs) {
		return 0
	}
	return g.Aggs[i].Value(kind)
}

// Merge combines a partial result computed over a disjoint row set at
// the same snapshot (the gather half of scatter-gather).
func (r *Result) Merge(o Result) {
	if r.TS == 0 {
		r.TS = o.TS
	}
	r.Rows += o.Rows
	if len(o.Groups) == 0 {
		return
	}
	merged := make(map[string]*GroupResult, len(r.Groups)+len(o.Groups))
	order := make([]string, 0, len(r.Groups)+len(o.Groups))
	take := func(gs []GroupResult) {
		for i := range gs {
			g := gs[i]
			dst, ok := merged[g.Key]
			if !ok {
				cp := GroupResult{Key: g.Key, Rows: g.Rows, Aggs: append([]AggState(nil), g.Aggs...)}
				merged[g.Key] = &cp
				order = append(order, g.Key)
				continue
			}
			dst.Rows += g.Rows
			for j := range g.Aggs {
				if j < len(dst.Aggs) {
					dst.Aggs[j].Merge(g.Aggs[j])
				}
			}
		}
	}
	take(r.Groups)
	take(o.Groups)
	sort.Strings(order)
	out := make([]GroupResult, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	r.Groups = out
}
