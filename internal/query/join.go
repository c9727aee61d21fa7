package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/readopt"
)

// BroadcastCap bounds the set predicate shipped to the far side of a
// broadcast join. Past this many distinct values the plan degrades to
// a hash join over the relation's own filter — shipping an enormous
// IN-set costs more than the scan it would save.
const BroadcastCap = 4096

// Fetcher is the storage surface ExecStatement runs over: fetch one
// statement relation under a push-down filter, fetch the rows whose
// registered secondary-index attribute equals any of vals, or have the
// relation's tablet servers fold their rows under the filter and
// return the merged partials. The embedded engine and the cluster
// client each provide one; the executor itself stays storage-agnostic.
type Fetcher interface {
	Fetch(ctx context.Context, rel int, f RelFilter) ([]core.Row, error)
	FetchSecondary(ctx context.Context, rel int, index string, vals [][]byte) ([]core.Row, error)
	FetchPartial(ctx context.Context, rel int, f RelFilter, fold Fold) (Result, error)
}

// ExecOptions tune statement execution. The zero value is the real
// engine; Order and the No* switches exist for the naive nested-loop
// oracle the model tests and internal/bench's join-greedy compare against.
type ExecOptions struct {
	// Order forces the relation execution order (nil = greedy plan).
	Order []int
	// NoBroadcast disables the set-predicate broadcast: joined
	// relations are fetched by plain scans and probed client-side.
	NoBroadcast bool
	// NoPushdown additionally fetches every relation unfiltered and
	// applies its RelFilter client-side — the worst-case data-movement
	// plan. With no filter at the servers there is nothing to aggregate
	// there either: a partial step degrades to a row fetch.
	NoPushdown bool
}

// condSides orients condition j relative to relation rel: the already-
// bound relation on the other side, the expr evaluated there, and the
// expr evaluated on rel's rows.
func condSides(s *Statement, j, rel int) (otherRel int, otherExpr, relExpr Expr, err error) {
	left, right := condRels(s, j)
	switch rel {
	case right:
		return left, s.Joins[j].On.Left, s.Joins[j].On.Right, nil
	case left:
		return right, s.Joins[j].On.Right, s.Joins[j].On.Left, nil
	}
	return 0, Expr{}, Expr{}, fmt.Errorf("query: condition %d does not touch relation %d", j, rel)
}

// ExecStatement is the one way a statement runs, at snapshot ts: plan
// (greedy unless opts.Order pins it), fetch the start relation, then
// fold each planned relation in — broadcasting the bound side's
// distinct join values as a set push-down, looking up a secondary
// index, or hash-probing a scanned side — and aggregate the surviving
// tuples. A join-free statement is the one-step plan: its relation is
// aggregated at its tablet servers (StrategyPartial) and only the
// merged partials come back. Each step's strategy is labelled on the
// request's span.
func ExecStatement(ctx context.Context, s *Statement, ts int64, fetch Fetcher, opts ExecOptions) (Result, error) {
	var plan Plan
	var err error
	if opts.Order != nil {
		plan, err = PlanOrdered(s, opts.Order)
	} else {
		plan, err = PlanJoins(s)
	}
	if err != nil {
		return Result{}, err
	}
	rels := s.Rels()
	sp := obs.FromContext(ctx)

	// fetchRel applies (or, under NoPushdown, simulates client-side)
	// the relation's own filter.
	fetchRel := func(rel int) ([]core.Row, error) {
		if !opts.NoPushdown {
			return fetch.Fetch(ctx, rel, rels[rel].Filter)
		}
		rows, err := fetch.Fetch(ctx, rel, RelFilter{})
		if err != nil {
			return nil, err
		}
		kept := rows[:0]
		for _, r := range rows {
			if rels[rel].Filter.Match(r.Key, r.Value) {
				kept = append(kept, r)
			}
		}
		return kept, nil
	}

	start, strategy := plan.Steps[0].Rel, plan.Steps[0].Strategy
	if opts.NoPushdown && strategy == StrategyPartial {
		strategy = StrategyScan
	}
	sp.Label("strategy", strategy.String())
	if strategy == StrategyPartial {
		return fetch.FetchPartial(ctx, start, rels[start].Filter, s.fold())
	}

	// Tuples are row vectors indexed by statement relation; positions
	// bind as the plan progresses.
	rows, err := fetchRel(start)
	if err != nil {
		return Result{}, err
	}
	tuples := make([][]core.Row, 0, len(rows))
	for _, r := range rows {
		t := make([]core.Row, len(rels))
		t[start] = r
		tuples = append(tuples, t)
	}

	for _, step := range plan.Steps[1:] {
		if len(tuples) == 0 {
			break
		}
		rel := step.Rel
		strategy := step.Strategy
		if opts.NoBroadcast && strategy == StrategyBroadcast {
			strategy = StrategyHash
		}
		sp.Label("strategy", strategy.String())

		// distinctBoundValues projects the bound side of condition j
		// out of every live tuple.
		distinctBoundValues := func(j int) ([][]byte, error) {
			otherRel, otherExpr, _, err := condSides(s, j, rel)
			if err != nil {
				return nil, err
			}
			seen := map[string]bool{}
			var vals [][]byte
			for _, t := range tuples {
				v, ok := otherExpr.Eval(t[otherRel])
				if !ok {
					continue
				}
				if !seen[string(v)] {
					seen[string(v)] = true
					vals = append(vals, append([]byte(nil), v...))
				}
			}
			return vals, nil
		}

		var rows []core.Row
		verify := false // re-check the relation's own filter client-side
		switch strategy {
		case StrategyBroadcast:
			vals, err := distinctBoundValues(step.Broadcast)
			if err != nil {
				return Result{}, err
			}
			_, _, relExpr, _ := condSides(s, step.Broadcast, rel)
			if len(vals) > BroadcastCap {
				rows, err = fetchRel(rel)
			} else {
				f := rels[rel].Filter
				set := readopt.InSet(vals)
				if relExpr.WholeKey() {
					// The set replaces any user key predicate in the
					// push-down slot (re-verified below) and clamps the
					// scan bounds to the set's span.
					f.Key = set
					if lo, hi, ok := set.SetBounds(); ok {
						if f.Start == nil || bytes.Compare(lo, f.Start) > 0 {
							f.Start = lo
						}
						if f.End == nil || bytes.Compare(hi, f.End) < 0 {
							f.End = hi
						}
					}
				} else {
					f.Value = set
				}
				verify = true
				rows, err = fetch.Fetch(ctx, rel, f)
			}
			if err != nil {
				return Result{}, err
			}
		case StrategySecondary:
			var via string
			var viaCond int
			for _, j := range step.Conds {
				if rel == j+1 && s.Joins[j].On.Via != "" {
					via, viaCond = s.Joins[j].On.Via, j
					break
				}
			}
			vals, err := distinctBoundValues(viaCond)
			if err != nil {
				return Result{}, err
			}
			verify = true
			if rows, err = fetch.FetchSecondary(ctx, rel, via, vals); err != nil {
				return Result{}, err
			}
		default:
			if rows, err = fetchRel(rel); err != nil {
				return Result{}, err
			}
		}
		if verify {
			kept := rows[:0]
			for _, r := range rows {
				if rels[rel].Filter.Match(r.Key, r.Value) {
					kept = append(kept, r)
				}
			}
			rows = kept
		}

		tuples, err = joinStep(s, tuples, rows, rel, step.Conds)
		if err != nil {
			return Result{}, err
		}
	}

	acc := newFolder(s.fold(), s.RelIndex)
	for _, t := range tuples {
		acc.add(t)
	}
	return acc.result(ts), nil
}

// joinStep folds the fetched rows of relation rel into the live
// tuples: a hash probe on the step's conditions, or a cross product
// when a forced order left none checkable yet (conditions then apply
// at the later step that binds their other side).
func joinStep(s *Statement, tuples [][]core.Row, rows []core.Row, rel int, conds []int) ([][]core.Row, error) {
	extend := func(t []core.Row, r core.Row) []core.Row {
		nt := append([]core.Row(nil), t...)
		nt[rel] = r
		return nt
	}
	if len(conds) == 0 {
		var out [][]core.Row
		for _, t := range tuples {
			for _, r := range rows {
				out = append(out, extend(t, r))
			}
		}
		return out, nil
	}

	// Composite hash key over every condition, length-prefixed so
	// adjacent values cannot alias.
	compositeKey := func(evals func(j int) ([]byte, bool)) (string, bool) {
		var b []byte
		for _, j := range conds {
			v, ok := evals(j)
			if !ok {
				return "", false
			}
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
		return string(b), true
	}

	index := make(map[string][]core.Row, len(rows))
	for _, r := range rows {
		key, ok := compositeKey(func(j int) ([]byte, bool) {
			_, _, relExpr, err := condSides(s, j, rel)
			if err != nil {
				return nil, false
			}
			return relExpr.Eval(r)
		})
		if !ok {
			continue
		}
		index[key] = append(index[key], r)
	}

	var out [][]core.Row
	for _, t := range tuples {
		key, ok := compositeKey(func(j int) ([]byte, bool) {
			otherRel, otherExpr, _, err := condSides(s, j, rel)
			if err != nil {
				return nil, false
			}
			return otherExpr.Eval(t[otherRel])
		})
		if !ok {
			continue
		}
		for _, r := range index[key] {
			out = append(out, extend(t, r))
		}
	}
	return out, nil
}
