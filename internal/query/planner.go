package query

import (
	"fmt"
	"strings"
)

// Greedy statistics-free join ordering. Cost-based optimizers need
// cardinality statistics the log-only store does not keep; the greedy
// heuristic instead orders relations by what the statement itself
// reveals — push-down selectivity (bounded ranges, key/value
// predicates) and bound-attribute count (how many join conditions
// connect a candidate to the relations already placed). The
// janus-datalog exemplar measures this family of planners at ~1000x
// faster planning with ~13% better plans than cost-based search for
// pattern queries, which is the workload shape here: short equi-join
// chains over selectively filtered relations.

// Strategy names how one plan step fetches its relation.
type Strategy int

const (
	// StrategyScan fetches the relation by scanning its own filter (the
	// first step of a join plan; later steps when nothing better applies
	// fall to StrategyHash).
	StrategyScan Strategy = iota
	// StrategyBroadcast ships the already-bound side's distinct join
	// values to the relation's tablet servers as a readopt set
	// predicate — the small side's matched keys (or values) broadcast
	// into the clustered scan fast path.
	StrategyBroadcast
	// StrategySecondary fetches join partners by registered secondary
	// index lookups (the join's Via).
	StrategySecondary
	// StrategyHash scans the relation with its own filter and probes a
	// hash table built over the bound side.
	StrategyHash
	// StrategyPartial ships the statement's grouping and aggregates with
	// the relation's filter: every tablet server holding a piece of the
	// relation folds its own rows and returns one mergeable Result, so no
	// row leaves a server. It applies to a relation whose only downstream
	// is group/aggregate — today the single step of a join-free plan.
	StrategyPartial
)

// String names the strategy (scan, broadcast, secondary, hash,
// partial).
func (s Strategy) String() string {
	switch s {
	case StrategyScan:
		return "scan"
	case StrategyBroadcast:
		return "broadcast"
	case StrategySecondary:
		return "secondary"
	case StrategyHash:
		return "hash"
	case StrategyPartial:
		return "partial"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// PlanStep is one relation in execution order: which statement
// relation it fetches, which join conditions become checkable once it
// is bound, and how it is fetched. Broadcast is the join index whose
// equi-attribute is shipped as the set push-down (-1 = none).
type PlanStep struct {
	Rel       int
	Conds     []int
	Strategy  Strategy
	Broadcast int
}

// Plan is a greedy-ordered execution plan over a statement's
// relations.
type Plan struct {
	Steps []PlanStep
}

// Order returns the relation indices in execution order.
func (p Plan) Order() []int {
	out := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.Rel
	}
	return out
}

// Describe renders the plan for explain output and tests, e.g.
// "orders(scan) -> customers(broadcast j0) -> items(hash j1)".
func (p Plan) Describe(s *Statement) string {
	rels := s.Rels()
	var sb strings.Builder
	for i, st := range p.Steps {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(rels[st.Rel].Table)
		sb.WriteByte('(')
		sb.WriteString(st.Strategy.String())
		if st.Broadcast >= 0 {
			fmt.Fprintf(&sb, " j%d", st.Broadcast)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// filterScore is the push-down selectivity proxy: lower = the
// statement's own filters restrict the relation more, so fewer rows
// leave the tablet servers. No statistics — just what the filters
// declare.
func filterScore(f RelFilter) int {
	s := 4
	if f.Start != nil {
		s--
	}
	if f.End != nil {
		s--
	}
	if f.Key != nil {
		s -= 2
	}
	if f.Value != nil {
		s--
	}
	return s
}

// condRels returns the two relation indices a join condition connects:
// the earlier relation its Left expr reads, and the joined relation
// itself.
func condRels(s *Statement, j int) (left, right int) {
	return s.RelIndex(s.Joins[j].On.LeftTable), j + 1
}

// condExprFor returns the side of condition j evaluated on relation
// rel (ok=false if the condition does not touch rel).
func condExprFor(s *Statement, j, rel int) (Expr, bool) {
	left, right := condRels(s, j)
	switch rel {
	case left:
		return s.Joins[j].On.Left, true
	case right:
		return s.Joins[j].On.Right, true
	}
	return Expr{}, false
}

// startStep is a plan's first step: the relation scanned under its own
// filter, or aggregated where it lives when nothing joins it.
func startStep(s *Statement, rel int) PlanStep {
	st := PlanStep{Rel: rel, Strategy: StrategyScan, Broadcast: -1}
	if len(s.Joins) == 0 {
		st.Strategy = StrategyPartial
	}
	return st
}

// stepFor decides the fetch strategy for relation rel given the
// conditions that become checkable when it binds. Preference order:
// broadcast (the bound side's values push down as a set predicate, on
// the key when rel's side is the whole key — the clustered-scan fast
// path — or on the value), then a Via secondary-index lookup, then a
// plain hash probe.
func stepFor(s *Statement, rel int, conds []int) PlanStep {
	st := PlanStep{Rel: rel, Conds: conds, Strategy: StrategyHash, Broadcast: -1}
	if len(conds) == 0 {
		st.Strategy = StrategyScan
		return st
	}
	// Whole-key broadcast beats whole-value broadcast: it is evaluated
	// on index entries, before any log read.
	for _, j := range conds {
		if e, ok := condExprFor(s, j, rel); ok && e.WholeKey() {
			st.Strategy, st.Broadcast = StrategyBroadcast, j
			return st
		}
	}
	for _, j := range conds {
		if e, ok := condExprFor(s, j, rel); ok && e.WholeValue() {
			st.Strategy, st.Broadcast = StrategyBroadcast, j
			return st
		}
	}
	for _, j := range conds {
		if rel == j+1 && s.Joins[j].On.Via != "" {
			st.Strategy = StrategySecondary
			return st
		}
	}
	return st
}

// PlanJoins orders the statement's relations greedily: start at the
// most-filtered relation, then repeatedly take the connected candidate
// with the most bound join conditions, breaking ties toward
// broadcastable fetches, then toward the better filterScore, then
// toward declaration order. Disconnected statements (a relation no
// condition ties to the bound set) are rejected — cross products are
// never planned implicitly.
func PlanJoins(s *Statement) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	rels := s.Rels()
	n := len(rels)

	// Start relation: best filterScore, ties to declaration order.
	start := 0
	for i := 1; i < n; i++ {
		if filterScore(rels[i].Filter) < filterScore(rels[start].Filter) {
			start = i
		}
	}

	bound := make([]bool, n)
	bound[start] = true
	plan := Plan{Steps: []PlanStep{startStep(s, start)}}
	for placed := 1; placed < n; placed++ {
		best, bestStep := -1, PlanStep{}
		for cand := 0; cand < n; cand++ {
			if bound[cand] {
				continue
			}
			var conds []int
			for j := range s.Joins {
				left, right := condRels(s, j)
				if (cand == left && bound[right]) || (cand == right && bound[left]) {
					conds = append(conds, j)
				}
			}
			if len(conds) == 0 {
				continue
			}
			step := stepFor(s, cand, conds)
			if best < 0 || betterStep(s, rels, step, bestStep) {
				best, bestStep = cand, step
			}
		}
		if best < 0 {
			return Plan{}, fmt.Errorf("query: statement is disconnected — no join condition ties a remaining relation to the bound set (cross joins are not supported)")
		}
		bound[best] = true
		plan.Steps = append(plan.Steps, bestStep)
	}
	return plan, nil
}

// betterStep is the greedy comparison: more bound conditions first,
// then broadcastable over not, then filterScore, then declaration
// order.
func betterStep(s *Statement, rels []Rel, a, b PlanStep) bool {
	if len(a.Conds) != len(b.Conds) {
		return len(a.Conds) > len(b.Conds)
	}
	ab := a.Strategy == StrategyBroadcast
	bb := b.Strategy == StrategyBroadcast
	if ab != bb {
		return ab
	}
	fa, fb := filterScore(rels[a.Rel].Filter), filterScore(rels[b.Rel].Filter)
	if fa != fb {
		return fa < fb
	}
	return a.Rel < b.Rel
}

// PlanOrdered builds the plan for a caller-forced execution order (the
// naive/benchmark path and plan pinning). Unlike PlanJoins it accepts
// disconnected prefixes: a step with no checkable condition becomes a
// cross product, exactly what a worst-order nested-loop plan does.
func PlanOrdered(s *Statement, order []int) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	n := len(s.Rels())
	if len(order) != n {
		return Plan{}, fmt.Errorf("query: order names %d relations, statement has %d", len(order), n)
	}
	bound := make([]bool, n)
	var plan Plan
	for i, rel := range order {
		if rel < 0 || rel >= n || bound[rel] {
			return Plan{}, fmt.Errorf("query: bad relation %d in forced order", rel)
		}
		var conds []int
		for j := range s.Joins {
			left, right := condRels(s, j)
			if (rel == left && bound[right]) || (rel == right && bound[left]) {
				conds = append(conds, j)
			}
		}
		step := stepFor(s, rel, conds)
		if i == 0 {
			step = startStep(s, rel)
		}
		bound[rel] = true
		plan.Steps = append(plan.Steps, step)
	}
	return plan, nil
}
