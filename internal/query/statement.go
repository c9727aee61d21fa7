package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/readopt"
)

// RelFilter is the serializable per-relation select push-down: key
// bounds plus the shared readopt predicate vocabulary — the SAME
// predicate structs the Store read path ships to tablet servers. It is
// data, not code, so it crosses the wire with its statement.
type RelFilter struct {
	// Start and End bound the relation's key range [Start, End); nil =
	// open.
	Start, End []byte
	// Key keeps only rows whose key matches; evaluated on index
	// entries at the tablet server, before any log read.
	Key *readopt.Predicate
	// Value keeps only rows whose value matches; evaluated after the
	// log read, still at the tablet server.
	Value *readopt.Predicate
}

// Match evaluates the filter client-side (the executor's fallback when
// push-down is disabled, and the re-check after a secondary lookup).
func (f RelFilter) Match(key, value []byte) bool {
	if f.Start != nil && string(key) < string(f.Start) {
		return false
	}
	if f.End != nil && string(key) >= string(f.End) {
		return false
	}
	return f.Key.Match(key) && f.Value.Match(value)
}

// Rel names one relation of a statement: a (table, column group) pair
// plus its select push-down.
type Rel struct {
	Table, Group string
	Filter       RelFilter
}

// On is one equi-join condition: Left, evaluated on rows of LeftTable
// (an earlier relation; "" = the immediately preceding one), must
// equal Right, evaluated on rows of the joined relation. Via names an
// optional registered secondary index on the joined relation whose
// indexed attribute is exactly Right — the planner then fetches join
// partners by index lookup instead of scanning.
type On struct {
	LeftTable string
	Left      Expr
	Right     Expr
	Via       string
}

// Join is one joined relation and its equi-join condition.
type Join struct {
	Rel
	On On
}

// GroupSpec is the statement's GROUP BY: an attribute of one relation,
// optionally truncated to its first Prefix bytes (the legacy
// groupPrefix shape is {Table: base, Expr: KeyExpr(), Prefix: n}).
type GroupSpec struct {
	Table  string
	Expr   Expr
	Prefix int
}

// AggSpec is one aggregate over an attribute of one relation. A zero
// Expr is the COUNT(*) shape: every tuple participates with value 0.
// Non-zero exprs must project decimal ASCII numbers; tuples whose
// projection is missing or non-numeric are skipped (SQL NULL).
type AggSpec struct {
	// Name labels the aggregate in results; defaults to Kind.String().
	Name  string
	Kind  AggKind
	Table string
	Expr  Expr
}

// Statement is the serializable, composable query form: one base
// relation, any number of equi-joined relations, a snapshot timestamp,
// grouping, and aggregates. It plans to a greedy-ordered sequence of
// relation fetches (see PlanJoins/ExecStatement; a join-free statement
// is the one-step case), and it is the ONE query representation shared
// by the embedded engine, the cluster client, and the textproto wire
// form.
//
// Build statements with NewStatement and the chaining methods; the
// filter-shaping methods (Range, FilterKey, FilterValue) apply to the
// most recently added relation, so push-down composes per relation:
//
//	NewStatement("orders").Group("g").Range(lo, hi).
//	    Join("customers", "g", On{Left: ValField(0), Right: KeyExpr()}).
//	    GroupBy(4).Agg(Count)
type Statement struct {
	Base    Rel
	Joins   []Join
	AtTS    int64
	By      *GroupSpec
	Aggs    []AggSpec
	Workers int
}

// NewStatement starts a statement over table (set the column group
// with Group).
func NewStatement(table string) *Statement {
	return &Statement{Base: Rel{Table: table}}
}

// lastRel returns the relation most recently added to the statement.
func (s *Statement) lastRel() *Rel {
	if len(s.Joins) > 0 {
		return &s.Joins[len(s.Joins)-1].Rel
	}
	return &s.Base
}

// Group sets the column group of the most recently added relation.
func (s *Statement) Group(g string) *Statement {
	s.lastRel().Group = g
	return s
}

// Range bounds the most recently added relation to keys in [start,
// end); nil bounds are open.
func (s *Statement) Range(start, end []byte) *Statement {
	r := s.lastRel()
	r.Filter.Start, r.Filter.End = start, end
	return s
}

// FilterKey adds a key predicate to the most recently added relation.
func (s *Statement) FilterKey(p *readopt.Predicate) *Statement {
	s.lastRel().Filter.Key = p
	return s
}

// FilterValue adds a value predicate to the most recently added
// relation.
func (s *Statement) FilterValue(p *readopt.Predicate) *Statement {
	s.lastRel().Filter.Value = p
	return s
}

// At pins the statement at snapshot timestamp ts (0 = latest at
// execution time).
func (s *Statement) At(ts int64) *Statement {
	s.AtTS = ts
	return s
}

// Join adds an equi-joined relation. on.LeftTable defaults to the
// relation added immediately before this one.
func (s *Statement) Join(table, group string, on On) *Statement {
	if on.LeftTable == "" {
		on.LeftTable = s.lastRel().Table
	}
	s.Joins = append(s.Joins, Join{Rel: Rel{Table: table, Group: group}, On: on})
	return s
}

// GroupBy groups by the first n bytes of the base relation's key (the
// legacy groupPrefix shape); n <= 0 groups by the whole key.
func (s *Statement) GroupBy(n int) *Statement {
	s.By = &GroupSpec{Table: s.Base.Table, Expr: KeyExpr(), Prefix: n}
	return s
}

// GroupByExpr groups by an attribute of the named relation, truncated
// to prefix bytes when prefix > 0.
func (s *Statement) GroupByExpr(table string, e Expr, prefix int) *Statement {
	s.By = &GroupSpec{Table: table, Expr: e, Prefix: prefix}
	return s
}

// Agg appends a COUNT(*)-shaped aggregate over the whole statement.
func (s *Statement) Agg(kind AggKind) *Statement {
	s.Aggs = append(s.Aggs, AggSpec{Kind: kind, Table: s.Base.Table})
	return s
}

// AggOf appends an aggregate over an attribute of the named relation.
func (s *Statement) AggOf(kind AggKind, table string, e Expr) *Statement {
	s.Aggs = append(s.Aggs, AggSpec{Kind: kind, Table: table, Expr: e})
	return s
}

// Rels returns the statement's relations in declaration order: the
// base at index 0, then one per join.
func (s *Statement) Rels() []Rel {
	out := make([]Rel, 0, 1+len(s.Joins))
	out = append(out, s.Base)
	for _, j := range s.Joins {
		out = append(out, j.Rel)
	}
	return out
}

// RelIndex resolves a table name to its relation index (-1 if the
// statement does not mention it).
func (s *Statement) RelIndex(table string) int {
	if table == s.Base.Table {
		return 0
	}
	for i, j := range s.Joins {
		if j.Table == table {
			return i + 1
		}
	}
	return -1
}

// Validate checks the statement is well-formed: named groups, distinct
// tables, every join's left side declared earlier, and grouping /
// aggregate tables resolved.
func (s *Statement) Validate() error {
	if s.Base.Table == "" {
		return fmt.Errorf("query: statement has no base table")
	}
	seen := map[string]bool{}
	for i, r := range s.Rels() {
		if r.Group == "" {
			return fmt.Errorf("query: relation %s has no column group", r.Table)
		}
		if seen[r.Table] {
			return fmt.Errorf("query: table %s appears twice (self-joins are not supported)", r.Table)
		}
		seen[r.Table] = true
		if i == 0 {
			continue
		}
		j := s.Joins[i-1]
		left := s.RelIndex(j.On.LeftTable)
		if left < 0 || left >= i {
			return fmt.Errorf("query: join on %s references %q, which is not an earlier relation", j.Table, j.On.LeftTable)
		}
		if j.On.Left.IsZero() || j.On.Right.IsZero() {
			return fmt.Errorf("query: join on %s needs both sides of the equi-condition", j.Table)
		}
	}
	if s.By != nil {
		if s.RelIndex(s.By.Table) < 0 {
			return fmt.Errorf("query: GROUP BY references unknown table %q", s.By.Table)
		}
		if s.By.Expr.IsZero() {
			return fmt.Errorf("query: GROUP BY needs an expr")
		}
	}
	for _, a := range s.Aggs {
		if s.RelIndex(a.Table) < 0 {
			return fmt.Errorf("query: aggregate %s references unknown table %q", a.Kind, a.Table)
		}
	}
	return nil
}

// fold returns the statement's group/aggregate tail.
func (s *Statement) fold() Fold {
	return Fold{By: s.By, Aggs: s.Aggs, Workers: s.Workers}
}

// Wire form: a statement serialises to space-separated tokens with the
// same %-escaping as readopt operands, e.g.
//
//	orders g FROM o100 TO o200 FILTER VAL CONTAINS west
//	  JOIN customers g ON orders VAL[0] KEY
//	  JOIN items g ON orders VAL[1] KEY VIA sku
//	  AT 1234 BY orders KEY 4 AGG COUNT orders * AGG SUM items VAL[2]
//
// (shown wrapped; the wire form is one line). The textproto QUERY
// command speaks exactly this grammar.

// EncodeTokens renders the statement in its wire form.
func (s *Statement) EncodeTokens() []string {
	out := []string{s.Base.Table, s.Base.Group}
	encodeFilter := func(f RelFilter) {
		if f.Start != nil {
			out = append(out, "FROM", readopt.EscapeOperand(f.Start))
		}
		if f.End != nil {
			out = append(out, "TO", readopt.EscapeOperand(f.End))
		}
		if f.Key != nil {
			out = append(out, "FILTER", "KEY")
			out = append(out, strings.Fields(f.Key.EncodeWire())...)
		}
		if f.Value != nil {
			out = append(out, "FILTER", "VAL")
			out = append(out, strings.Fields(f.Value.EncodeWire())...)
		}
	}
	encodeFilter(s.Base.Filter)
	for _, j := range s.Joins {
		out = append(out, "JOIN", j.Table, j.Group,
			"ON", j.On.LeftTable, j.On.Left.EncodeWire(), j.On.Right.EncodeWire())
		if j.On.Via != "" {
			out = append(out, "VIA", j.On.Via)
		}
		encodeFilter(j.Filter)
	}
	if s.AtTS != 0 {
		out = append(out, "AT", strconv.FormatInt(s.AtTS, 10))
	}
	if s.By != nil {
		out = append(out, "BY", s.By.Table, s.By.Expr.EncodeWire(), strconv.Itoa(s.By.Prefix))
	}
	for _, a := range s.Aggs {
		expr := "*"
		if !a.Expr.IsZero() {
			expr = a.Expr.EncodeWire()
		}
		out = append(out, "AGG", a.Kind.String(), a.Table, expr)
	}
	return out
}

// ParseStatementTokens parses the wire form produced by EncodeTokens.
func ParseStatementTokens(tokens []string) (*Statement, error) {
	if len(tokens) < 2 {
		return nil, fmt.Errorf("query: statement needs <table> <group>")
	}
	s := NewStatement(tokens[0]).Group(tokens[1])
	tokens = tokens[2:]

	parseFilter := func(f *RelFilter, tokens []string) ([]string, error) {
		for len(tokens) > 0 {
			switch strings.ToUpper(tokens[0]) {
			case "FROM":
				if len(tokens) < 2 {
					return nil, fmt.Errorf("query: FROM needs a key")
				}
				k, err := readopt.UnescapeOperand(tokens[1])
				if err != nil {
					return nil, err
				}
				f.Start, tokens = k, tokens[2:]
			case "TO":
				if len(tokens) < 2 {
					return nil, fmt.Errorf("query: TO needs a key")
				}
				k, err := readopt.UnescapeOperand(tokens[1])
				if err != nil {
					return nil, err
				}
				f.End, tokens = k, tokens[2:]
			case "FILTER":
				if len(tokens) < 2 {
					return nil, fmt.Errorf("query: FILTER needs KEY or VAL")
				}
				target := strings.ToUpper(tokens[1])
				p, rest, err := readopt.ParsePredicate(tokens[2:])
				if err != nil {
					return nil, err
				}
				switch target {
				case "KEY":
					f.Key = p
				case "VAL":
					f.Value = p
				default:
					return nil, fmt.Errorf("query: FILTER target %q (want KEY or VAL)", tokens[1])
				}
				tokens = rest
			default:
				return tokens, nil
			}
		}
		return tokens, nil
	}

	var err error
	if tokens, err = parseFilter(&s.Base.Filter, tokens); err != nil {
		return nil, err
	}
	for len(tokens) > 0 {
		switch strings.ToUpper(tokens[0]) {
		case "JOIN":
			if len(tokens) < 7 || !strings.EqualFold(tokens[3], "ON") {
				return nil, fmt.Errorf("query: JOIN wants <table> <group> ON <ltable> <lexpr> <rexpr>")
			}
			left, err := ParseExpr(tokens[5])
			if err != nil {
				return nil, err
			}
			right, err := ParseExpr(tokens[6])
			if err != nil {
				return nil, err
			}
			on := On{LeftTable: tokens[4], Left: left, Right: right}
			rest := tokens[7:]
			if len(rest) >= 2 && strings.EqualFold(rest[0], "VIA") {
				on.Via, rest = rest[1], rest[2:]
			}
			s.Join(tokens[1], tokens[2], on)
			if rest, err = parseFilter(&s.Joins[len(s.Joins)-1].Rel.Filter, rest); err != nil {
				return nil, err
			}
			tokens = rest
		case "AT":
			if len(tokens) < 2 {
				return nil, fmt.Errorf("query: AT needs a timestamp")
			}
			ts, err := strconv.ParseInt(tokens[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("query: bad AT timestamp %q", tokens[1])
			}
			s.AtTS, tokens = ts, tokens[2:]
		case "BY":
			if len(tokens) < 4 {
				return nil, fmt.Errorf("query: BY wants <table> <expr> <prefix>")
			}
			e, err := ParseExpr(tokens[2])
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(tokens[3])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("query: bad BY prefix %q", tokens[3])
			}
			s.By = &GroupSpec{Table: tokens[1], Expr: e, Prefix: n}
			tokens = tokens[4:]
		case "AGG":
			if len(tokens) < 4 {
				return nil, fmt.Errorf("query: AGG wants <kind> <table> <expr|*>")
			}
			kind, err := ParseAggKind(strings.ToUpper(tokens[1]))
			if err != nil {
				return nil, err
			}
			a := AggSpec{Kind: kind, Table: tokens[2]}
			if tokens[3] != "*" {
				if a.Expr, err = ParseExpr(tokens[3]); err != nil {
					return nil, err
				}
			}
			s.Aggs = append(s.Aggs, a)
			tokens = tokens[4:]
		default:
			return nil, fmt.Errorf("query: unexpected token %q", tokens[0])
		}
	}
	return s, s.Validate()
}
