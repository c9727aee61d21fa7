package logbase

// Analytical query surface (the HTAP read path): snapshot-consistent
// scans and aggregations executed directly over the multiversion log —
// no copy of the data, no interference with the write path. These are
// the result and aggregate vocabulary of Store.Exec; statement.go holds
// the statement builder and internal/query the executor.

import "repro/internal/query"

// AggKind enumerates the aggregate operators.
type AggKind = query.AggKind

// Aggregate operator kinds.
const (
	Count = query.Count
	Sum   = query.Sum
	Min   = query.Min
	Max   = query.Max
	Avg   = query.Avg
)

// ParseAggKind maps an operator name ("COUNT", "SUM", ...) to its kind.
var ParseAggKind = query.ParseAggKind

// QueryResult is a completed query: pinned snapshot timestamp, row
// count, and per-group partial aggregates.
type QueryResult = query.Result

// GroupResult is one output group of a QueryResult.
type GroupResult = query.GroupResult

// AggState is one mergeable partial aggregate of a GroupResult;
// finalise it with Value(kind).
type AggState = query.AggState
