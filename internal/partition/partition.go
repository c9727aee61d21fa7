// Package partition implements LogBase's two partitioning dimensions
// (paper §3.2): vertical partitioning of a table schema into column
// groups driven by a query-workload trace, and horizontal partitioning
// of each column group into key-range tablets with a router.
package partition

import (
	"bytes"
	"fmt"
	"sort"
)

// ColumnSpec describes one column for the vertical optimizer.
type ColumnSpec struct {
	Name string
	// AvgBytes is the column's average width, used by the I/O cost
	// model.
	AvgBytes int
}

// Query is one entry of a workload trace: the set of columns it touches
// and its relative frequency.
type Query struct {
	Columns []string
	Freq    float64
}

// Group is one column group.
type Group struct {
	Name    string
	Columns []string
}

// GroupSeekOverhead is the fixed per-group access cost in byte
// equivalents: each column group a query touches is a separate physical
// partition and costs an extra seek.
const GroupSeekOverhead = 32

// IOCost evaluates the workload's I/O cost under a grouping: each query
// reads, per row, every group it intersects in full (groups are stored
// separately, so touching one column of a group fetches the group's
// whole row fragment) plus a fixed seek overhead per touched group.
// This is the cost model the paper's workload-trace-driven partitioning
// minimises.
func IOCost(cols []ColumnSpec, groups [][]string, queries []Query) float64 {
	width := make(map[string]int, len(cols))
	for _, c := range cols {
		width[c.Name] = c.AvgBytes
	}
	groupOf := make(map[string]int)
	groupBytes := make([]int, len(groups))
	for gi, g := range groups {
		for _, c := range g {
			groupOf[c] = gi
			groupBytes[gi] += width[c]
		}
	}
	var cost float64
	for _, q := range queries {
		touched := map[int]bool{}
		for _, c := range q.Columns {
			if gi, ok := groupOf[c]; ok {
				touched[gi] = true
			}
		}
		var rowBytes int
		for gi := range touched {
			rowBytes += groupBytes[gi] + GroupSeekOverhead
		}
		cost += q.Freq * float64(rowBytes)
	}
	return cost
}

// Optimize picks column groups minimising IOCost via greedy
// agglomerative merging: start with one group per column and merge the
// pair that lowers cost most, until no merge helps. (Exhaustive
// enumeration of groupings is a Bell number; greedy matches the paper's
// "multiple ways ... are enumerated [and] the best assignment is
// selected" at tractable cost and is exact for the small schemas in the
// evaluation workloads.)
func Optimize(cols []ColumnSpec, queries []Query) []Group {
	groups := make([][]string, len(cols))
	for i, c := range cols {
		groups[i] = []string{c.Name}
	}
	cost := IOCost(cols, groups, queries)
	for {
		bestI, bestJ := -1, -1
		bestCost := cost
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				merged := mergeGroups(groups, i, j)
				if c := IOCost(cols, merged, queries); c < bestCost {
					bestCost, bestI, bestJ = c, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		groups = mergeGroups(groups, bestI, bestJ)
		cost = bestCost
	}
	out := make([]Group, len(groups))
	for i, g := range groups {
		sort.Strings(g)
		out[i] = Group{Name: fmt.Sprintf("cg%d", i), Columns: g}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Columns[0] < out[j].Columns[0] })
	for i := range out {
		out[i].Name = fmt.Sprintf("cg%d", i)
	}
	return out
}

func mergeGroups(groups [][]string, i, j int) [][]string {
	out := make([][]string, 0, len(groups)-1)
	merged := append(append([]string(nil), groups[i]...), groups[j]...)
	for k, g := range groups {
		if k == i {
			out = append(out, merged)
		} else if k != j {
			out = append(out, g)
		}
	}
	return out
}

// Range is a half-open key range [Start, End); nil End means +inf and
// nil/empty Start means -inf.
type Range struct {
	Start []byte
	End   []byte
}

// Contains reports whether key falls in the range.
func (r Range) Contains(key []byte) bool {
	if len(r.Start) > 0 && bytes.Compare(key, r.Start) < 0 {
		return false
	}
	if r.End != nil && bytes.Compare(key, r.End) >= 0 {
		return false
	}
	return true
}

// Tablet identifies one horizontal partition of one table.
type Tablet struct {
	ID    string
	Table string
	Range Range
}

// SplitUniform cuts the whole keyspace into n contiguous ranges of
// roughly equal width. Cut points are two-byte prefixes (one byte for
// n <= 256), so n is no longer capped at 256 and adjacent cuts never
// collapse for any practical n. Callers with known key distributions
// can construct ranges directly, or derive data-driven cuts and use
// SplitAt.
func SplitUniform(n int) []Range {
	if n <= 1 {
		return []Range{{}}
	}
	if n > 65536 {
		n = 65536
	}
	keys := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		if n <= 256 {
			keys = append(keys, []byte{byte(i * 256 / n)})
		} else {
			cut := i * 65536 / n
			keys = append(keys, []byte{byte(cut >> 8), byte(cut)})
		}
	}
	return SplitAt(keys)
}

// SplitAt cuts the whole keyspace at the given split keys, which may be
// arbitrary byte strings (data-driven cut points, e.g. index leaf
// boundaries). Keys are sorted and deduplicated; empty keys are
// ignored. SplitAt(nil) is the single unbounded range.
func SplitAt(keys [][]byte) []Range {
	sorted := make([][]byte, 0, len(keys))
	for _, k := range keys {
		if len(k) > 0 {
			sorted = append(sorted, k)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	var out []Range
	var prev []byte
	for _, k := range sorted {
		if prev != nil && bytes.Equal(prev, k) {
			continue
		}
		out = append(out, Range{Start: prev, End: k})
		prev = k
	}
	return append(out, Range{Start: prev})
}

// Split cuts the range in two at key, which must fall strictly inside
// it (otherwise one child would be empty).
func (r Range) Split(key []byte) (Range, Range, error) {
	if len(key) == 0 {
		return Range{}, Range{}, fmt.Errorf("partition: empty split key")
	}
	if !r.Contains(key) || (len(r.Start) > 0 && bytes.Equal(key, r.Start)) {
		return Range{}, Range{}, fmt.Errorf("partition: split key %q not strictly inside range", key)
	}
	cut := append([]byte(nil), key...)
	return Range{Start: r.Start, End: cut}, Range{Start: cut, End: r.End}, nil
}

// MakeTablets names one tablet per range for a table.
func MakeTablets(table string, ranges []Range) []Tablet {
	out := make([]Tablet, len(ranges))
	for i, r := range ranges {
		out[i] = Tablet{ID: fmt.Sprintf("%s/%04d", table, i), Table: table, Range: r}
	}
	return out
}

// Router maps keys to tablets for one table. Immutable once built;
// rebuild on reassignment (clients cache routing metadata and refresh
// when stale, per paper §3.3).
type Router struct {
	tablets []Tablet // sorted by Range.Start
}

// NewRouter builds a router over tablets (any order).
func NewRouter(tablets []Tablet) *Router {
	sorted := append([]Tablet(nil), tablets...)
	sort.Slice(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].Range.Start, sorted[j].Range.Start) < 0
	})
	return &Router{tablets: sorted}
}

// Lookup returns the tablet owning key.
func (r *Router) Lookup(key []byte) (Tablet, bool) {
	lo, hi := 0, len(r.tablets)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(r.tablets[mid].Range.Start, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Tablet{}, false
	}
	t := r.tablets[lo-1]
	if !t.Range.Contains(key) {
		return Tablet{}, false
	}
	return t, true
}

// Overlapping returns the tablets intersecting [start, end) in key
// order — a cross-tablet range scan fans out to these (paper §3.6.4).
func (r *Router) Overlapping(start, end []byte) []Tablet {
	var out []Tablet
	for _, t := range r.tablets {
		if end != nil && len(t.Range.Start) > 0 && bytes.Compare(t.Range.Start, end) >= 0 {
			continue
		}
		if t.Range.End != nil && len(start) > 0 && bytes.Compare(start, t.Range.End) >= 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Tablets returns the router's tablets in key order.
func (r *Router) Tablets() []Tablet { return append([]Tablet(nil), r.tablets...) }
