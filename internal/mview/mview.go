// Package mview maintains materialized aggregate views incrementally
// from a changefeed. A view is the declarative aggregate-query shape
// the wire protocol speaks — COUNT/SUM/MIN/MAX/AVG over a key range of
// one column group, optionally grouped by a key prefix — bootstrapped
// from a snapshot scan and then kept fresh by applying Put/Delete
// events, instead of re-scanning the log per query.
//
// Updates are idempotent and order-tolerant per key: every applied row
// or event carries its commit timestamp, and a mutation is applied iff
// it is newer than the state the view already holds for that key. That
// one guard absorbs the snapshot/feed overlap during bootstrap, replays
// after cluster failover or migration, and cross-server interleaving —
// the same reason multiversion timestamps make the log the database.
//
// COUNT and SUM (and AVG = SUM/COUNT) are maintained in O(1) per
// event. MIN/MAX can shrink when the extremal row is overwritten or
// deleted; the group is then marked dirty and the extrema recomputed
// lazily from the per-key state at the next read.
package mview

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/query"
)

// Spec declares a materialized view: the declarative aggregate query it
// answers. Start/End bound the key range (nil = open); GroupPrefix > 0
// groups rows by that many leading key bytes (the wire protocol's
// "BY n"); Aggs are the aggregate kinds maintained. Numeric aggregates
// read the row value as decimal ASCII (query.Number); rows that do
// not parse count toward COUNT but are skipped by SUM/MIN/MAX/AVG,
// exactly like the scan path.
type Spec struct {
	Name        string
	Table       string
	Group       string
	Start, End  []byte
	GroupPrefix int
	Aggs        []query.AggKind
}

// Validate reports whether the spec is well-formed.
func (sp Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("mview: view needs a name")
	}
	if sp.Table == "" || sp.Group == "" {
		return fmt.Errorf("mview: view %s needs a table and column group", sp.Name)
	}
	if len(sp.Aggs) == 0 {
		return fmt.Errorf("mview: view %s needs at least one aggregate", sp.Name)
	}
	if sp.GroupPrefix < 0 {
		return fmt.Errorf("mview: view %s: negative group prefix", sp.Name)
	}
	return nil
}

// Has reports whether the view maintains aggregate kind k.
func (sp Spec) Has(k query.AggKind) bool {
	for _, a := range sp.Aggs {
		if a == k {
			return true
		}
	}
	return false
}

// Stats is a view's observability snapshot.
type Stats struct {
	Spec Spec
	// WatermarkLSN is the highest feed cursor applied; WatermarkTS the
	// highest commit timestamp applied (snapshot rows included). The
	// view's Result is exact as of this watermark.
	WatermarkLSN uint64
	WatermarkTS  int64
	// Events counts feed events consumed; SnapshotRows counts bootstrap
	// rows; Skipped counts updates absorbed by the per-key timestamp
	// guard (replays, snapshot/feed overlap, stale versions).
	Events       uint64
	SnapshotRows uint64
	Skipped      uint64
	// Groups and Keys size the view's state (tombstones included in
	// Keys — they guard against out-of-order replays).
	Groups int
	Keys   int
}

// keyRec is the per-key state: the newest mutation's timestamp, its
// numeric projection, and whether the key is live (false = tombstone).
type keyRec struct {
	ts      int64
	val     float64
	numeric bool
	live    bool
}

// groupState is one output group's incrementally maintained partial.
type groupState struct {
	keys map[string]keyRec
	rows int64 // live keys

	// Numeric partial over live keys whose value parses: count/sum are
	// exact under removal; min/max are valid only when !dirty.
	numCount int64
	numSum   float64
	min, max float64
	dirty    bool
}

// View is an incrementally maintained materialized aggregate. Safe for
// concurrent use.
type View struct {
	spec Spec

	mu     sync.Mutex
	groups map[string]*groupState
	keys   int

	wmLSN    uint64
	wmTS     int64
	events   uint64
	snapRows uint64
	skipped  uint64
}

// New creates an empty view for spec.
func New(spec Spec) *View {
	spec.Start = append([]byte(nil), spec.Start...)
	spec.End = append([]byte(nil), spec.End...)
	spec.Aggs = append([]query.AggKind(nil), spec.Aggs...)
	return &View{spec: spec, groups: make(map[string]*groupState)}
}

// Spec returns the view's declaration.
func (v *View) Spec() Spec { return v.spec }

// groupKey mirrors the wire protocol's BY-prefix grouping (and the
// scan-path GroupBy the server adapter builds): the first GroupPrefix
// bytes of the key, the whole key when shorter, "" when ungrouped.
func (v *View) groupKey(key []byte) string {
	p := v.spec.GroupPrefix
	if p <= 0 {
		return ""
	}
	if len(key) <= p {
		return string(key)
	}
	return string(key[:p])
}

// ApplyEvent folds one changefeed event into the view and advances the
// watermark. Events older than the per-key state are absorbed.
func (v *View) ApplyEvent(ev cdc.Event) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.events++
	if ev.Cursor > v.wmLSN {
		v.wmLSN = ev.Cursor
	}
	if ev.TS > v.wmTS {
		v.wmTS = ev.TS
	}
	v.apply(ev.Key, ev.Value, ev.TS, ev.Kind == cdc.Delete)
}

// ApplySnapshotRow folds one bootstrap-scan row into the view. Rows
// already superseded by applied feed events are absorbed by the
// timestamp guard.
func (v *View) ApplySnapshotRow(r core.Row) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.snapRows++
	if r.TS > v.wmTS {
		v.wmTS = r.TS
	}
	v.apply(r.Key, r.Value, r.TS, false)
}

// apply is the guarded state transition; the caller holds v.mu.
func (v *View) apply(key, value []byte, ts int64, del bool) {
	gk := v.groupKey(key)
	g := v.groups[gk]
	if g == nil {
		g = &groupState{keys: make(map[string]keyRec)}
		v.groups[gk] = g
	}
	k := string(key)
	old, had := g.keys[k]
	if had && ts <= old.ts {
		v.skipped++
		return
	}
	// Retract the superseded contribution.
	if had && old.live {
		g.rows--
		if old.numeric {
			g.numCount--
			g.numSum -= old.val
			if !g.dirty && (old.val == g.min || old.val == g.max) {
				g.dirty = true
			}
		}
	}
	if del {
		// Keep the tombstone: it guards against an older Put for the
		// same key arriving later (cluster replay interleaving).
		g.keys[k] = keyRec{ts: ts}
		if !had {
			v.keys++
		}
		return
	}
	val, numeric := query.Number(value)
	g.keys[k] = keyRec{ts: ts, val: val, numeric: numeric, live: true}
	if !had {
		v.keys++
	}
	g.rows++
	if numeric {
		if g.numCount == 0 {
			g.min, g.max = val, val
		} else if !g.dirty {
			if val < g.min {
				g.min = val
			}
			if val > g.max {
				g.max = val
			}
		}
		g.numCount++
		g.numSum += val
	}
}

// recompute rebuilds a dirty group's extrema from per-key state; the
// caller holds v.mu.
func (g *groupState) recompute() {
	if !g.dirty {
		return
	}
	g.min, g.max = 0, 0
	first := true
	for _, rec := range g.keys {
		if !rec.live || !rec.numeric {
			continue
		}
		if first {
			g.min, g.max = rec.val, rec.val
			first = false
			continue
		}
		if rec.val < g.min {
			g.min = rec.val
		}
		if rec.val > g.max {
			g.max = rec.val
		}
	}
	g.dirty = false
}

// state materialises one group's AggState for kind; caller holds v.mu
// and has recomputed the group. COUNT mirrors the scan path's COUNT(*)
// shape (every live row folded as 0); the numeric kinds mirror its
// query.Number parse (non-numeric rows skipped).
func (g *groupState) state(kind query.AggKind) query.AggState {
	if kind == query.Count {
		return query.AggState{Count: g.rows}
	}
	return query.AggState{Count: g.numCount, Sum: g.numSum, Min: g.min, Max: g.max}
}

// Result materialises the view as a query.Result holding every spec
// aggregate per group, stamped with the watermark timestamp. Groups
// with no live rows are omitted, and groups sort by key, matching the
// scan-path executor.
func (v *View) Result() query.Result {
	return v.result(v.spec.Aggs)
}

// ResultFor materialises the view for a single aggregate kind — the
// shape the declarative wire query returns. ok is false when the view
// does not maintain kind, or when ts pins a snapshot other than the
// view's watermark (0 = latest = the watermark).
func (v *View) ResultFor(kind query.AggKind, ts int64) (query.Result, bool) {
	if !v.spec.Has(kind) {
		return query.Result{}, false
	}
	v.mu.Lock()
	wm := v.wmTS
	v.mu.Unlock()
	if ts != 0 && ts != wm {
		return query.Result{}, false
	}
	return v.result([]query.AggKind{kind}), true
}

func (v *View) result(kinds []query.AggKind) query.Result {
	v.mu.Lock()
	defer v.mu.Unlock()
	res := query.Result{TS: v.wmTS}
	for gk, g := range v.groups {
		if g.rows == 0 {
			continue
		}
		g.recompute()
		gr := query.GroupResult{Key: gk, Rows: g.rows, Aggs: make([]query.AggState, len(kinds))}
		for i, kind := range kinds {
			gr.Aggs[i] = g.state(kind)
		}
		res.Rows += g.rows
		res.Groups = append(res.Groups, gr)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	return res
}

// Stats snapshots the view's counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	groups := 0
	for _, g := range v.groups {
		if g.rows > 0 {
			groups++
		}
	}
	return Stats{
		Spec:         v.spec,
		WatermarkLSN: v.wmLSN,
		WatermarkTS:  v.wmTS,
		Events:       v.events,
		SnapshotRows: v.snapRows,
		Skipped:      v.skipped,
		Groups:       groups,
		Keys:         v.keys,
	}
}
