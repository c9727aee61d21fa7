package logbase

// Composable push-down read options — the Store read surface.
//
// Scan, FullScan, and Read accept any combination of ReadOption values;
// the resolved option set travels down the stack and is evaluated
// INSIDE the tablet server against the MVCC index (internal/core), so a
// limited, filtered, or snapshot-pinned scan ships only the rows the
// caller will actually consume and stops issuing log reads once its
// limit is satisfied. On a cluster the same options are shipped to
// every tablet server the range spans, with the limit tracked across
// tablets and reverse scans merging tablet streams in descending range
// order.
//
// # The serializable predicate set
//
// WithKeyFilter and WithValueFilter take a Predicate — a small closed
// set of operators (MatchPrefix, MatchContains, MatchRange), NOT a Go
// closure. Predicates are plain data with a textual wire form, which is
// what lets them cross the wire to a tablet server (internal/textproto
// SCAN ... FILTER) instead of running client-side:
//
//	PREFIX <operand>            key/value starts with operand
//	CONTAINS <operand>          key/value contains operand
//	RANGE <lo|*> <hi|*>         lo <= key/value < hi ("*" = open)
//
// Operands %-escape spaces, '%', '*', and control bytes (see
// internal/readopt). Key predicates are evaluated on index entries
// BEFORE any log read — a rejected row costs zero I/O; value predicates
// run on the log frame as it is read, inside the server, so a rejected
// row is never copied and never reaches the wire.

import "repro/internal/readopt"

// ReadOptions is the resolved push-down option set a read evaluates at
// the tablet server. Most callers compose one implicitly from
// ReadOption values; protocol adapters that already hold a decoded
// option set can inject it wholesale with WithReadOptions.
type ReadOptions = readopt.Options

// Predicate is one serializable filter (prefix / contains / range) over
// a row key or value. Build them with MatchPrefix, MatchContains, or
// MatchRange.
type Predicate = readopt.Predicate

// ReadOption configures a Scan, FullScan, or Read call.
type ReadOption func(*ReadOptions)

// WithLimit caps the number of rows returned (after all filtering).
// The tablet server stops issuing log reads once the limit is reached,
// so Scan(..., WithLimit(100)) over a million-row range costs ~100 log
// reads, not a million.
func WithLimit(n int) ReadOption { return func(o *ReadOptions) { o.Limit = n } }

// WithReverse returns rows in descending key order (for Read with
// WithAllVersions: newest version first). Reverse scans walk the index
// backwards on each tablet server and visit tablets in reverse range
// order on a cluster.
func WithReverse() ReadOption { return func(o *ReadOptions) { o.Reverse = true } }

// WithSnapshot pins the read at timestamp ts (time travel): only
// versions committed at or before ts are visible, no matter how long
// the scan runs or what commits meanwhile. 0 means "latest", resolved
// once at call time so the stream is still a consistent snapshot.
func WithSnapshot(ts int64) ReadOption { return func(o *ReadOptions) { o.Snapshot = ts } }

// WithPrefix restricts a scan to keys with the given prefix; it
// intersects with the positional [start, end) bounds and narrows the
// set of tablets a cluster scan fans out to.
func WithPrefix(p []byte) ReadOption {
	return func(o *ReadOptions) { o.Prefix = append([]byte(nil), p...) }
}

// WithKeyFilter keeps only rows whose key matches pred. Evaluated on
// index entries before the log fetch: rejected rows cost no I/O.
func WithKeyFilter(pred *Predicate) ReadOption { return func(o *ReadOptions) { o.Key = pred } }

// WithValueFilter keeps only rows whose value matches pred. Evaluated
// on the log frame as the tablet server reads it, before the row is
// copied: rejected rows cost no copy and never cross the wire.
func WithValueFilter(pred *Predicate) ReadOption { return func(o *ReadOptions) { o.Value = pred } }

// WithTimeRange keeps only rows whose visible version was committed in
// [minTS, maxTS] — "what changed in this window". Zero bounds are open.
// Evaluated on index entries, before any log read.
func WithTimeRange(minTS, maxTS int64) ReadOption {
	return func(o *ReadOptions) { o.MinTS, o.MaxTS = minTS, maxTS }
}

// WithBatchSize tunes the row-batch granularity between the tablet
// server and the consumer (0 = engine default). Smaller batches lower
// first-row latency; larger ones amortise the hand-off.
func WithBatchSize(n int) ReadOption { return func(o *ReadOptions) { o.BatchSize = n } }

// WithAllVersions makes Read return every stored version of the key
// (oldest first; newest first combined with WithReverse) instead of the
// single visible one. Composes with WithSnapshot (versions up to the
// snapshot), WithLimit, and WithValueFilter.
func WithAllVersions() ReadOption { return func(o *ReadOptions) { o.AllVersions = true } }

// WithPrimary forces the read onto the primary tablet server even when
// a read replica's watermark covers its snapshot — explicit
// read-your-writes. Reads at the latest timestamp (no WithSnapshot)
// always hit the primary anyway; this opts pinned snapshot reads out of
// replica routing too.
func WithPrimary() ReadOption { return func(o *ReadOptions) { o.Primary = true } }

// WithMaxLag routes to a read replica only if its shipping cursor
// currently trails the primary log by at most n records. The snapshot
// contract is unaffected (a replica never serves a timestamp beyond its
// watermark); this bounds how stale the SERVING replica may be overall.
// 0 removes the bound (the default).
func WithMaxLag(n int64) ReadOption { return func(o *ReadOptions) { o.MaxLag = n } }

// WithReadOptions replaces the whole option set with an already-
// resolved ReadOptions value — the injection point for protocol
// adapters that decoded options off the wire.
func WithReadOptions(ro ReadOptions) ReadOption { return func(o *ReadOptions) { *o = ro } }

// MatchPrefix matches byte strings starting with p.
func MatchPrefix(p []byte) *Predicate { return readopt.Prefix(p) }

// MatchContains matches byte strings containing sub.
func MatchContains(sub []byte) *Predicate { return readopt.Contains(sub) }

// MatchRange matches byte strings in [lo, hi); nil bounds are open.
func MatchRange(lo, hi []byte) *Predicate { return readopt.Range(lo, hi) }

// resolveReadOptions folds a ReadOption list into the resolved set.
func resolveReadOptions(opts []ReadOption) ReadOptions {
	var ro ReadOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&ro)
		}
	}
	return ro
}
